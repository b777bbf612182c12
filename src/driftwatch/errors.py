"""Exception hierarchy shared across the package.

Every error carries a short machine-readable ``code`` so the CLI can map
failures to exit codes without string matching on messages.
"""


class DriftwatchError(Exception):
    code = "error"

    def __init__(self, message=""):
        super().__init__(message or self.code)


class ValidationError(DriftwatchError):
    """Bad inputs: shapes, modes, parameter ranges, malformed files."""

    code = "validation"


class ShapeMismatchError(ValidationError):
    code = "shape-mismatch"


class BadModeError(ValidationError):
    code = "bad-mode"


class NuTooSmallError(ValidationError):
    code = "nu-too-small"


class TooFewLocationsError(ValidationError):
    code = "too-few-locations"


class EmptyStreamError(ValidationError):
    code = "empty-stream"


class IoError(DriftwatchError):
    code = "io-error"


class NumericalError(DriftwatchError):
    """Numerical failures during optimization or model updates."""

    code = "numerical"


class DivergedError(NumericalError):
    code = "diverged"


class KktViolationError(NumericalError):
    code = "kkt-violation"


class ImmobileError(NumericalError):
    code = "immobile"
