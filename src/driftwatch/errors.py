"""Exception hierarchy shared across the package, and its one integer check.

Every error carries a short machine-readable ``code`` so the CLI can map
failures to exit codes without string matching on messages.
"""


class DriftwatchError(Exception):
    code = "error"

    def __init__(self, message=""):
        super().__init__(message or self.code)


class ValidationError(DriftwatchError):
    """Bad inputs: shapes, parameter ranges, malformed files."""

    code = "validation"


class ShapeMismatchError(ValidationError):
    code = "shape-mismatch"


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


def check_int(value, what, low):
    """``value`` if it is an int >= ``low``, else a ValidationError. A bool,
    which Python counts as an int (JSON's true reads as 1), is not one."""
    if isinstance(value, bool) or not (isinstance(value, int)
                                       and value >= low):
        raise ValidationError(f"{what} must be an int >= {low}, not "
                              f"{value!r}")
    return value
