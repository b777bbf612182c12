"""Batch one-class SVM: kernels, dual QP training, scoring, KKT partition.

Dual convention: minimize 1/2 a^T K a subject to sum(a) = 1 and
0 <= a_i <= C with C = 1/(nu * n). The decision value of a point x is
g(x) = sum_j a_j K(x, x_j) - rho.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    KktViolationError,
    NuTooSmallError,
    ShapeMismatchError,
    ValidationError,
)
from .tensor import from_hex, to_hex

KKT_TOL = 1e-6
# well below 1e-9, so no margin point is left scoring like an outlier
SMO_TOL = 1e-10
SMO_MAX_UPDATES = 1_000_000


@dataclass(frozen=True)
class KernelSpec:
    kind: str = "rbf"  # "rbf" or "linear"
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in ("rbf", "linear"):
            raise ValidationError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf" and self.sigma <= 0:
            raise ValidationError("rbf sigma must be > 0")


def kernel_matrix(k: KernelSpec, x, y=None) -> np.ndarray:
    """Gram matrix between the rows of x and y (y defaults to x)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = x if y is None else np.atleast_2d(np.asarray(y, dtype=np.float64))
    if x.shape[1] != y.shape[1]:
        raise ShapeMismatchError(f"dim mismatch {x.shape[1]} != {y.shape[1]}")
    if k.kind == "linear":
        return x @ y.T
    d2 = (
        np.sum(x**2, axis=1)[:, None]
        + np.sum(y**2, axis=1)[None, :]
        - 2.0 * (x @ y.T)
    )
    return np.exp(-np.maximum(d2, 0.0) / (2.0 * k.sigma**2))


def median_pairwise_sigma(x) -> float:
    """Median pairwise Euclidean distance bandwidth heuristic."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    d2 = (
        np.sum(x**2, axis=1)[:, None]
        + np.sum(x**2, axis=1)[None, :]
        - 2.0 * (x @ x.T)
    )
    dists = np.sqrt(np.maximum(d2[np.triu_indices(n, 1)], 0.0))
    med = float(np.median(dists)) if dists.size else 1.0
    return med if med > 0 else 1.0


class OcsvmModel:
    """Trained one-class SVM over a fixed set of training vectors."""

    def __init__(self, train_x, alpha, rho, nu, kernel: KernelSpec):
        self.x = np.atleast_2d(np.asarray(train_x, dtype=np.float64))
        self.alpha = np.asarray(alpha, dtype=np.float64).copy()
        self.rho = float(rho)
        self.nu = float(nu)
        self.kernel = kernel
        if self.alpha.shape != (self.x.shape[0],):
            raise ShapeMismatchError("alpha length must match training size")

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def c_bound(self):
        return 1.0 / (self.nu * self.n)

    def copy(self):
        return OcsvmModel(self.x.copy(), self.alpha.copy(), self.rho,
                          self.nu, self.kernel)

    def gram(self):
        return kernel_matrix(self.kernel, self.x)

    def decision_values(self, points) -> np.ndarray:
        # rows with alpha = 0 add nothing to g, so only the support vectors
        # are evaluated; they are found per call, since alpha is public
        sv = np.flatnonzero(self.alpha)
        kmat = kernel_matrix(self.kernel, np.atleast_2d(points), self.x[sv])
        return kmat @ self.alpha[sv] - self.rho

    def training_decision_values(self) -> np.ndarray:
        return self.decision_values(self.x)

    def to_dict(self) -> dict:
        """JSON-ready payload with every float stored as exact hex."""
        return {
            "nu": to_hex(self.nu),
            "kernel": {"kind": self.kernel.kind,
                       "sigma": to_hex(self.kernel.sigma)},
            "alpha": to_hex(self.alpha),
            "rho": to_hex(self.rho),
            "train_x": to_hex(self.x),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "OcsvmModel":
        kernel = KernelSpec(payload["kernel"]["kind"],
                            from_hex(payload["kernel"]["sigma"]))
        return cls(from_hex(payload["train_x"]), from_hex(payload["alpha"]),
                   from_hex(payload["rho"]), from_hex(payload["nu"]), kernel)


def decision_value(m: OcsvmModel, x) -> float:
    return float(m.decision_values(np.atleast_2d(x))[0])


def recover_rho(f_vals, alpha, c_bound):
    """Offset consistent with KKT: mean f over the margin set when it is
    nonempty, otherwise the midpoint of the feasible interval."""
    bound_eps = 1e-9 * c_bound
    s_mask = (alpha > bound_eps) & (alpha < c_bound - bound_eps)
    if np.any(s_mask):
        return float(np.mean(f_vals[s_mask]))
    lo = np.max(f_vals[alpha >= c_bound - bound_eps], initial=-np.inf)
    hi = np.min(f_vals[alpha <= bound_eps], initial=np.inf)
    if not np.isfinite(lo):
        return float(hi)
    if not np.isfinite(hi):
        return float(lo)
    return float(0.5 * (lo + hi))


def train_batch(x, nu, kernel: KernelSpec) -> OcsvmModel:
    """Solve the dual by max-violating-pair coordinate updates.

    Picks the most violating (decreasable, increasable) pair, solves the
    two-variable subproblem in closed form and repeats until the maximum
    KKT violation drops below SMO_TOL.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    if n < 2:
        raise ValidationError("training needs at least 2 vectors")
    if not 0.0 < nu < 1.0:
        raise ValidationError("nu must be in (0, 1)")
    if nu * n < 1.0:
        raise NuTooSmallError(f"nu*n = {nu * n:.6g} < 1")
    c_bound = 1.0 / (nu * n)
    kmat = kernel_matrix(kernel, x)
    alpha = np.full(n, 1.0 / n)
    f = kmat @ alpha
    for _ in range(SMO_MAX_UPDATES):
        down = alpha > 0.0
        up = alpha < c_bound
        i = int(np.argmax(np.where(down, f, -np.inf)))
        j = int(np.argmin(np.where(up, f, np.inf)))
        viol = f[i] - f[j]
        if viol < SMO_TOL:
            break
        denom = kmat[i, i] + kmat[j, j] - 2.0 * kmat[i, j]
        step = viol / denom if denom > 1e-15 else np.inf
        step = min(step, alpha[i], c_bound - alpha[j])
        alpha[i] -= step
        alpha[j] += step
        f += step * (kmat[:, j] - kmat[:, i])
    rho = recover_rho(f, alpha, c_bound)
    return OcsvmModel(x, alpha, rho, nu, kernel)


def kkt_partition(m: OcsvmModel, tol: float = KKT_TOL):
    """Partition training indices into (S, E, Rv); raise on any violation."""
    return partition(m.training_decision_values(), m.alpha, m.c_bound, tol)


def partition(g, alpha, c_bound, tol: float = KKT_TOL):
    """(S, E, Rv) index lists from decision values ``g`` and coefficients;
    raises KktViolationError naming the worst violator."""
    bound_eps = max(1e-12, 1e-6 * c_bound)
    at_zero = alpha <= bound_eps
    at_bound = ~at_zero & (alpha >= c_bound - bound_eps)
    margin = ~at_zero & ~at_bound
    err = np.where(at_zero, -g, np.where(at_bound, g, np.abs(g))) - tol
    if np.any(err > 0):
        worst = int(np.argmax(err))
        raise KktViolationError(
            f"index {worst} violates KKT by {err[worst]:.3e}",
            index=worst, excess=float(err[worst]),
        )
    return (np.flatnonzero(margin).tolist(), np.flatnonzero(at_bound).tolist(),
            np.flatnonzero(at_zero).tolist())
