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
        if self.kind == "rbf" and not 0 < self.sigma < np.inf:  # NaN too
            raise ValidationError("rbf sigma must be finite and > 0")


def sq_distances(x, y, y_sq=None) -> np.ndarray:
    """Squared Euclidean distances between the rows of x and y, as
    ||x||^2 + ||y||^2 - 2 x.y clipped at 0 against rounding; ``y_sq``, when
    given, holds the ||y||^2 of y's rows."""
    x_sq = (x**2).sum(axis=1)
    if y_sq is None:
        y_sq = x_sq if y is x else (y**2).sum(axis=1)
    xy2 = x @ y.T
    xy2 *= 2.0
    d2 = x_sq[:, None] + y_sq[None, :]
    d2 -= xy2
    return np.maximum(d2, 0.0, out=d2)


def kernel_matrix(k: KernelSpec, x, y=None, y_sq=None) -> np.ndarray:
    """Gram matrix between the rows of x and y (y defaults to x); ``y_sq``,
    when given, holds the squared norms of y's rows."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = x if y is None else np.atleast_2d(np.asarray(y, dtype=np.float64))
    if x.shape[1] != y.shape[1]:
        raise ShapeMismatchError(f"dim mismatch {x.shape[1]} != {y.shape[1]}")
    if k.kind == "linear":
        return x @ y.T
    return np.exp(-sq_distances(x, y, y_sq) / (2.0 * k.sigma**2))


def median_pairwise_sigma(x) -> float:
    """Median pairwise Euclidean distance bandwidth heuristic."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    dists = np.sqrt(sq_distances(x, x)[np.triu_indices(x.shape[0], 1)])
    med = float(np.median(dists)) if dists.size else 1.0
    return med if med > 0 else 1.0


class OcsvmModel:
    """Trained one-class SVM over a fixed set of training vectors.

    A model is a value: it owns read-only copies of its training rows and
    dual coefficients, and builds from them once the support-vector arrays
    that scoring reads. A change of alpha makes a new model.
    """

    def __init__(self, train_x, alpha, rho, nu, kernel: KernelSpec):
        self.x = np.array(train_x, dtype=np.float64, ndmin=2)
        self.alpha = np.array(alpha, dtype=np.float64)
        self.rho = float(rho)
        self.nu = float(nu)
        self.kernel = kernel
        if not 0.0 < self.nu < 1.0:  # NaN too
            raise ValidationError(f"nu {self.nu} must be in (0, 1)")
        if self.alpha.shape != (self.x.shape[0],):
            raise ShapeMismatchError("alpha length must match training size")
        self.x.setflags(write=False)
        self.alpha.setflags(write=False)
        # the support-vector indices; rows with alpha = 0 add nothing to g,
        # so scoring reads only these rows, their norms and coefficients
        self.sv = self.alpha.nonzero()[0]
        self.sv.setflags(write=False)
        self._sv_x = self.x.take(self.sv, axis=0)
        self._sv_sq = (self._sv_x**2).sum(axis=1)
        self._sv_alpha = self.alpha.take(self.sv)

    def __reduce__(self):
        # copies and pickles are built by __init__, so they own read-only
        # arrays and scoring arrays that match them
        return OcsvmModel, (self.x, self.alpha, self.rho, self.nu,
                            self.kernel)

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def c_bound(self):
        return 1.0 / (self.nu * self.n)

    def decision_values(self, points) -> np.ndarray:
        kmat = kernel_matrix(self.kernel, np.atleast_2d(points), self._sv_x,
                             y_sq=self._sv_sq)
        return kmat @ self._sv_alpha - self.rho

    def training_decision_values(self) -> np.ndarray:
        return self.decision_values(self.x)


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


def check_nu(nu, n):
    """``nu`` must lie in (0, 1) with nu * n >= 1 for ``n`` training
    vectors, so that the box bound C = 1/(nu * n) is at most 1."""
    if not 0.0 < nu < 1.0:  # NaN too
        raise ValidationError(f"nu {nu} must be in (0, 1)")
    if nu * n < 1.0:
        raise NuTooSmallError(f"nu*n = {nu * n:.6g} < 1")


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
    check_nu(nu, n)
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
    """(S, E, Rv) training index lists; raises KktViolationError naming the
    worst violator."""
    masks = kkt_masks(m.training_decision_values(), m.alpha, m.c_bound, tol)
    return tuple(np.flatnonzero(mask).tolist() for mask in masks)


def kkt_masks(g, alpha, c_bound, tol: float = KKT_TOL):
    """(S, E, Rv) boolean masks from decision values ``g`` and
    coefficients; raises KktViolationError naming the worst violator."""
    bound_eps = max(1e-12, 1e-6 * c_bound)
    at_zero = alpha <= bound_eps
    at_bound = ~at_zero & (alpha >= c_bound - bound_eps)
    margin = ~(at_zero | at_bound)
    outside = np.where(at_zero, -g, np.where(at_bound, g, np.abs(g)))
    if np.any(outside > tol):
        err = outside - tol
        worst = int(np.argmax(err))
        raise KktViolationError(
            f"index {worst} violates KKT by {err[worst]:.3e}")
    return margin, at_bound, at_zero
