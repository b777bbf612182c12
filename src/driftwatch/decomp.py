"""CP decomposition: offline ALS and the online SGD family.

The stochastic optimizers follow the descent-direction convention in which
the per-mode "gradient" is the residual correlated with the Khatri-Rao
design, e.g. (X1 - A (C(*)B)^T)(C(*)B) for mode 1, and updates apply it
with a *plus* sign. That direction is -1/2 times the derivative of the
squared-error loss, so the plus-eta update descends the loss.
"""

import logging
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DivergedError, ShapeMismatchError, ValidationError
from .tensor import DenseTensor3, KruskalFactors, khatri_rao, mode_design, rmse, unfold

log = logging.getLogger(__name__)

OVERFLOW_LIMIT = 1e12
RIDGE = 1e-10


def default_lr(t: int) -> float:
    """Benchmark learning-rate schedule eta(t) = 1/(1+t)."""
    return 1.0 / (1.0 + t)


class OptimizerKind(Enum):
    SGD = "sgd"
    PSGD = "psgd"
    NESGD = "nesgd"


@dataclass
class AlsOptions:
    max_iters: int = 500
    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")
        if self.tol <= 0:
            raise ValidationError("tol must be > 0")


@dataclass
class NesgdState:
    """Mutable optimizer state shared by the SGD/PSGD/NESGD step kinds."""

    vel_a: np.ndarray
    vel_b: np.ndarray
    vel_c: np.ndarray
    friction: float = 0.9
    lr: callable = default_lr
    perturb_sigma: float = 1e-3
    l1_beta: float = 1e-4
    step: int = 0
    rng_seed: int = 0
    nag_lookahead: bool = True
    # Noise std decays with the learning-rate schedule so the perturbation
    # vanishes asymptotically; set False for a constant-sigma perturbation.
    perturb_decay: bool = True
    rng: np.random.Generator = field(default=None, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.friction < 1.0:
            raise ValidationError("friction must be in [0, 1)")
        if self.perturb_sigma < 0 or self.l1_beta < 0:
            raise ValidationError("perturb_sigma and l1_beta must be >= 0")
        if self.rng is None:
            self.rng = np.random.default_rng(self.rng_seed)

    @classmethod
    def zeros(cls, dims, rank, **kwargs):
        i_n, j_n, k_n = dims
        return cls(
            vel_a=np.zeros((i_n, rank)),
            vel_b=np.zeros((j_n, rank)),
            vel_c=np.zeros((k_n, rank)),
            **kwargs,
        )


def init_factors(dims, rank, seed) -> KruskalFactors:
    """Seeded uniform-[0,1) factor initialization (never the zero point)."""
    rng = np.random.default_rng(seed)
    i_n, j_n, k_n = dims
    return KruskalFactors(
        rng.uniform(size=(i_n, rank)),
        rng.uniform(size=(j_n, rank)),
        rng.uniform(size=(k_n, rank)),
    )


def _loss(t: DenseTensor3, f: KruskalFactors) -> float:
    resid = t.data - np.einsum("ir,jr,kr->ijk", f.a, f.b, f.c)
    return float(np.sum(resid**2))


def _solve_ls(x_unfold, design, gram):
    """Normal-equation solve with ridge fallback on rank deficiency."""
    rhs = x_unfold @ design
    try:
        cond = np.linalg.cond(gram)
        cond_bad = not np.isfinite(cond) or cond > 1e12
    except np.linalg.LinAlgError:
        cond_bad = True
    if cond_bad:
        # trace can be zero (all-zero factors), so keep an absolute floor
        scale = max(float(np.trace(gram)), 1.0)
        gram = gram + RIDGE * scale * np.eye(gram.shape[0])
        log.info("gram matrix near-singular; applied ridge %.1e*trace", RIDGE)
    return np.linalg.solve(gram, rhs.T).T


def cp_als(t: DenseTensor3, rank: int, opts: AlsOptions = None):
    """Alternating least squares CP fit.

    Returns (factors, loss_trace); the trace is the squared-error loss after
    initialization and after each full A, B, C sweep.
    """
    opts = opts or AlsOptions()
    i_n, j_n, k_n = t.dims
    if rank < 1 or rank > min(i_n * j_n, j_n * k_n, i_n * k_n):
        raise ValidationError(f"rank {rank} out of range for dims {t.dims}")
    f = init_factors(t.dims, rank, opts.seed)
    a, b, c = f.a.copy(), f.b.copy(), f.c.copy()
    x1, x2, x3 = unfold(t, 1), unfold(t, 2), unfold(t, 3)
    trace = [_loss(t, f)]
    for _ in range(opts.max_iters):
        a = _solve_ls(x1, khatri_rao(c, b), (c.T @ c) * (b.T @ b))
        b = _solve_ls(x2, khatri_rao(c, a), (c.T @ c) * (a.T @ a))
        c = _solve_ls(x3, khatri_rao(b, a), (b.T @ b) * (a.T @ a))
        f = KruskalFactors(a, b, c)
        trace.append(_loss(t, f))
        prev, cur = trace[-2], trace[-1]
        if abs(prev - cur) < opts.tol * max(prev, 1e-300):
            break
    return f, trace


def cp_gradient(x_unfold: np.ndarray, f: KruskalFactors, mode: int) -> np.ndarray:
    """Descent direction (X(m) - F_m D^T) D with D the mode-m Khatri-Rao design."""
    design = mode_design(f, mode)
    factor = (f.a, f.b, f.c)[mode - 1]
    x_unfold = np.asarray(x_unfold, dtype=np.float64)
    if x_unfold.shape != (factor.shape[0], design.shape[0]):
        raise ShapeMismatchError(
            f"unfolding shape {x_unfold.shape} does not match mode {mode}"
        )
    return (x_unfold - factor @ design.T) @ design


def _slice_gradients(slice_ij, a, b, c_row, with_c):
    """Per-slice contributions to the mode directions for A, B and, when
    ``with_c``, the C row (None otherwise)."""
    resid = slice_ij - (a * c_row) @ b.T
    g_a = resid @ (b * c_row)
    g_b = resid.T @ (a * c_row)
    g_c = np.einsum("ij,ir,jr->r", resid, a, b) if with_c else None
    return g_a, g_b, g_c


def _check_finite(*mats):
    for m in mats:
        # one reduction; a NaN fails the comparison, so it raises too
        if not np.abs(m).max() <= OVERFLOW_LIMIT:
            raise DivergedError("factor entries exceeded the overflow limit")


def _apply_step(a, b, c_row, vel_a, vel_b, vel_c_row, slice_ij, state, kind):
    """One stochastic step on (A, B[, C row]) from a single frontal slice.

    ``vel_c_row`` None holds the C row fixed: its direction is neither
    computed nor applied. Returns ``(a, b, c_row), (vel_a, vel_b,
    vel_c_row)`` as new arrays and mutates none of its inputs, so a step
    that raises ``DivergedError`` leaves the velocities as they were. Its
    noise draws advance ``state.rng``; rewinding that on failure, and the
    step-counter increment, are the caller's.
    """
    update_c = vel_c_row is not None
    eta = state.lr(state.step)
    if kind is OptimizerKind.NESGD and state.nag_lookahead:
        # Look ahead by the upcoming displacement eta*gamma*vel. The velocity
        # is an exponential average of raw gradients, so an unscaled w+gamma*vel
        # probe point sits O(|grad|) away from w and destabilizes the step.
        look = state.friction * eta
        g_a, g_b, g_c = _slice_gradients(
            slice_ij,
            a + look * vel_a,
            b + look * vel_b,
            c_row + look * vel_c_row if update_c else c_row,
            update_c,
        )
    else:
        g_a, g_b, g_c = _slice_gradients(slice_ij, a, b, c_row, update_c)

    sigma = state.perturb_sigma * (eta if state.perturb_decay else 1.0)

    def noise(shape):
        if kind is OptimizerKind.SGD or sigma == 0.0:
            return 0.0
        return state.rng.normal(0.0, sigma, size=shape)

    if kind is OptimizerKind.NESGD:
        gamma = state.friction
        vel_a = gamma * vel_a + (1.0 - gamma) * g_a
        vel_b = gamma * vel_b + (1.0 - gamma) * g_b
        a = a + eta * vel_a + noise(a.shape) - state.l1_beta * np.sign(a)
        b = b + eta * vel_b + noise(b.shape) - state.l1_beta * np.sign(b)
        if update_c:
            vel_c_row = gamma * vel_c_row + (1.0 - gamma) * g_c
            c_row = c_row + eta * vel_c_row + noise(c_row.shape) \
                - state.l1_beta * np.sign(c_row)
    else:
        a = a + eta * g_a + noise(a.shape)
        b = b + eta * g_b + noise(b.shape)
        if update_c:
            c_row = c_row + eta * g_c + noise(c_row.shape)
    _check_finite(a, b, c_row)
    return (a, b, c_row), (vel_a, vel_b, vel_c_row)


def sgd_sweep(t: DenseTensor3, f: KruskalFactors, state: NesgdState,
              kind: OptimizerKind, sample_k: int):
    """One stochastic step driven by frontal slice ``sample_k``."""
    if not 0 <= sample_k < t.dims[2]:
        raise ValidationError(f"sample_k {sample_k} out of range")
    if state.vel_a.shape != f.a.shape or state.vel_b.shape != f.b.shape \
            or state.vel_c.shape != f.c.shape:
        raise ShapeMismatchError("velocity shapes do not match the factors")
    (a, b, c_row), (vel_a, vel_b, vel_c_row) = _apply_step(
        f.a, f.b, f.c[sample_k], state.vel_a, state.vel_b,
        state.vel_c[sample_k], t.slice_at(sample_k), state, kind,
    )
    c = f.c.copy()
    c[sample_k] = c_row
    state.vel_a, state.vel_b = vel_a, vel_b
    state.vel_c[sample_k] = vel_c_row
    state.step += 1
    return KruskalFactors(a, b, c), state


@dataclass
class StreamOptions:
    """Configuration for stream initialization and online updates."""

    epochs: int = 60
    tol: float = 1e-6
    seed: int = 0
    friction: float = 0.9
    lr: callable = None
    perturb_sigma: float = 1e-3
    l1_beta: float = 1e-4
    nag_lookahead: bool = True
    perturb_decay: bool = True

    def make_state(self, dims, rank) -> NesgdState:
        # The pipeline default decays much more gently than the benchmark
        # 1/(1+t) schedule; online adaptation needs a step size that does
        # not vanish within the training window. The base rate scales with
        # the slice size because the temporal-row design has I*J rows, which
        # caps the stable step at O(1/(I*J)).
        i_n, j_n, _ = dims
        lr = self.lr or (lambda t: 4.0 / (i_n * j_n) / (1.0 + 1e-4 * t))
        return NesgdState.zeros(
            dims, rank,
            friction=self.friction, lr=lr, perturb_sigma=self.perturb_sigma,
            l1_beta=self.l1_beta, rng_seed=self.seed,
            nag_lookahead=self.nag_lookahead, perturb_decay=self.perturb_decay,
        )


@dataclass
class StreamDecomposition:
    """Single-writer holder for the factors, optimizer state and data window."""

    factors: KruskalFactors
    state: NesgdState
    kind: OptimizerKind
    slices: list  # retained window, one (I, J) array per time step


def decompose_stream_init(t0: DenseTensor3, rank: int, kind: OptimizerKind,
                          opts: StreamOptions = None) -> StreamDecomposition:
    """Fit the training window by epochs of shuffled single-slice steps."""
    opts = opts or StreamOptions()
    k_n = t0.dims[2]
    f = init_factors(t0.dims, rank, opts.seed)
    state = opts.make_state(t0.dims, rank)
    shuffle_rng = np.random.default_rng(opts.seed + 1)
    prev_rmse = rmse(t0, f)
    for _ in range(opts.epochs):
        order = shuffle_rng.permutation(k_n)
        for k in order:
            f, state = sgd_sweep(t0, f, state, kind, int(k))
        cur = rmse(t0, f)
        if abs(prev_rmse - cur) < opts.tol:
            prev_rmse = cur
            break
        prev_rmse = cur
    slices = [t0.slice_at(k) for k in range(k_n)]
    return StreamDecomposition(f, state, kind, slices)


def update_online(d: StreamDecomposition, slice_ij: np.ndarray):
    """Absorb one new frontal slice; returns (d, c_new).

    The new temporal row is the ridge least-squares fit of the slice against
    the current (B(*)A) design, solved from its R x R normal equations
    ((A^T A)*(B^T B) + ridge I) c = diag(A^T X B) without forming the
    design; A and B then take one stochastic step from the new slice before
    the row is appended. A slice of the wrong shape or with non-finite
    entries is rejected before any state changes. A step that diverges
    raises ``DivergedError`` and leaves the state as it was, the noise
    generator included.
    """
    slice_ij = np.asarray(slice_ij, dtype=np.float64)
    f = d.factors
    i_n, j_n, _ = f.dims
    if slice_ij.shape != (i_n, j_n):
        raise ShapeMismatchError(
            f"slice shape {slice_ij.shape} != ({i_n}, {j_n})"
        )
    if not np.all(np.isfinite(slice_ij)):
        raise ValidationError("slice contains non-finite entries")
    gram = (f.a.T @ f.a) * (f.b.T @ f.b) + RIDGE * np.eye(f.rank)
    c_new = np.linalg.solve(gram, np.sum(f.a * (slice_ij @ f.b), axis=0))

    state = d.state
    rng_state = state.rng.bit_generator.state
    try:
        (a, b, _), (vel_a, vel_b, _) = _apply_step(
            f.a, f.b, c_new, state.vel_a, state.vel_b, None,
            slice_ij, state, d.kind,
        )
    except DivergedError:
        state.rng.bit_generator.state = rng_state
        raise
    state.vel_a, state.vel_b = vel_a, vel_b
    state.step += 1
    c = np.vstack([f.c, c_new])
    state.vel_c = np.vstack([state.vel_c, np.zeros(f.rank)])
    d.factors = KruskalFactors(a, b, c)
    d.slices.append(slice_ij.copy())
    return d, c_new
