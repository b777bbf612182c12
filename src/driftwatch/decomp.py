"""CP decomposition by the online SGD family (SGD, PSGD, NESGD).

The stochastic optimizers follow the descent-direction convention in which
the per-mode "gradient" is the residual correlated with the Khatri-Rao
design, e.g. (X1 - A (C(*)B)^T)(C(*)B) for mode 1, and updates apply it
with a *plus* sign. That direction is -1/2 times the derivative of the
squared-error loss, so the plus-eta update descends the loss.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DivergedError, ShapeMismatchError, ValidationError
# khatri_rao is not called here; the benchmark tracer wraps decomp.khatri_rao
from .tensor import DenseTensor3, KruskalFactors, khatri_rao, mode_design, rmse

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
    """One momentum step on (A, B[, C row]) from a single frontal slice.

    Every kind takes the same step on each matrix w with velocity vel:

        vel <- gamma*vel + (1 - gamma)*g
        w   <- w + eta*vel + N(0, sigma^2) - beta*sign(w)

    with the direction g taken at the look-ahead point w + gamma*eta*vel.
    SGD has gamma = beta = sigma = 0, PSGD adds sigma = perturb_sigma*eta,
    and NESGD also uses gamma = friction and beta = l1_beta. Noise is drawn
    only when sigma != 0, for A, B and the C row in that order.

    ``vel_c_row`` None holds the C row fixed: its direction is neither
    computed nor applied. Returns ``(a, b, c_row), (vel_a, vel_b,
    vel_c_row)`` as new arrays and mutates none of its inputs, so a step
    that raises ``DivergedError`` leaves the velocities as they were. Its
    noise draws advance ``state.rng``; rewinding that on failure, and the
    step-counter increment, are the caller's.
    """
    update_c = vel_c_row is not None
    eta = state.lr(state.step)
    nesgd = kind is OptimizerKind.NESGD
    gamma = state.friction if nesgd else 0.0
    beta = state.l1_beta if nesgd else 0.0
    # the noise std decays with the learning rate, so it vanishes as eta does
    sigma = 0.0 if kind is OptimizerKind.SGD else state.perturb_sigma * eta

    # Look ahead by the upcoming displacement eta*gamma*vel. The velocity
    # is an exponential average of raw gradients, so an unscaled w+gamma*vel
    # probe point sits O(|grad|) away from w and destabilizes the step.
    look = gamma * eta
    g_a, g_b, g_c = _slice_gradients(
        slice_ij,
        a + look * vel_a,
        b + look * vel_b,
        c_row + look * vel_c_row if update_c else c_row,
        update_c,
    )

    def step(w, vel, g):
        vel = gamma * vel + (1.0 - gamma) * g
        noise = 0.0 if sigma == 0.0 else state.rng.normal(0.0, sigma, w.shape)
        return w + eta * vel + noise - beta * np.sign(w), vel

    a, vel_a = step(a, vel_a, g_a)
    b, vel_b = step(b, vel_b, g_b)
    if update_c:
        c_row, vel_c_row = step(c_row, vel_c_row, g_c)
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
        )


@dataclass
class StreamDecomposition:
    """Single-writer holder for the factors, optimizer state and data window."""

    factors: KruskalFactors
    state: NesgdState
    kind: OptimizerKind
    slices: list  # training window, one (I, J) array per time step


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
    design; A and B then take one stochastic step from the new slice. The
    row is returned, not stored: ``factors.c``, ``state.vel_c`` and
    ``slices`` keep the size the training window gave them. A slice of the
    wrong shape or with non-finite entries is rejected before any state
    changes. A step that diverges raises ``DivergedError`` and leaves the
    state as it was, the noise generator included.
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
    d.factors = KruskalFactors(a, b, f.c)
    return d, c_new
