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
from .tensor import DenseTensor3, KruskalFactors, khatri_rao

OVERFLOW_LIMIT = 1e12
RIDGE = 1e-10
EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class LrSchedule:
    """Learning-rate schedule eta(t) = a / (1 + b*t); (1, 1) is 1/(1+t)."""

    a: float
    b: float

    def __post_init__(self):
        # a negative b makes 1 + b*t reach 0; NaN fails the test too
        if not (self.a >= 0 and self.b >= 0):
            raise ValidationError(
                f"learning rate a = {self.a}, b = {self.b} must be >= 0")

    def __call__(self, t) -> float:
        return self.a / (1.0 + self.b * t)

    @classmethod
    def for_slices(cls, dims, b=1e-4):
        """The pipeline default: a = 4/(I*J), decaying by ``b`` per step.

        It decays much more gently than 1/(1+t): online adaptation needs a
        step size that does not vanish within the training window. The base
        rate scales with the slice size because the temporal-row design has
        I*J rows, which caps the stable step at O(1/(I*J)).
        """
        i_n, j_n = dims[:2]
        return cls(4.0 / (i_n * j_n), b)


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
    lr: LrSchedule = LrSchedule(1.0, 1.0)
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


def _slice_gradients(slice_ij, a, b, c_row, with_c):
    """Per-slice contributions to the mode directions for A, B and, when
    ``with_c``, the C row (None otherwise); the C row is diag(A^T R B) for
    the residual R, taken from one BLAS product."""
    resid = slice_ij - (a * c_row) @ b.T
    g_a = resid @ (b * c_row)
    g_b = resid.T @ (a * c_row)
    g_c = np.sum(a * (resid @ b), axis=0) if with_c else None
    return g_a, g_b, g_c


def _check_finite(*mats):
    for m in mats:
        # one reduction; a NaN fails the comparison, so it raises too
        if m is not None and not np.abs(m).max() <= OVERFLOW_LIMIT:
            raise DivergedError("factor entries exceeded the overflow limit")


def _apply_step(w, vel, slice_ij, c_new, state, kind):
    """One momentum step on the block ``w`` from a single frontal slice.

    In the window fit ``w`` stacks [A; B; C row] (I+J+1 rows) and ``c_new``
    is None. Online it stacks [A; B] (I+J rows) and the C row is held at
    ``c_new``: its direction is not computed. ``vel`` is the velocity block
    of the same shape. Every kind takes one step on the whole block:

        vel <- gamma*vel + (1 - gamma)*g
        w   <- w + eta*vel + N(0, sigma^2) - beta*sign(w)

    with the direction g taken at the look-ahead point w + gamma*eta*vel.
    SGD has gamma = beta = sigma = 0, PSGD adds sigma = perturb_sigma*eta,
    and NESGD also uses gamma = friction and beta = l1_beta. Noise is drawn
    only when sigma != 0, in one draw of the block's shape.

    Returns the new ``(w, vel)`` and mutates neither input. A step whose
    block, or ``c_new``, leaves the overflow limit raises ``DivergedError``
    with ``state.rng`` rewound, so it changes nothing; the step-counter
    increment is the caller's.
    """
    i_n, j_n = slice_ij.shape
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
    probe = w + look * vel
    with_c = c_new is None
    g_a, g_b, g_c = _slice_gradients(
        slice_ij, probe[:i_n], probe[i_n:i_n + j_n],
        probe[-1] if with_c else c_new, with_c,
    )
    g = np.concatenate((g_a, g_b, g_c[None]) if with_c else (g_a, g_b))
    vel = gamma * vel + (1.0 - gamma) * g
    rng_state = state.rng.bit_generator.state
    noise = 0.0 if sigma == 0.0 else state.rng.normal(0.0, sigma, w.shape)
    w = w + eta * vel + noise - beta * np.sign(w)
    try:
        _check_finite(w, c_new)
    except DivergedError:
        state.rng.bit_generator.state = rng_state
        raise
    return w, vel


@dataclass
class StreamOptions:
    """Configuration for stream initialization and online updates."""

    epochs: int = 60
    tol: float = 1e-6
    seed: int = 0
    friction: float = 0.9
    lr: LrSchedule = None  # None: LrSchedule.for_slices(dims)
    perturb_sigma: float = 1e-3
    l1_beta: float = 1e-4

    def __post_init__(self):
        if self.epochs < 1:
            raise ValidationError(f"epochs {self.epochs} must be >= 1")

    def make_state(self, dims, rank) -> NesgdState:
        lr = LrSchedule.for_slices(dims) if self.lr is None else self.lr
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


def _window_rmse(window, x_sq, a, b, c):
    """RMSE of the CP model (A, B, C) against a (K, I, J) window.

    Uses ||X - M||^2 = ||X||^2 - 2<X, M> + ||M||^2 with ``x_sq`` = ||X||^2,
    <X, M> = sum(C * sum_i A * (X_k B)) and ||M||^2 = sum((A^T A) * (B^T B)
    * (C^T C)), so the model tensor is never built. A difference within
    the rounding of a sum of I*J*K terms, sqrt(I*J*K) * eps * (||X||^2 +
    ||M||^2), cannot be told from 0 and reads as 0, never as NaN.
    """
    k_n, i_n, j_n = window.shape
    xb = (window.reshape(-1, j_n) @ b).reshape(k_n, i_n, -1)
    inner = np.sum(c * np.sum(a * xb, axis=1))
    m_sq = np.sum((a.T @ a) * (b.T @ b) * (c.T @ c))
    err = x_sq - 2.0 * inner + m_sq
    if err <= np.sqrt(window.size) * EPS * (x_sq + m_sq):
        return 0.0
    return float(np.sqrt(err / window.size))


def _window_copy(t: DenseTensor3):
    """A read-only contiguous (K, I, J) copy of ``t`` and its squared norm."""
    window = np.ascontiguousarray(np.moveaxis(t.data, 2, 0))
    window.setflags(write=False)
    return window, np.vdot(window, window)


def window_rmse(t: DenseTensor3, f: KruskalFactors) -> float:
    """Root mean square error of the CP model ``f`` over all I*J*K cells of
    ``t``, in the closed form of ``_window_rmse``."""
    if t.dims != f.dims:
        raise ShapeMismatchError(
            f"tensor dims {t.dims} != factor dims {f.dims}")
    window, x_sq = _window_copy(t)
    return _window_rmse(window, x_sq, f.a, f.b, f.c)


def _fit_start(t: DenseTensor3, rank, opts: StreamOptions):
    """The start of a window fit and of a benchmark pass: the window copy
    and its squared norm, the seeded factors A, B and a writable copy of C,
    a fresh optimizer state and the RMSE of the seeded factors."""
    window, x_sq = _window_copy(t)
    f = init_factors(t.dims, rank, opts.seed)
    a, b, c = f.a, f.b, f.c.copy()
    state = opts.make_state(t.dims, rank)
    return window, x_sq, a, b, c, state, _window_rmse(window, x_sq, a, b, c)


def _step_slices(window, a, b, c, state, kind, ks):
    """One ``_apply_step`` on the view ``window[k]`` for each k of ``ks``.

    The steps run on the block [A; B; C row], whose last row is loaded from
    row k of ``c`` (and of ``state.vel_c``) before each step and stored back
    after it. Returns the new (A, B); row k of ``c`` and of ``state.vel_c``
    is updated in place. A step that raises ``DivergedError`` changes none
    of them, so they hold what the steps before it left.
    """
    i_n, vel_c = a.shape[0], state.vel_c
    w = np.concatenate((a, b, c[:1]))
    vel = np.concatenate((state.vel_a, state.vel_b, vel_c[:1]))
    for k in ks:
        w[-1], vel[-1] = c[k], vel_c[k]
        w, vel = _apply_step(w, vel, window[k], None, state, kind)
        c[k], vel_c[k] = w[-1], vel[-1]
        state.vel_a, state.vel_b = vel[:i_n], vel[i_n:-1]
        state.step += 1
    return w[:i_n], w[i_n:-1]


def decompose_stream_init(t0: DenseTensor3, rank: int, kind: OptimizerKind,
                          opts: StreamOptions = None) -> StreamDecomposition:
    """Fit the training window by epochs of shuffled single-slice steps.

    Each step is taken on a view of one contiguous (K, I, J) copy of the
    window. The fit stops after an epoch that moved the RMSE by less than
    ``opts.tol``. The retained ``slices`` are read-only views of that copy.
    """
    opts = opts or StreamOptions()
    window, x_sq, a, b, c, state, prev_rmse = _fit_start(t0, rank, opts)
    shuffle_rng = np.random.default_rng(opts.seed + 1)
    for _ in range(opts.epochs):
        a, b = _step_slices(window, a, b, c, state, kind,
                            shuffle_rng.permutation(t0.dims[2]))
        cur = _window_rmse(window, x_sq, a, b, c)
        if abs(prev_rmse - cur) < opts.tol:
            break
        prev_rmse = cur
    return StreamDecomposition(KruskalFactors(a, b, c), state, kind,
                               list(window))


def run_benchmark(tensor: DenseTensor3, rank, kinds, opts: StreamOptions,
                  rmse_every=10):
    """{kind: [(step, rmse), ...]} from one in-order pass over the time mode
    per optimizer, each from ``init_factors(dims, rank, opts.seed)``.

    The steps are the window fit's, and the RMSE is taken every
    ``rmse_every`` steps and after the last. A pass that diverges keeps the
    points recorded before the step that diverged.
    """
    if rmse_every < 1:
        raise ValidationError(f"rmse_every {rmse_every} must be >= 1")
    k_n = tensor.dims[2]
    traces = {}
    for kind in kinds:
        window, x_sq, a, b, c, state, rmse0 = _fit_start(tensor, rank, opts)
        trace = [(0, rmse0)]
        try:
            for start in range(0, k_n, rmse_every):
                stop = min(start + rmse_every, k_n)
                a, b = _step_slices(window, a, b, c, state, kind,
                                    range(start, stop))
                trace.append((stop, _window_rmse(window, x_sq, a, b, c)))
        except DivergedError:
            pass  # truncated trace is the recorded outcome
        traces[kind] = trace
    return traces


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
    w, vel = _apply_step(np.concatenate((f.a, f.b)),
                         np.concatenate((state.vel_a, state.vel_b)),
                         slice_ij, c_new, state, d.kind)
    state.vel_a, state.vel_b = vel[:i_n], vel[i_n:]
    state.step += 1
    d.factors = KruskalFactors.from_checked(w[:i_n], w[i_n:], f.c)
    return d, c_new
