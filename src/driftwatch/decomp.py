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

from .errors import (
    DivergedError,
    ShapeMismatchError,
    ValidationError,
    check_int,
)
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
        # a negative b makes 1 + b*t reach 0, an infinite b makes it NaN at
        # t = 0; NaN fails the test too
        if not (0.0 <= self.a < np.inf and 0.0 <= self.b < np.inf):
            raise ValidationError(f"learning rate a = {self.a}, b = {self.b} "
                                  f"must be finite and >= 0")

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
        if not (0.0 <= self.perturb_sigma < np.inf
                and 0.0 <= self.l1_beta < np.inf):  # NaN too
            raise ValidationError("perturb_sigma and l1_beta must be finite "
                                  "and >= 0")
        check_int(self.step, "step", 0)
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


# a little under OVERFLOW_LIMIT**2: a sum of fewer than 1e9 squares that
# rounds to at most this has no entry beyond the limit
SQUARES_BOUND = OVERFLOW_LIMIT**2 * (1.0 - 1e-6)


def _check_finite(m):
    """Raise DivergedError unless every entry of ``m`` is within
    OVERFLOW_LIMIT; only a sum of squares above SQUARES_BOUND, NaN or inf
    runs the exact test. ``vdot``, unlike ``dot``, does not warn on inf."""
    if not (np.vdot(m, m) <= SQUARES_BOUND
            or np.abs(m).max() <= OVERFLOW_LIMIT):
        raise DivergedError("factor entries exceeded the overflow limit")


def _step_terms(state, kind):
    """(gamma, beta, noise std per unit rate) of ``kind``: SGD has all three
    0, PSGD adds perturb_sigma, and NESGD also uses friction and l1_beta."""
    nesgd = kind is OptimizerKind.NESGD
    return (state.friction if nesgd else 0.0, state.l1_beta if nesgd else 0.0,
            0.0 if kind is OptimizerKind.SGD else state.perturb_sigma)


def _draw_noise(rng, sigmas, shape):
    """A block of N(0, sigma^2) noise of ``shape`` per entry of ``sigmas``,
    None where it is 0, from one ``rng`` call: bit for bit the blocks and end
    state of ``normal(0, sigma, shape)`` per nonzero sigma, 0 + sigma*z."""
    noise, drawn = [None] * len(sigmas), np.flatnonzero(sigmas)
    blocks = rng.standard_normal((len(drawn), *shape))
    blocks *= sigmas[drawn, None, None]
    blocks += 0.0  # -0.0 reads +0.0, as in normal
    for j, block in zip(drawn.tolist(), blocks):
        noise[j] = block
    return noise


def _apply_step(w, vel, slice_ij, c_new, eta, noise, gamma, beta, out):
    """One momentum step on the block ``w`` from a single frontal slice, at
    rate ``eta`` with the ``noise`` block (None: no noise).

    In the window fit ``w`` stacks [A; B; C row] (I+J+1 rows) and ``c_new``
    is None. Online it stacks [A; B] and the C row is held at ``c_new``: its
    direction is not computed. ``vel`` is the velocity block. Every kind
    takes one step on the whole block (``_step_terms`` gives the terms):

        vel <- gamma*vel + (1 - gamma)*g
        w   <- w + eta*vel + noise - beta*sign(w)

    with the direction g taken at the look-ahead point w + gamma*eta*vel. A
    term with a coefficient of exactly 0 would return its input, so it is
    skipped: the probe, the momentum mix (vel = g) or the sign.

    The new block and velocity go to ``out[0]`` and ``out[1]``, and
    ``out[2]`` is scratch: caller-owned blocks of w's shape, apart from ``w``
    and ``vel``. A new block beyond the overflow limit raises DivergedError.
    """
    w_new, g, tmp = out  # the direction g is built in the velocity's buffer
    i_n, j_n = slice_ij.shape
    # Look ahead by the upcoming displacement eta*gamma*vel. The velocity
    # is an exponential average of raw gradients, so an unscaled w+gamma*vel
    # probe point sits O(|grad|) away from w and destabilizes the step.
    probe = w
    if gamma * eta:
        probe = np.multiply(vel, gamma * eta, out=tmp)
        probe += w
    a, b = probe[:i_n], probe[i_n:i_n + j_n]
    abc = probe[:i_n + j_n] * (probe[-1] if c_new is None else c_new)
    resid = np.dot(abc[:i_n], b.T)
    np.subtract(slice_ij, resid, out=resid)
    np.dot(resid, abc[i_n:], out=g[:i_n])
    np.dot(resid.T, abc[:i_n], out=g[i_n:i_n + j_n])
    if c_new is None:  # diag(A^T R B) from one BLAS product
        np.add.reduce(a * np.dot(resid, b), axis=0, out=g[-1])
    if gamma:
        g *= 1.0 - gamma
        g += np.multiply(vel, gamma, out=tmp)
    # accumulated in the order ((w + eta*vel) + noise) - beta*sign(w)
    np.multiply(g, eta, out=w_new)
    w_new += w
    if noise is not None:
        w_new += noise
    if beta:
        w_new -= np.multiply(np.sign(w, out=tmp), beta, out=tmp)
    _check_finite(w_new)


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
        check_int(self.epochs, "epochs", 1)
        if not 0.0 <= self.tol < np.inf:  # NaN too
            raise ValidationError(f"tol {self.tol} must be finite and >= 0")

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

    def __post_init__(self):
        for name in ("a", "b", "c"):
            vel = np.shape(getattr(self.state, f"vel_{name}"))
            shape = getattr(self.factors, name).shape
            if vel != shape:
                raise ShapeMismatchError(f"vel_{name} has shape {vel}, factor "
                                         f"{name} {shape}")


def _window_rmse(window, x_sq, a, b, c):
    """RMSE of the CP model (A, B, C) against a (K, I, J) window.

    Uses ||X - M||^2 = ||X||^2 - 2<X, M> + ||M||^2 with ``x_sq`` = ||X||^2,
    <X, M> = sum(C * (X_(3) (A (*) B))) from one product of the K x IJ
    unfolding with the Khatri-Rao design, and ||M||^2 = sum((A^T A) *
    (B^T B) * (C^T C)), so the model tensor is never built. A difference
    within the rounding of a sum of I*J*K terms, sqrt(I*J*K) * eps *
    (||X||^2 + ||M||^2), cannot be told from 0 and reads as 0, never as NaN.
    """
    inner = np.sum(c * (window.reshape(len(window), -1) @ khatri_rao(a, b)))
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
    check_int(rank, "rank", 1)
    window, x_sq = _window_copy(t)
    f = init_factors(t.dims, rank, opts.seed)
    a, b, c = f.a, f.b, f.c.copy()
    state = opts.make_state(t.dims, rank)
    return window, x_sq, a, b, c, state, _window_rmse(window, x_sq, a, b, c)


def _step_slices(window, a, b, c, state, kind, ks):
    """One ``_apply_step`` on the view ``window[k]`` for each k of ``ks``,
    with the chunk's rates from one ``state.lr`` call and its noise from one
    generator call, on a double-buffered block [A; B; C row] and velocity.
    Row k of ``c`` and of ``state.vel_c`` is loaded before the step (the
    velocity's only if gamma != 0) and stored after it. Returns the new
    (A, B); ``state.vel_a``, ``state.vel_b`` and ``state.step`` are stored
    once per chunk. A step that raises ``DivergedError`` leaves ``c``, the
    velocities, the step counter and the generator as the steps before it
    left them: the generator is set back to the chunk's start and those
    steps' noise is drawn again."""
    i_n, vel_c = a.shape[0], state.vel_c
    shape = (i_n + b.shape[0] + 1, a.shape[1])
    gamma, beta, sigma = _step_terms(state, kind)
    etas = state.lr(np.arange(state.step, state.step + len(ks)))
    start = state.rng.bit_generator.state
    noise = _draw_noise(state.rng, sigma * etas, shape)
    w, vel, w_new, vel_new, tmp = np.empty((5, *shape))
    w[:i_n], w[i_n:-1], vel[:i_n], vel[i_n:-1] = a, b, state.vel_a, state.vel_b
    for j, (k, eta) in enumerate(zip(ks, etas.tolist())):
        w[-1] = c[k]
        if gamma:
            vel[-1] = vel_c[k]
        try:
            _apply_step(w, vel, window[k], None, eta, noise[j], gamma, beta,
                        (w_new, vel_new, tmp))
        except DivergedError:
            state.rng.bit_generator.state = start
            _draw_noise(state.rng, sigma * etas[:j], shape)
            state.vel_a, state.vel_b = vel[:i_n], vel[i_n:-1]
            state.step += j
            raise
        c[k], vel_c[k] = w_new[-1], vel_new[-1]
        w, w_new, vel, vel_new = w_new, w, vel_new, vel
    state.vel_a, state.vel_b = vel[:i_n], vel[i_n:-1]
    state.step += len(ks)
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
    check_int(rmse_every, "rmse_every", 1)
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
    if not np.isfinite(slice_ij).all():
        raise ValidationError("slice contains non-finite entries")
    gram = (f.a.T @ f.a) * (f.b.T @ f.b)
    gram.reshape(-1)[::f.rank + 1] += RIDGE  # the diagonal, as a view
    c_new = np.linalg.solve(gram, (f.a * (slice_ij @ f.b)).sum(axis=0))
    _check_finite(c_new)

    state = d.state
    gamma, beta, sigma = _step_terms(state, d.kind)
    eta = state.lr(state.step)
    w = np.concatenate((f.a, f.b))
    rng_state = state.rng.bit_generator.state
    noise = state.rng.normal(0.0, sigma * eta, w.shape) if sigma * eta \
        else None
    w_new, vel, _ = out = np.empty((3, *w.shape))
    try:
        _apply_step(w, np.concatenate((state.vel_a, state.vel_b)), slice_ij,
                    c_new, eta, noise, gamma, beta, out)
    except DivergedError:
        state.rng.bit_generator.state = rng_state
        raise
    state.vel_a, state.vel_b = vel[:i_n], vel[i_n:]
    state.step += 1
    d.factors = KruskalFactors.from_checked(w_new[:i_n], w_new[i_n:], f.c)
    return d, c_new
