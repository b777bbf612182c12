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
# the residuals of a sub-chunk of window-fit steps take at most this, 1 MiB
SUBCHUNK_BYTES = 2**20
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


def _first_beyond(stack):
    """The first ``stack[i]`` with an entry beyond OVERFLOW_LIMIT, NaN or inf,
    else ``len(stack)``; the exact test runs only on a sum of squares not <=
    SQUARES_BOUND. ``vdot``, unlike ``dot``, does not warn on inf."""
    if np.vdot(stack, stack) <= SQUARES_BOUND:
        return len(stack)
    within = (np.abs(stack) <= OVERFLOW_LIMIT).reshape(len(stack), -1).all(1)
    return len(stack) if within.all() else int(within.argmin())


def _check_finite(m):
    """Raise DivergedError if ``m`` has an entry beyond OVERFLOW_LIMIT."""
    if _first_beyond(m) < len(m):
        raise DivergedError("factor entries exceeded the overflow limit")


def _step_terms(state, kind):
    """(gamma, beta, noise std per unit rate) of ``kind``: SGD has all three
    0, PSGD adds perturb_sigma, and NESGD also uses friction and l1_beta."""
    nesgd = kind is OptimizerKind.NESGD
    return (state.friction if nesgd else 0.0, state.l1_beta if nesgd else 0.0,
            0.0 if kind is OptimizerKind.SGD else state.perturb_sigma)


def _draw_noise(rng, sigmas, shape):
    """N(0, sigma^2) noise of ``shape`` per entry of ``sigmas``, from one
    ``rng`` call: bit for bit the blocks and end state of ``normal(0, sigma,
    shape)`` per nonzero sigma, 0 + sigma*z. Returns each block but its last
    row, None where sigma is 0, and an array of the last rows, 0 there."""
    drawn = np.flatnonzero(sigmas)
    blocks = rng.standard_normal((len(drawn), *shape))
    blocks *= sigmas[drawn, None, None]
    blocks += 0.0  # -0.0 reads +0.0, as in normal
    noise, last = [None] * len(sigmas), np.zeros((len(sigmas), shape[1]))
    for j, block in zip(drawn.tolist(), blocks[:, :-1]):
        noise[j] = block
    last[drawn] = blocks[:, -1]
    return noise, last


def _step_out(i_n, w_new, g, probe, resid, abc, tmp):
    """The ``out`` of ``_apply_step`` for a block of ``i_n`` A rows: its
    buffers and the views it writes through, built once per set of buffers
    rather than once per step."""
    return (w_new, g, g[:i_n], g[i_n:], probe, resid, resid.T, abc,
            abc[:i_n], abc[i_n:], tmp)


def _apply_step(w, vel, slice_ij, c_row, eta, noise, gamma, beta, out):
    """One momentum step on the block ``w`` = [A; B] from a single frontal
    slice with the temporal row held at ``c_row``, at rate ``eta`` with the
    ``noise`` block (None: no noise). ``vel`` is the velocity block. Every
    kind takes the same step (``_step_terms`` gives the terms):

        vel <- gamma*vel + (1 - gamma)*g
        w   <- w + eta*vel + noise - beta*sign(w)

    with the direction g taken at the look-ahead point w + gamma*eta*vel. A
    term with a coefficient of exactly 0 would return its input, so it is
    skipped: the probe (it is then ``w``), the momentum mix (vel = g) or the
    sign.

    ``out`` is a ``_step_out`` of caller-owned buffers, apart from ``w``
    and ``vel``: the new block, the new velocity (the direction is built in
    it), the probe (written only when gamma*eta != 0), the residual
    X - (A*c) B^T at the probe, and two blocks of scratch. The caller tests
    the new block against the overflow limit (``_first_beyond``).
    """
    w_new, g, g_a, g_b, probe, resid, resid_t, abc, abc_a, abc_b, tmp = out
    # Look ahead by the upcoming displacement eta*gamma*vel. The velocity
    # is an exponential average of raw gradients, so an unscaled w+gamma*vel
    # probe point sits O(|grad|) away from w and destabilizes the step.
    if gamma * eta:
        np.multiply(vel, gamma * eta, out=probe)
        probe += w
    else:
        probe = w
    np.multiply(probe, c_row, out=abc)
    np.dot(abc_a, probe[len(resid):].T, out=resid)
    np.subtract(slice_ij, resid, out=resid)
    np.dot(resid, abc_b, out=g_a)
    np.dot(resid_t, abc_a, out=g_b)
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


def _c_row_steps(resids, probes, buf, c_rows, vel_rows, etas, noise, gamma,
                 beta):
    """The C-row half of n window-fit steps: new rows and velocities from
    the steps' residuals and look-ahead [A; B] blocks (stacks of n), each
    row's value ``c_rows`` and velocity ``vel_rows`` from before the steps,
    and ``noise``, (rows, where) or None; also ``_first_beyond`` of the new
    rows. ``buf`` is a flat buffer of at least n*I*R entries for the terms
    of the directions diag(A^T R B).

    Each direction sums over i in the order of a step's axis-0 reduce of
    an (I, R) block: numpy sums more columns than one row by row, which it
    does fast here only with i the outer axis, and one column pairwise."""
    n, i_n, rank = len(resids), resids.shape[1], probes.shape[2]
    if rank == 1:
        terms = summed = buf[:n * i_n].reshape(n, i_n, 1)
    else:
        summed = buf[:i_n * n * rank].reshape(i_n, n, rank)
        terms = summed.transpose(1, 0, 2)
    np.matmul(resids, probes[:, i_n:], out=terms)
    terms *= probes[:, :i_n]
    g = np.add.reduce(summed, axis=int(rank == 1))
    if gamma:
        g *= 1.0 - gamma
        g += vel_rows * gamma
    new = g * etas[:, None]
    new += c_rows
    if noise is not None:  # x + 0.0 would turn -0.0 into +0.0
        np.add(new, noise[0], out=new, where=noise[1][:, None])
    if beta:
        new -= np.sign(c_rows) * beta
    return new, g, _first_beyond(new)


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
    """Single-writer holder for the factors and optimizer state."""

    factors: KruskalFactors
    state: NesgdState
    kind: OptimizerKind
    slices: list  # what load_bundle is given; the window fit keeps none

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


def _chunk_buffers(i_n, j_n, n, rank, gamma):
    """The buffers of ``_step_slices`` for chunks of up to ``n`` steps on
    I x J slices at momentum ``gamma``, one slot per step of a sub-chunk,
    whose residuals take at most SUBCHUNK_BYTES: stacks of the blocks and
    velocities (one slot more), of the look-ahead probes (the blocks
    themselves when gamma = 0, as no step then writes one) and of the
    residuals, the steps' C rows, each tiled to the block's shape (an
    unbroadcast product is faster than one with a length-R inner loop and
    has the same bits), a flat buffer for ``_c_row_steps``, and each
    slot's views. A fit builds them once: the views of 182 slots take
    about 0.4 ms, 6% of a 500-step epoch on 60 x 12 slices."""
    t = max(1, min(n, SUBCHUNK_BYTES // (8 * i_n * j_n)))
    ws, vs = np.empty((2, t + 1, i_n + j_n, rank))
    probes = np.empty_like(ws[1:]) if gamma else ws[:-1]
    resids, c_buf = np.empty((t, i_n, j_n)), np.empty(t * i_n * rank)
    c_tiled, abc, tmp = np.empty_like(ws[1:]), *np.empty((2, i_n + j_n, rank))
    slots = [(ws[j], vs[j], c_tiled[j], _step_out(
        i_n, ws[j + 1], vs[j + 1], probes[j], resids[j], abc, tmp))
        for j in range(t)]
    return ws, vs, probes, resids, c_tiled, c_buf, slots


def _step_slices(window, a, b, c, state, kind, ks, bufs=None):
    """One window-fit step on slice ``window[k]`` for each k of ``ks``,
    distinct indices into the (K, I, J) ``window`` (an array or a list of
    its slices), with the chunk's rates from one ``state.lr`` call and its
    noise from one generator call. Returns the new (A, B); rows ``ks`` of
    ``c`` and ``state.vel_c`` change in place, and ``state.vel_a``,
    ``state.vel_b`` and ``state.step`` are stored once per chunk. ``bufs``
    are ``_chunk_buffers`` for chunks this long at this state's momentum
    (None: built here).

    No step of the chunk reads another step's C row, and each reads its own
    as it was before the chunk. So each step is the online step,
    ``_apply_step`` on [A; B] with the row held at its look-ahead point
    c[k] + gamma*eta*vel_c[k], and the C rows' half of the steps is taken
    in one batch (``_c_row_steps``) per sub-chunk, which is tested once. Its
    first step with a block or row beyond the overflow limit raises
    ``DivergedError``, leaving ``c``, the velocities, the step counter and
    the generator as the steps before it left them (the generator is set
    back to the chunk's start and their noise drawn again)."""
    i_n, j_n = window[0].shape
    ks, vel_c = np.asarray(ks, dtype=np.intp), state.vel_c
    shape = (i_n + j_n + 1, a.shape[1])  # the noise of [A; B] and a C row
    gamma, beta, sigma = _step_terms(state, kind)
    ws, vs, probes, resids, c_tiled, c_buf, slots = bufs or _chunk_buffers(
        i_n, j_n, len(ks), shape[1], gamma)
    etas = state.lr(np.arange(state.step, state.step + len(ks)))
    looks = gamma * etas
    start = state.rng.bit_generator.state
    noise, c_noise = _draw_noise(state.rng, sigma * etas, shape)
    c_probe = c[ks]
    if gamma:
        np.add(vel_c[ks] * looks[:, None], c_probe, out=c_probe,
               where=looks[:, None] != 0)
    ws[0, :i_n], ws[0, i_n:], vs[0, :i_n], vs[0, i_n:] = \
        a, b, state.vel_a, state.vel_b
    steps = list(zip(ks.tolist(), etas.tolist(), noise))
    for s0 in range(0, len(ks), len(slots)):
        n = min(len(slots), len(ks) - s0)
        part = slice(s0, s0 + n)
        c_tiled[:n] = c_probe[part, None]
        # steps after a failing one may compute on inf and are discarded
        with np.errstate(over="ignore", invalid="ignore"):
            for (w, vel, c_row, out), (k, eta, nz) in zip(slots, steps[part]):
                _apply_step(w, vel, window[k], c_row, eta, nz, gamma, beta,
                            out)
            if gamma and not looks[part].all():  # these looked ahead from w
                np.copyto(probes[:n], ws[:n],
                          where=looks[part, None, None] == 0)
            rows, vels, done = _c_row_steps(
                resids[:n], probes[:n], c_buf, c[ks[part]],
                vel_c[ks[part]] if gamma else None, etas[part],
                (c_noise[part], sigma * etas[part] != 0) if sigma else None,
                gamma, beta)
        done = min(done, _first_beyond(ws[1:n + 1]))
        c[ks[s0:s0 + done]], vel_c[ks[s0:s0 + done]] = \
            rows[:done], vels[:done]
        if done < n:
            state.rng.bit_generator.state = start
            _draw_noise(state.rng, sigma * etas[:s0 + done], shape)
            state.vel_a, state.vel_b = vs[done, :i_n].copy(), \
                vs[done, i_n:].copy()
            state.step += s0 + done
            raise DivergedError("factor entries exceeded the overflow limit")
        ws[0], vs[0] = ws[n], vs[n]
    state.vel_a, state.vel_b = vs[0, :i_n].copy(), vs[0, i_n:].copy()
    state.step += len(ks)
    return ws[0, :i_n].copy(), ws[0, i_n:].copy()


def decompose_stream_init(t0: DenseTensor3, rank: int, kind: OptimizerKind,
                          opts: StreamOptions = None) -> StreamDecomposition:
    """Fit the training window by epochs of shuffled single-slice steps.

    Each step is taken on a view of one contiguous (K, I, J) copy of the
    window. The fit stops after an epoch that moved the RMSE by less than
    ``opts.tol``. It keeps no ``slices``, so the copy is freed on return.
    """
    opts = opts or StreamOptions()
    window, x_sq, a, b, c, state, prev_rmse = _fit_start(t0, rank, opts)
    shuffle_rng = np.random.default_rng(opts.seed + 1)
    bufs = _chunk_buffers(*t0.dims, rank, _step_terms(state, kind)[0])
    for _ in range(opts.epochs):
        a, b = _step_slices(window, a, b, c, state, kind,
                            shuffle_rng.permutation(t0.dims[2]), bufs)
        cur = _window_rmse(window, x_sq, a, b, c)
        if abs(prev_rmse - cur) < opts.tol:
            break
        prev_rmse = cur
    return StreamDecomposition(KruskalFactors(a, b, c), state, kind, [])


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
        bufs = _chunk_buffers(*tensor.dims[:2], min(rmse_every, k_n), rank,
                              _step_terms(state, kind)[0])
        try:
            for start in range(0, k_n, rmse_every):
                stop = min(start + rmse_every, k_n)
                a, b = _step_slices(window, a, b, c, state, kind,
                                    range(start, stop), bufs)
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
    row is returned, not stored: ``factors.c`` and ``state.vel_c`` keep
    the size the training window gave them. A slice of the wrong shape or
    with non-finite entries is rejected before any state changes. A step
    that diverges raises ``DivergedError`` and leaves the state as it was,
    the noise generator included.
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
    w_new, vel, probe, abc, tmp = np.empty((5, *w.shape))
    _apply_step(w, np.concatenate((state.vel_a, state.vel_b)), slice_ij,
                c_new, eta, noise, gamma, beta,
                _step_out(i_n, w_new, vel, probe, np.empty_like(slice_ij),
                          abc, tmp))
    if _first_beyond(w_new) < len(w_new):
        state.rng.bit_generator.state = rng_state
        raise DivergedError("factor entries exceeded the overflow limit")
    state.vel_a, state.vel_b = vel[:i_n], vel[i_n:]
    state.step += 1
    d.factors = KruskalFactors.from_checked(w_new[:i_n], w_new[i_n:], f.c)
    return d, c_new
