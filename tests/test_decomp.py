"""Stochastic-optimizer behavior, including a finite-difference oracle
for the per-mode descent direction."""

import copy
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftwatch import (
    DenseTensor3,
    DivergedError,
    KruskalFactors,
    LrSchedule,
    NesgdState,
    OptimizerKind,
    ShapeMismatchError,
    StreamDecomposition,
    StreamOptions,
    ValidationError,
    SynthSpec,
    decompose_stream_init,
    generate,
    init_factors,
    khatri_rao,
    kruskal_reconstruct,
    update_online,
    window_rmse,
)
from driftwatch import decomp
from driftwatch.decomp import (
    OVERFLOW_LIMIT,
    RIDGE,
    SQUARES_BOUND,
    SUBCHUNK_BYTES,
    _apply_step,
    _check_finite,
    _first_beyond,
    _step_out,
    _step_slices,
    _window_rmse,
    run_benchmark,
)

RNG = np.random.default_rng(77)


def rmse(t, f):
    """Reference RMSE over all I*J*K cells, from the dense model tensor."""
    resid = t.data - np.einsum("ir,jr,kr->ijk", f.a, f.b, f.c)
    return float(np.sqrt(np.mean(resid**2)))


def step_terms(state, kind):
    """The rate, momentum, shrinkage and noise std of the state's next step
    for ``kind``."""
    eta = state.lr(state.step)
    nesgd = kind is OptimizerKind.NESGD
    gamma = state.friction if nesgd else 0.0
    beta = state.l1_beta if nesgd else 0.0
    sigma = 0.0 if kind is OptimizerKind.SGD else state.perturb_sigma * eta
    return eta, gamma, beta, sigma


def kernel_step(w, vel, slice_ij, c_row, state, kind):
    """One ``_apply_step`` on [A; B] at the state's rate, with its noise
    drawn by a call of its own as before every step; returns the new block
    and velocity. The step counter is not advanced."""
    eta, gamma, beta, sigma = step_terms(state, kind)
    noise = state.rng.normal(0.0, sigma, w.shape) if sigma else None
    w_new, vel_new, probe, abc, tmp = np.empty((5, *w.shape))
    _apply_step(w, vel, slice_ij, c_row, eta, noise, gamma, beta,
                _step_out(len(slice_ij), w_new, vel_new, probe,
                          np.empty_like(slice_ij), abc, tmp))
    return w_new, vel_new


def reference_step(a, b, c_row, vel_a, vel_b, vel_c_row, slice_ij, state,
                   kind):
    """The momentum step taken matrix by matrix: A, B and (unless
    ``vel_c_row`` is None) the C row, each with its own velocity and its own
    noise draw, in that order, and the C-row direction as an einsum."""
    update_c = vel_c_row is not None
    eta, gamma, beta, sigma = step_terms(state, kind)
    look = gamma * eta
    a_la, b_la = a + look * vel_a, b + look * vel_b
    c_la = c_row + look * vel_c_row if update_c else c_row
    resid = slice_ij - (a_la * c_la) @ b_la.T
    g_a = resid @ (b_la * c_la)
    g_b = resid.T @ (a_la * c_la)

    def step(w, vel, g):
        vel = gamma * vel + (1.0 - gamma) * g
        noise = 0.0 if sigma == 0.0 else state.rng.normal(0.0, sigma, w.shape)
        return w + eta * vel + noise - beta * np.sign(w), vel

    a, vel_a = step(a, vel_a, g_a)
    b, vel_b = step(b, vel_b, g_b)
    if update_c:
        g_c = np.einsum("ij,ir,jr->r", resid, a_la, b_la)
        c_row, vel_c_row = step(c_row, vel_c_row, g_c)
    return (a, b, c_row), (vel_a, vel_b, vel_c_row)


def sgd_sweep(t, f, state, kind, sample_k):
    """Reference step: a chunk of one window-fit step driven by frontal
    slice ``sample_k``, on a fresh copy of C and factors validated again."""
    if not 0 <= sample_k < t.dims[2]:
        raise ValidationError(f"sample_k {sample_k} out of range")
    if state.vel_a.shape != f.a.shape or state.vel_b.shape != f.b.shape \
            or state.vel_c.shape != f.c.shape:
        raise ShapeMismatchError("velocity shapes do not match the factors")
    c = f.c.copy()
    a, b = _step_slices(np.moveaxis(t.data, 2, 0), f.a, f.b, c, state, kind,
                        [sample_k])
    return KruskalFactors(a, b, c), state


def fd_direction(t, f, mode, h=1e-6):
    """Central finite differences of the squared-error loss; the analytic
    direction is -1/2 of this derivative."""
    factor = (f.a, f.b, f.c)[mode - 1].copy()
    out = np.zeros_like(factor)

    def loss_at(mat):
        mats = [f.a.copy(), f.b.copy(), f.c.copy()]
        mats[mode - 1] = mat
        resid = t.data - np.einsum("ir,jr,kr->ijk", *mats)
        return float(np.sum(resid**2))

    for idx in np.ndindex(*factor.shape):
        up = factor.copy()
        up[idx] += h
        dn = factor.copy()
        dn[idx] -= h
        out[idx] = (loss_at(up) - loss_at(dn)) / (2 * h)
    return -0.5 * out


def slice_direction(slice_ij, a, b, c_row):
    """The direction a window-fit step takes on [A; B; C row] from one
    slice: at rate 0 with no momentum the new velocities are the direction
    itself."""
    state = NesgdState.zeros((*slice_ij.shape, 1), len(c_row),
                             lr=LrSchedule(0.0, 0.0))
    _step_slices(slice_ij[None], a, b, c_row[None].copy(), state,
                 OptimizerKind.SGD, [0])
    return np.vstack((state.vel_a, state.vel_b, state.vel_c))


def slice_directions(t, f):
    """The A, B and C directions of the whole tensor as the optimizers take
    them: ``slice_direction`` summed over the frontal slices for A and B,
    one C row per slice."""
    i_n, j_n = f.a.shape[0], f.b.shape[0]
    parts = [slice_direction(t.slice_at(k), f.a, f.b, f.c[k])
             for k in range(t.dims[2])]
    return (sum(p[:i_n] for p in parts), sum(p[i_n:i_n + j_n] for p in parts),
            np.array([p[-1] for p in parts]))


class TestCpGradient:
    def test_zero_residual_gives_zero(self):
        f = init_factors((3, 4, 2), 2, seed=3)
        t = kruskal_reconstruct(f)
        for g in slice_directions(t, f):
            np.testing.assert_allclose(g, 0.0, atol=1e-10)

    def test_scalar_case(self):
        f = KruskalFactors(np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)))
        t = DenseTensor3(np.full((1, 1, 1), 3.0))
        for g in slice_directions(t, f):
            assert g[0, 0] == pytest.approx(2.0)

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_finite_difference_oracle(self, mode):
        rng = np.random.default_rng(10 + mode)
        t = DenseTensor3(rng.standard_normal((4, 3, 2)))
        f = KruskalFactors(
            rng.standard_normal((4, 2)),
            rng.standard_normal((3, 2)),
            rng.standard_normal((2, 2)),
        )
        analytic = slice_directions(t, f)[mode - 1]
        numeric = fd_direction(t, f, mode)
        err = np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-12)
        assert err <= 1e-5


class TestSgdSweep:
    def setup_method(self):
        self.t = DenseTensor3(RNG.uniform(size=(4, 3, 5)))
        self.f = init_factors(self.t.dims, 2, seed=9)

    def _state(self, **kw):
        return NesgdState.zeros(self.t.dims, 2, **kw)

    def test_zero_lr_no_change(self):
        for kind in OptimizerKind:
            st0 = self._state(lr=LrSchedule(0.0, 0.0), perturb_sigma=0.0,
                              l1_beta=0.0)
            f1, _ = sgd_sweep(self.t, self.f, st0, kind, 0)
            np.testing.assert_array_equal(f1.a, self.f.a)
            np.testing.assert_array_equal(f1.b, self.f.b)
            np.testing.assert_array_equal(f1.c, self.f.c)

    def test_nesgd_equals_sgd_when_disabled(self):
        kw = dict(friction=0.0, perturb_sigma=0.0, l1_beta=0.0,
                  lr=LrSchedule(0.05, 0.0))
        f_sgd, _ = sgd_sweep(self.t, self.f, self._state(**kw),
                             OptimizerKind.SGD, 1)
        f_ne, _ = sgd_sweep(self.t, self.f, self._state(**kw),
                            OptimizerKind.NESGD, 1)
        np.testing.assert_array_equal(f_sgd.a, f_ne.a)
        np.testing.assert_array_equal(f_sgd.b, f_ne.b)
        np.testing.assert_array_equal(f_sgd.c, f_ne.c)

    def test_momentum_accumulates_displacement(self):
        kw = dict(perturb_sigma=0.0, l1_beta=0.0, lr=LrSchedule(0.01, 0.0))
        f_sgd = self.f
        st_sgd = self._state(friction=0.0, **kw)
        f_ne = self.f
        st_ne = self._state(friction=0.9, **kw)
        for k in (2, 2):
            f_sgd, st_sgd = sgd_sweep(self.t, f_sgd, st_sgd,
                                      OptimizerKind.SGD, k)
            f_ne, st_ne = sgd_sweep(self.t, f_ne, st_ne,
                                    OptimizerKind.NESGD, k)
        # after the velocity warms up, the second NESGD step keeps pushing
        # along the accumulated direction; compare total velocity norms
        assert np.linalg.norm(st_ne.vel_a) > 0
        disp_sgd = np.linalg.norm(f_sgd.a - self.f.a)
        disp_ne = np.linalg.norm(f_ne.a - self.f.a)
        assert disp_ne != disp_sgd  # momentum changes the trajectory

    def test_psgd_is_sgd_plus_noise(self):
        kw = dict(friction=0.0, l1_beta=0.0, lr=LrSchedule(0.05, 0.0))
        f_sgd, _ = sgd_sweep(self.t, self.f,
                             self._state(perturb_sigma=0.0, **kw),
                             OptimizerKind.SGD, 0)
        f_psgd, _ = sgd_sweep(self.t, self.f,
                              self._state(perturb_sigma=1e-3, rng_seed=4, **kw),
                              OptimizerKind.PSGD, 0)
        diff = np.abs(f_psgd.a - f_sgd.a).max()
        assert 0 < diff < 1e-1

    def test_reproducible_with_fixed_seed(self):
        kw = dict(friction=0.9, perturb_sigma=1e-3, rng_seed=11,
                  lr=LrSchedule(0.01, 0.0))
        outs = []
        for _ in range(2):
            f, st0 = self.f, self._state(**kw)
            for k in range(3):
                f, st0 = sgd_sweep(self.t, f, st0, OptimizerKind.NESGD, k)
            outs.append(f)
        np.testing.assert_array_equal(outs[0].a, outs[1].a)
        np.testing.assert_array_equal(outs[0].c, outs[1].c)

    def test_sample_out_of_range(self):
        with pytest.raises(ValidationError):
            sgd_sweep(self.t, self.f, self._state(), OptimizerKind.SGD, 5)

    def test_divergence_detected(self):
        st0 = self._state(friction=0.0, perturb_sigma=0.0,
                          lr=LrSchedule(1e9, 0.0))
        f = self.f
        with pytest.raises(DivergedError):
            for _ in range(50):
                f, st0 = sgd_sweep(self.t, f, st0, OptimizerKind.SGD, 0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_property_friction_zero_matches_sgd(self, seed):
        rng = np.random.default_rng(seed)
        t = DenseTensor3(rng.uniform(size=(3, 3, 3)))
        f = init_factors(t.dims, 2, seed=seed % 1000)
        kw = dict(friction=0.0, perturb_sigma=0.0, l1_beta=0.0,
                  lr=LrSchedule(0.02, 0.0))
        f1, _ = sgd_sweep(t, f, NesgdState.zeros(t.dims, 2, **kw),
                          OptimizerKind.SGD, 1)
        f2, _ = sgd_sweep(t, f, NesgdState.zeros(t.dims, 2, **kw),
                          OptimizerKind.NESGD, 1)
        assert np.abs(f1.a - f2.a).max() == 0.0


class TestBlockStep:
    """``_apply_step`` on [A; B] and, with the C row, a chunk of one
    window-fit step against ``reference_step``."""

    @pytest.mark.parametrize("kind", list(OptimizerKind))
    @pytest.mark.parametrize("friction", [0.0, 0.9])
    @pytest.mark.parametrize("with_c", [True, False])
    def test_matches_reference_step(self, kind, friction, with_c):
        self.check_step(kind, friction, with_c, l1_beta=1e-4,
                        perturb_sigma=1e-3)

    # a zero l1_beta or perturb_sigma makes the step skip that term
    @pytest.mark.parametrize("kind", list(OptimizerKind))
    @pytest.mark.parametrize("friction", [0.0, 0.9])
    @pytest.mark.parametrize("with_c", [True, False])
    @pytest.mark.parametrize("l1_beta, perturb_sigma",
                             [(0.0, 0.0), (0.0, 1e-3), (1e-4, 0.0)])
    def test_matches_reference_step_zero_terms(self, kind, friction, with_c,
                                               l1_beta, perturb_sigma):
        self.check_step(kind, friction, with_c, l1_beta, perturb_sigma)

    @staticmethod
    def check_step(kind, friction, with_c, l1_beta, perturb_sigma):
        rng = np.random.default_rng(5)
        i_n, j_n, rank = 7, 4, 3
        a, b = rng.uniform(size=(i_n, rank)), rng.uniform(size=(j_n, rank))
        c_row = rng.uniform(size=rank)
        vel_a, vel_b, vel_c = (rng.standard_normal(m.shape)
                               for m in (a, b, c_row))
        slice_ij = rng.uniform(size=(i_n, j_n))

        def state():
            return NesgdState.zeros((i_n, j_n, 1), rank, friction=friction,
                                    lr=LrSchedule(0.05, 1e-3), step=3,
                                    rng_seed=8, l1_beta=l1_beta,
                                    perturb_sigma=perturb_sigma)

        ref, got = state(), state()
        (ra, rb, rc), (rva, rvb, rvc) = reference_step(
            a, b, c_row, vel_a, vel_b, vel_c if with_c else None, slice_ij,
            ref, kind)
        if with_c:
            c = c_row[None].copy()
            got.vel_a, got.vel_b, got.vel_c = vel_a, vel_b, vel_c[None].copy()
            w = np.vstack((*_step_slices(slice_ij[None], a, b, c, got, kind,
                                         [0]), c))
            vel = np.vstack((got.vel_a, got.vel_b, got.vel_c))
        else:
            w, vel = kernel_step(np.vstack((a, b)), np.vstack((vel_a, vel_b)),
                                 slice_ij, c_row, got, kind)
        assert w.shape == vel.shape == (i_n + j_n + with_c, rank)
        for x, y in ((w[:i_n], ra), (w[i_n:i_n + j_n], rb),
                     (vel[:i_n], rva), (vel[i_n:i_n + j_n], rvb)):
            assert np.array_equal(x, y)
        assert got.rng.bit_generator.state == ref.rng.bit_generator.state
        if with_c:
            for x, y in ((w[-1], rc), (vel[-1], rvc)):
                assert np.abs(x - y).max() <= 1e-14 * np.abs(y).max()


@dataclass(frozen=True)
class RateZeroAt(LrSchedule):
    """The schedule (a, b) with a rate of exactly 0 at step ``zero``."""

    zero: int = 0

    def __call__(self, t):
        return np.where(np.equal(t, self.zero), 0.0, super().__call__(t))


def slice_bytes(i_n, j_n, n):
    """SUBCHUNK_BYTES that fit the residuals of ``n`` I x J slices."""
    return 8 * i_n * j_n * n


class TestChunkStep:
    """``_step_slices`` over a shuffled chunk of slices, from step 3,
    against ``reference_step`` called slice by slice."""

    @pytest.mark.parametrize("kind", list(OptimizerKind))
    @pytest.mark.parametrize("friction", [0.0, 0.9])
    @pytest.mark.parametrize("l1_beta, perturb_sigma",
                             [(1e-4, 1e-3), (0.0, 0.0), (0.0, 1e-3),
                              (1e-4, 0.0)])
    def test_matches_reference_step(self, kind, friction, l1_beta,
                                    perturb_sigma):
        self.check_chunk(kind, friction, LrSchedule(0.05, 1e-3), l1_beta,
                         perturb_sigma)

    @pytest.mark.parametrize("kind", list(OptimizerKind))
    def test_zero_rate_draws_nothing(self, kind):
        state, _ = self.check_chunk(kind, 0.9, LrSchedule(0.0, 1e-3), 1e-4,
                                    1e-3)
        assert state.rng.bit_generator.state == \
            np.random.default_rng(8).bit_generator.state

    @pytest.mark.parametrize("kind", list(OptimizerKind))
    @pytest.mark.parametrize("friction", [0.0, 0.9])
    def test_chunk_of_three_sub_chunks_with_a_zero_rate_step(
            self, kind, friction, monkeypatch):
        # 8 steps in sub-chunks of 3, 3 and 2; the step at 3 + 4 has rate 0,
        # so with friction it looks ahead from its own block
        monkeypatch.setattr(decomp, "SUBCHUNK_BYTES", slice_bytes(7, 4, 3))
        self.check_chunk(kind, friction, RateZeroAt(0.05, 1e-3, 7), 1e-4,
                         1e-3, k_n=8)

    def test_wide_window_keeps_its_residuals_within_the_budget(self):
        # 22 residuals of 120 x 48 fill the budget, so 60 steps take
        # sub-chunks of 22, 22 and 16: the chunk's other buffers and noise
        # take about 0.6 MB, while 60 residuals alone would take 2.8 MB
        assert slice_bytes(120, 48, 22) <= SUBCHUNK_BYTES \
            < slice_bytes(120, 48, 23)
        _, peak = self.check_chunk(OptimizerKind.NESGD, 0.9,
                                   LrSchedule(0.05, 1e-3), 1e-4, 1e-3,
                                   i_n=120, j_n=48, k_n=60, rank=2)
        assert peak < 2 * SUBCHUNK_BYTES

    @staticmethod
    def check_chunk(kind, friction, lr, l1_beta, perturb_sigma, i_n=7, j_n=4,
                    k_n=6, rank=3):
        """The state after the chunk and the peak of the memory that
        numpy and Python allocated while the chunk ran."""
        rng = np.random.default_rng(6)
        window = rng.uniform(size=(k_n, i_n, j_n))
        a, b, c = (rng.uniform(size=(n, rank)) for n in (i_n, j_n, k_n))
        vels = [rng.standard_normal(m.shape) for m in (a, b, c)]
        ks = rng.permutation(k_n)

        def state():
            return NesgdState(*(v.copy() for v in vels), friction=friction,
                              lr=lr, perturb_sigma=perturb_sigma,
                              l1_beta=l1_beta, step=3, rng_seed=8)

        ref, got = state(), state()
        ra, rb, rc = a, b, c.copy()
        for k in ks:
            (ra, rb, rc[k]), (ref.vel_a, ref.vel_b, ref.vel_c[k]) = \
                reference_step(ra, rb, rc[k], ref.vel_a, ref.vel_b,
                               ref.vel_c[k], window[k], ref, kind)
            ref.step += 1
        gc, ga, gb = c.copy(), a.copy(), b.copy()
        tracemalloc.start()
        try:
            ga, gb = _step_slices(window, ga, gb, gc, got, kind, ks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for x, y in ((ga, ra), (gb, rb), (got.vel_a, ref.vel_a),
                     (got.vel_b, ref.vel_b)):
            assert np.array_equal(x, y)
        for x, y in ((gc, rc), (got.vel_c, ref.vel_c)):
            assert np.abs(x - y).max() <= 1e-14 * np.abs(y).max()
        assert got.step == ref.step == 3 + k_n
        assert got.rng.bit_generator.state == ref.rng.bit_generator.state
        return got, peak


class TestCheckFinite:
    def test_entries_at_the_limit_pass_with_squares_above_the_bound(self):
        m = np.full((5, 2), OVERFLOW_LIMIT)
        m[::2] *= -1.0
        assert np.vdot(m, m) > SQUARES_BOUND
        _check_finite(m)

    @pytest.mark.parametrize("bad", [
        np.nextafter(OVERFLOW_LIMIT, np.inf),
        -np.nextafter(OVERFLOW_LIMIT, np.inf), np.nan, np.inf, -np.inf])
    def test_one_entry_beyond_the_limit_raises(self, bad):
        m = np.ones((5, 2))
        m[3, 1] = bad
        with pytest.raises(DivergedError):
            _check_finite(m)

    def test_stack_at_the_limit_has_no_block_beyond_it(self):
        stack = np.full((4, 5, 2), OVERFLOW_LIMIT)
        stack[:, ::2] *= -1.0
        assert np.vdot(stack, stack) > SQUARES_BOUND
        assert _first_beyond(stack) == 4
        assert _first_beyond(np.ones((3, 2))) == 3

    @pytest.mark.parametrize("bad", [
        np.nextafter(OVERFLOW_LIMIT, np.inf), -np.inf, np.nan])
    @pytest.mark.parametrize("first", [0, 2, 4])
    def test_stack_gives_its_first_block_beyond_the_limit(self, bad, first):
        stack = np.full((5, 3, 2), OVERFLOW_LIMIT)
        stack[first:, 1, 0] = bad
        stack[first + 1:, 2, 1] = np.inf  # later blocks fail too
        assert _first_beyond(stack) == first
        assert _first_beyond(stack[:first]) == first


class TestDivergedStep:
    """A step that overflows raises and leaves every piece of state as it
    was. The slice is A diag(c) B^T with |c| of about 1e13."""

    I_N, J_N, RANK = 6, 5, 2
    C_BIG = np.array([3e13, 2e13])

    def setup_method(self):
        rng = np.random.default_rng(12)
        self.a = rng.uniform(size=(self.I_N, self.RANK))
        self.b = rng.uniform(size=(self.J_N, self.RANK))
        self.slice_ij = (self.a * self.C_BIG) @ self.b.T

    @staticmethod
    def snapshot(state):
        return ([m.copy() for m in (state.vel_a, state.vel_b, state.vel_c)],
                state.rng.bit_generator.state, state.step)

    @staticmethod
    def assert_unchanged(state, before):
        vels, rng_state, step = before
        for got, want in zip((state.vel_a, state.vel_b, state.vel_c), vels):
            assert np.array_equal(got, want)
        assert state.rng.bit_generator.state == rng_state
        assert state.step == step

    def test_window_fit_step_overflowing_only_in_the_c_row(self):
        # row k of C is 0, so the A and B directions vanish and only the
        # C row leaves the overflow limit
        k_n = 3
        c = np.random.default_rng(13).uniform(size=(k_n, self.RANK))
        c[1] = 0.0
        window = np.stack([self.slice_ij] * k_n)
        state = NesgdState.zeros((self.I_N, self.J_N, k_n), self.RANK,
                                 friction=0.0, lr=LrSchedule(0.1, 0.0),
                                 rng_seed=3)
        a, b, c_before = self.a.copy(), self.b.copy(), c.copy()
        before = self.snapshot(state)
        with pytest.raises(DivergedError):
            _step_slices(window, a, b, c, state, OptimizerKind.NESGD, [1])
        for got, want in ((a, self.a), (b, self.b), (c, c_before)):
            assert np.array_equal(got, want)
        self.assert_unchanged(state, before)

    @pytest.mark.parametrize("friction", [0.0, 0.9])
    def test_window_fit_chunk_overflowing_at_its_third_step(self, friction):
        # the third step's slice is the big one and its C row is 0, as above
        self.check_chunk_fails_at(friction, 4, [3, 0, 2, 1], c_row_at=2)

    @pytest.mark.parametrize("friction", [0.0, 0.9])
    def test_window_fit_c_row_overflow_before_a_block_overflow(self,
                                                               friction):
        # the C rows are taken after the sub-chunk's [A; B] steps, yet the
        # third step's C row fails before the fifth step's A and B
        self.check_chunk_fails_at(friction, 5, [4, 1, 3, 0, 2], c_row_at=2,
                                  block_at=4)

    @pytest.mark.parametrize("friction", [0.0, 0.9])
    @pytest.mark.parametrize("half", ["c_row_at", "block_at"])
    def test_window_fit_overflow_at_the_second_sub_chunks_first_step(
            self, friction, half, monkeypatch):
        monkeypatch.setattr(decomp, "SUBCHUNK_BYTES",
                            slice_bytes(self.I_N, self.J_N, 3))
        self.check_chunk_fails_at(friction, 5, [2, 4, 0, 1, 3], **{half: 3})

    def check_chunk_fails_at(self, friction, k_n, ks, c_row_at=None,
                             block_at=None):
        """A chunk over slices ``ks`` of a window of ``k_n``: at step
        ``c_row_at`` the slice is the big one and the C row 0, so only the
        row overflows, and at step ``block_at`` the slice is 1e17 times the
        big one, so A and B overflow. It must leave the state as the steps
        before the first of them left it."""
        rng = np.random.default_rng(14)
        window = rng.uniform(size=(k_n, self.I_N, self.J_N))
        c = rng.uniform(size=(k_n, self.RANK))
        if c_row_at is not None:
            window[ks[c_row_at]], c[ks[c_row_at]] = self.slice_ij, 0.0
        if block_at is not None:
            window[ks[block_at]] = self.slice_ij * 1e17
        state = NesgdState.zeros((self.I_N, self.J_N, k_n), self.RANK,
                                 friction=friction, lr=LrSchedule(0.1, 0.0),
                                 perturb_sigma=1e-3, rng_seed=3)
        fail = min(j for j in (c_row_at, block_at) if j is not None)
        before, c_before = copy.deepcopy(state), c.copy()
        _step_slices(window, self.a, self.b, c_before, before,
                     OptimizerKind.NESGD, ks[:fail])
        assert before.rng.bit_generator.state != \
            state.rng.bit_generator.state
        with pytest.raises(DivergedError):
            _step_slices(window, self.a, self.b, c, state,
                         OptimizerKind.NESGD, ks)
        for got, want in ((c, c_before), (state.vel_c, before.vel_c),
                          (state.vel_a, before.vel_a),
                          (state.vel_b, before.vel_b)):
            assert np.array_equal(got, want)
        assert state.rng.bit_generator.state == \
            before.rng.bit_generator.state
        assert state.step == before.step == fail

    @pytest.mark.parametrize("friction", [0.0, 0.9])
    def test_window_fit_block_back_within_the_limit_still_fails(
            self, friction, monkeypatch):
        # step 2's block leaves the limit and step 3 starts from it brought
        # back, so the sub-chunk's last block is within the limit, which a
        # test of that block alone would pass; the chunk fails at step 2
        k_n, ks, bump = 5, [3, 0, 4, 1, 2], 2 * OVERFLOW_LIMIT
        rng = np.random.default_rng(15)
        window = rng.uniform(size=(k_n, self.I_N, self.J_N))
        c = rng.uniform(size=(k_n, self.RANK))
        state = NesgdState.zeros((self.I_N, self.J_N, k_n), self.RANK,
                                 friction=friction, lr=LrSchedule(0.1, 0.0),
                                 perturb_sigma=1e-3, rng_seed=3)
        before, c_before = copy.deepcopy(state), c.copy()
        _step_slices(window, self.a, self.b, c_before, before,
                     OptimizerKind.NESGD, ks[:2])
        real, blocks = decomp._apply_step, []

        def step(w, *args):
            if len(blocks) == 3:
                w = w.copy()
                w[0, 0] -= bump
            real(w, *args)
            w_new = args[-1][0]
            if len(blocks) == 2:
                w_new[0, 0] += bump
            blocks.append(w_new.copy())

        monkeypatch.setattr(decomp, "_apply_step", step)
        with pytest.raises(DivergedError):
            _step_slices(window, self.a, self.b, c, state,
                         OptimizerKind.NESGD, ks)
        assert [_first_beyond(m[None]) for m in blocks] == [1, 1, 0, 1, 1]
        for got, want in ((c, c_before), (state.vel_c, before.vel_c),
                          (state.vel_a, before.vel_a),
                          (state.vel_b, before.vel_b)):
            assert np.array_equal(got, want)
        assert state.rng.bit_generator.state == \
            before.rng.bit_generator.state
        assert state.step == before.step == 2

    def test_online_step_overflowing_only_in_c_new(self):
        # the slice is fitted exactly, so A and B barely move while the new
        # temporal row itself is about 1e13
        f = KruskalFactors(self.a, self.b, np.ones((4, self.RANK)))
        state = NesgdState.zeros((self.I_N, self.J_N, 4), self.RANK,
                                 lr=LrSchedule(1e-6, 0.0), rng_seed=3)
        d = StreamDecomposition(f, state, OptimizerKind.NESGD, [])
        before = self.snapshot(state)
        with pytest.raises(DivergedError):
            update_online(d, self.slice_ij)
        assert d.factors is f
        self.assert_unchanged(state, before)


class TestStream:
    def make_window(self, k_n=40, seed=2):
        rng = np.random.default_rng(seed)
        f_true = KruskalFactors(
            rng.uniform(size=(6, 2)),
            rng.uniform(size=(5, 2)),
            rng.uniform(size=(k_n, 2)),
        )
        return kruskal_reconstruct(f_true)

    @staticmethod
    def exact_fit_options(epochs=600):
        # noiseless data: disable shrinkage, noise, and plateau stop so the
        # optimizer can run all the way down
        return StreamOptions(epochs=epochs, seed=0, tol=0.0, l1_beta=0.0,
                             perturb_sigma=0.0,
                             lr=LrSchedule(4.0 / 30.0, 0.0))

    def test_init_fits_noiseless_rank2(self):
        t = self.make_window()
        d = decompose_stream_init(t, 2, OptimizerKind.NESGD,
                                  self.exact_fit_options())
        assert rmse(t, d.factors) <= 1e-3

    def test_overcomplete_rank_still_fits(self):
        t = self.make_window()
        d = decompose_stream_init(t, 4, OptimizerKind.NESGD,
                                  self.exact_fit_options())
        assert rmse(t, d.factors) <= 1e-3

    def test_single_slice_window(self):
        t = DenseTensor3(RNG.uniform(size=(4, 3, 1)))
        d = decompose_stream_init(t, 2, OptimizerKind.NESGD,
                                  StreamOptions(epochs=5, seed=0))
        assert d.factors.c.shape == (1, 2)

    def test_update_online_exact_slice(self):
        t = self.make_window()
        d = decompose_stream_init(t, 2, OptimizerKind.NESGD,
                                  StreamOptions(epochs=300, seed=0))
        f = d.factors
        c_star = np.array([0.4, 0.7])
        slice_ij = (f.a * c_star) @ f.b.T
        a_before = f.a.copy()
        d, c_new = update_online(d, slice_ij)
        np.testing.assert_allclose(c_new, c_star, atol=1e-6)
        # residual is ~0 so the A step is driven by noise/shrinkage only
        assert np.abs(d.factors.a - a_before).max() < 1e-3
        # the stream state keeps the window's size however long it runs
        for _ in range(50):
            d, _ = update_online(d, slice_ij)
        assert d.factors.c.shape == (t.dims[2], 2)
        assert d.state.vel_c.shape == (t.dims[2], 2)
        assert d.slices == []

    @pytest.mark.parametrize("rank", [1, 2, 4])
    @pytest.mark.parametrize("shape", [(7, 3), (3, 9)])
    def test_update_online_row_matches_design_solve(self, rank, shape):
        # oracle: the ridge solve against the explicit I*J x R design
        rng = np.random.default_rng(rank * 100 + shape[0])
        i_n, j_n = shape
        f = KruskalFactors(rng.standard_normal((i_n, rank)),
                           rng.standard_normal((j_n, rank)),
                           rng.standard_normal((4, rank)))
        state = NesgdState.zeros((i_n, j_n, 4), rank,
                                 lr=LrSchedule(1e-3, 0.0))
        d = StreamDecomposition(f, state, OptimizerKind.NESGD, [])
        slice_ij = rng.standard_normal(shape)
        design = khatri_rao(f.b, f.a)
        expected = np.linalg.solve(
            design.T @ design + RIDGE * np.eye(rank),
            design.T @ slice_ij.reshape(-1, order="F"))
        _, c_new = update_online(d, slice_ij)
        np.testing.assert_allclose(c_new, expected, rtol=1e-10)

    @pytest.mark.parametrize("kind", list(OptimizerKind))
    @pytest.mark.parametrize("friction", [0.0, 0.9])
    def test_update_online_matches_reference_formula(self, kind, friction):
        # the ridge solve with an explicit RIDGE * I and ``reference_step``,
        # which computes every term, zero coefficients included
        t = self.make_window()
        d = decompose_stream_init(t, 3, kind,
                                  StreamOptions(epochs=2, seed=5,
                                                friction=friction))
        ref = copy.deepcopy(d.state)
        f = d.factors
        slice_ij = 1.5 * t.slice_at(7)
        gram = (f.a.T @ f.a) * (f.b.T @ f.b) + RIDGE * np.eye(f.rank)
        want_c = np.linalg.solve(gram, np.sum(f.a * (slice_ij @ f.b), axis=0))
        (want_a, want_b, _), (want_va, want_vb, _) = reference_step(
            f.a, f.b, want_c, ref.vel_a, ref.vel_b, None, slice_ij, ref, kind)
        d, c_new = update_online(d, slice_ij)
        for got, want in ((c_new, want_c), (d.factors.a, want_a),
                          (d.factors.b, want_b), (d.state.vel_a, want_va),
                          (d.state.vel_b, want_vb)):
            assert np.array_equal(got, want)
        assert d.state.rng.bit_generator.state == ref.rng.bit_generator.state

    def test_update_online_zero_slice(self):
        t = self.make_window(k_n=10)
        d = decompose_stream_init(t, 2, OptimizerKind.NESGD,
                                  StreamOptions(epochs=10, seed=0))
        _, c_new = update_online(d, np.zeros((6, 5)))
        np.testing.assert_allclose(c_new, 0.0, atol=1e-8)

    def test_stream_rmse_stays_bounded(self):
        rng = np.random.default_rng(8)
        f_true = KruskalFactors(
            rng.uniform(size=(6, 2)),
            rng.uniform(size=(5, 2)),
            rng.uniform(size=(140, 2)),
        )
        full = kruskal_reconstruct(f_true)
        window = DenseTensor3(full.data[:, :, :60])
        d = decompose_stream_init(window, 2, OptimizerKind.NESGD,
                                  self.exact_fit_options(epochs=300))
        base = rmse(window, d.factors)
        c_rows = [d.factors.c]
        for k in range(60, 140):
            d, c_new = update_online(d, full.data[:, :, k])
            c_rows.append(c_new[None, :])
        final = rmse(full, KruskalFactors(d.factors.a, d.factors.b,
                                          np.vstack(c_rows)))
        assert final <= max(1.5 * base, 1e-3)

    def test_default_schedule_is_the_auto_rate(self):
        state = StreamOptions().make_state((6, 5, 10), 2)
        assert state.lr == LrSchedule(4.0 / 30.0, 1e-4)

    def test_update_online_shape_check(self):
        t = self.make_window(k_n=5)
        d = decompose_stream_init(t, 2, OptimizerKind.NESGD,
                                  StreamOptions(epochs=2, seed=0))
        with pytest.raises(ShapeMismatchError):
            update_online(d, np.zeros((3, 3)))


def reference_fit(t, rank, kind, opts):
    """The window fit spelled out with reference ``sgd_sweep`` steps and the
    ``rmse`` stopping rule."""
    f = init_factors(t.dims, rank, opts.seed)
    state = opts.make_state(t.dims, rank)
    shuffle_rng = np.random.default_rng(opts.seed + 1)
    prev = rmse(t, f)
    for _ in range(opts.epochs):
        for k in shuffle_rng.permutation(t.dims[2]):
            f, state = sgd_sweep(t, f, state, kind, int(k))
        cur = rmse(t, f)
        if abs(prev - cur) < opts.tol:
            break
        prev = cur
    return f, state


def reference_trace(t, rank, kind, opts, rmse_every=10):
    """The ``run_benchmark`` pass spelled out with ``sgd_sweep`` steps and
    ``rmse`` on the whole tensor."""
    f = init_factors(t.dims, rank, opts.seed)
    state = opts.make_state(t.dims, rank)
    k_n = t.dims[2]
    trace = [(0, rmse(t, f))]
    try:
        for k in range(k_n):
            f, state = sgd_sweep(t, f, state, kind, k)
            if (k + 1) % rmse_every == 0 or k == k_n - 1:
                trace.append((k + 1, rmse(t, f)))
    except DivergedError:
        pass
    return trace


class TestBenchTrace:
    @staticmethod
    def assert_same_trace(got, want):
        assert [step for step, _ in got] == [step for step, _ in want]
        for (_, g), (_, w) in zip(got, want):
            assert abs(g - w) <= 1e-12 * w

    @pytest.mark.parametrize("rmse_every", [7, 10])
    def test_equals_reference_loop(self, rmse_every):
        rng = np.random.default_rng(41)
        t = DenseTensor3(rng.uniform(size=(8, 5, 45)))
        opts = StreamOptions(seed=3, lr=LrSchedule(0.05, 1e-3))
        kinds = list(OptimizerKind)
        traces = run_benchmark(t, 2, kinds, opts, rmse_every)
        for kind in kinds:
            assert traces[kind][-1][0] == t.dims[2]
            self.assert_same_trace(
                traces[kind], reference_trace(t, 2, kind, opts, rmse_every))

    def test_diverging_pass_stops_where_the_reference_does(self):
        t, _, _ = generate(SynthSpec(dims=(60, 12, 40), rank_true=2, seed=0,
                                     noise_sigma=0.05))
        opts = StreamOptions(seed=1000, lr=LrSchedule(1.0, 1.0))
        got = run_benchmark(t, 2, [OptimizerKind.SGD], opts)
        # SGD diverges within the first 10 steps: only step 0 is recorded
        assert [step for step, _ in got[OptimizerKind.SGD]] == [0]
        self.assert_same_trace(got[OptimizerKind.SGD],
                               reference_trace(t, 2, OptimizerKind.SGD, opts))

    def test_rmse_every_below_one_is_rejected(self):
        t = DenseTensor3(RNG.uniform(size=(3, 3, 4)))
        with pytest.raises(ValidationError):
            run_benchmark(t, 2, [OptimizerKind.SGD], StreamOptions(), 0)

    @pytest.mark.parametrize("rmse_every", [2.5, True])
    def test_rmse_every_that_is_no_int_is_rejected(self, rmse_every):
        t = DenseTensor3(RNG.uniform(size=(3, 3, 4)))
        with pytest.raises(ValidationError):
            run_benchmark(t, 2, [OptimizerKind.SGD], StreamOptions(),
                          rmse_every)

    def test_negative_rank_is_rejected(self):
        t = DenseTensor3(RNG.uniform(size=(3, 3, 4)))
        with pytest.raises(ValidationError, match="rank"):
            run_benchmark(t, -1, [OptimizerKind.SGD], StreamOptions())
        with pytest.raises(ValidationError, match="rank"):
            decompose_stream_init(t, -1, OptimizerKind.SGD)


class TestWindowFit:
    @pytest.mark.parametrize("kind", list(OptimizerKind))
    @pytest.mark.parametrize("tol,epochs", [(0.0, 6), (1e-3, 60)])
    def test_equals_reference_loop(self, kind, tol, epochs):
        rng = np.random.default_rng(31)
        t = DenseTensor3(rng.uniform(size=(7, 5, 30)))
        opts = StreamOptions(epochs=epochs, tol=tol, seed=4,
                             lr=LrSchedule(0.1, 1e-3))
        d = decompose_stream_init(t, 3, kind, opts)
        f, state = reference_fit(t, 3, kind, opts)
        for got, want in ((d.factors.a, f.a), (d.factors.b, f.b),
                          (d.factors.c, f.c), (d.state.vel_a, state.vel_a),
                          (d.state.vel_b, state.vel_b),
                          (d.state.vel_c, state.vel_c)):
            assert np.array_equal(got, want)
        assert d.state.step == state.step
        assert d.state.rng.bit_generator.state == \
            state.rng.bit_generator.state
        if tol > 0:
            # the tolerance, not the epoch budget, ended the fit
            assert state.step < epochs * t.dims[2]

    def test_fit_keeps_no_window(self):
        # the fit's (K, I, J) copy of the window is freed when it returns
        t = DenseTensor3(RNG.uniform(size=(40, 30, 50)))
        tracemalloc.start()
        try:
            d = decompose_stream_init(t, 2, OptimizerKind.NESGD,
                                      StreamOptions(epochs=2, seed=0))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert d.slices == []
        assert held < t.data.nbytes / 4


class TestWindowRmse:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_rmse(self, seed):
        rng = np.random.default_rng(seed)
        i_n, j_n, k_n = rng.integers(1, 12, size=3)
        rank = int(rng.integers(1, 6))
        t = DenseTensor3(rng.standard_normal((i_n, j_n, k_n)))
        f = KruskalFactors(rng.standard_normal((i_n, rank)),
                           rng.standard_normal((j_n, rank)),
                           rng.standard_normal((k_n, rank)))
        want = rmse(t, f)
        assert abs(window_rmse(t, f) - want) <= 1e-12 * want

    @pytest.mark.parametrize("seed", range(12))
    def test_exact_cp_tensor_reads_zero(self, seed):
        # a plain clamp at 0 reads about 1e-8 here for 5 of these 12 seeds
        rng = np.random.default_rng(seed)
        i_n, j_n, k_n = rng.integers(1, 9, size=3)
        rank = int(rng.integers(1, 5))
        f = KruskalFactors(rng.uniform(size=(i_n, rank)),
                           rng.standard_normal((j_n, rank)),
                           rng.uniform(size=(k_n, rank)))
        assert window_rmse(kruskal_reconstruct(f), f) == 0.0

    def test_zero_window_and_factors_read_zero(self):
        window = np.zeros((3, 4, 5))
        assert _window_rmse(window, 0.0, np.zeros((4, 2)), np.zeros((5, 2)),
                            np.zeros((3, 2))) == 0.0
