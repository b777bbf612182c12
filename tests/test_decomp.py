"""Stochastic-optimizer behavior, including a finite-difference oracle
for the per-mode descent direction."""

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
    rmse,
    update_online,
)
from driftwatch.cli import run_benchmark
from driftwatch.decomp import (
    RIDGE,
    _apply_step,
    _slice_gradients,
    _window_rmse,
    cp_gradient,
)
from driftwatch.tensor import unfold

RNG = np.random.default_rng(77)


def sgd_sweep(t, f, state, kind, sample_k):
    """Reference step: one ``_apply_step`` driven by frontal slice
    ``sample_k``, on a fresh copy of C and factors validated again."""
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


class TestCpGradient:
    def test_zero_residual_gives_zero(self):
        f = init_factors((3, 4, 2), 2, seed=3)
        t = kruskal_reconstruct(f)
        for mode in (1, 2, 3):
            g = cp_gradient(unfold(t, mode), f, mode)
            np.testing.assert_allclose(g, 0.0, atol=1e-10)

    def test_scalar_case(self):
        f = KruskalFactors(np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)))
        t = DenseTensor3(np.full((1, 1, 1), 3.0))
        g = cp_gradient(unfold(t, 1), f, 1)
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
        analytic = cp_gradient(unfold(t, mode), f, mode)
        numeric = fd_direction(t, f, mode)
        err = np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-12)
        assert err <= 1e-5

    def test_shape_mismatch(self):
        f = init_factors((3, 4, 2), 2, seed=0)
        with pytest.raises(ShapeMismatchError):
            cp_gradient(np.zeros((3, 7)), f, 1)

    def test_slice_gradients_match_cp_gradient(self):
        # the per-slice directions the optimizers use: summed over slices
        # they are the mode-1 and mode-2 directions, and slice k's C row is
        # row k of the mode-3 direction
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(20):
            dims = tuple(int(rng.integers(2, hi + 1)) for hi in (6, 5, 4))
            rank = int(rng.integers(1, 4))
            f = KruskalFactors(
                rng.standard_normal((dims[0], rank)),
                rng.standard_normal((dims[1], rank)),
                rng.standard_normal((dims[2], rank)),
            )
            t = DenseTensor3(rng.standard_normal(dims))
            parts = [_slice_gradients(t.slice_at(k), f.a, f.b, f.c[k], True)
                     for k in range(dims[2])]
            got = (sum(p[0] for p in parts), sum(p[1] for p in parts),
                   np.array([p[2] for p in parts]))
            for mode in (1, 2, 3):
                want = cp_gradient(unfold(t, mode), f, mode)
                scale = max(np.abs(want).max(), 1.0)
                worst = max(worst, np.abs(got[mode - 1] - want).max() / scale)
        assert worst <= 1e-12


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
        assert len(d.slices) == t.dims[2]

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


def closed_form_rmse(t, f):
    window = np.moveaxis(t.data, 2, 0)
    return _window_rmse(window, np.vdot(window, window), f.a, f.b, f.c)


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

    def test_slices_are_views_of_one_copy(self):
        t = DenseTensor3(RNG.uniform(size=(4, 6, 9)))
        d = decompose_stream_init(t, 2, OptimizerKind.NESGD,
                                  StreamOptions(epochs=2, seed=0))
        assert len(d.slices) == t.dims[2]
        for k, s in enumerate(d.slices):
            assert np.array_equal(s, t.slice_at(k))
        base = d.slices[0].base
        assert base is not None
        assert all(s.base is base for s in d.slices)


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
        assert abs(closed_form_rmse(t, f) - want) <= 1e-12 * want

    @pytest.mark.parametrize("seed", range(12))
    def test_exact_cp_tensor_reads_zero(self, seed):
        # a plain clamp at 0 reads about 1e-8 here for 5 of these 12 seeds
        rng = np.random.default_rng(seed)
        i_n, j_n, k_n = rng.integers(1, 9, size=3)
        rank = int(rng.integers(1, 5))
        f = KruskalFactors(rng.uniform(size=(i_n, rank)),
                           rng.standard_normal((j_n, rank)),
                           rng.uniform(size=(k_n, rank)))
        assert closed_form_rmse(kruskal_reconstruct(f), f) == 0.0

    def test_zero_window_and_factors_read_zero(self):
        window = np.zeros((3, 4, 5))
        assert _window_rmse(window, 0.0, np.zeros((4, 2)), np.zeros((5, 2)),
                            np.zeros((3, 2))) == 0.0
