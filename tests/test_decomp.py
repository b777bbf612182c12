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
    NesgdState,
    OptimizerKind,
    ShapeMismatchError,
    StreamDecomposition,
    StreamOptions,
    ValidationError,
    cp_gradient,
    decompose_stream_init,
    init_factors,
    khatri_rao,
    kruskal_reconstruct,
    rmse,
    sgd_sweep,
    unfold,
    update_online,
)
from driftwatch.decomp import RIDGE, _slice_gradients

RNG = np.random.default_rng(77)


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
            st0 = self._state(lr=lambda t: 0.0, perturb_sigma=0.0, l1_beta=0.0)
            f1, _ = sgd_sweep(self.t, self.f, st0, kind, 0)
            np.testing.assert_array_equal(f1.a, self.f.a)
            np.testing.assert_array_equal(f1.b, self.f.b)
            np.testing.assert_array_equal(f1.c, self.f.c)

    def test_nesgd_equals_sgd_when_disabled(self):
        kw = dict(friction=0.0, perturb_sigma=0.0, l1_beta=0.0,
                  lr=lambda t: 0.05)
        f_sgd, _ = sgd_sweep(self.t, self.f, self._state(**kw),
                             OptimizerKind.SGD, 1)
        f_ne, _ = sgd_sweep(self.t, self.f, self._state(**kw),
                            OptimizerKind.NESGD, 1)
        np.testing.assert_array_equal(f_sgd.a, f_ne.a)
        np.testing.assert_array_equal(f_sgd.b, f_ne.b)
        np.testing.assert_array_equal(f_sgd.c, f_ne.c)

    def test_momentum_accumulates_displacement(self):
        kw = dict(perturb_sigma=0.0, l1_beta=0.0, lr=lambda t: 0.01)
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
        kw = dict(friction=0.0, l1_beta=0.0, lr=lambda t: 0.05)
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
                  lr=lambda t: 0.01)
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
        st0 = self._state(friction=0.0, perturb_sigma=0.0, lr=lambda t: 1e9)
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
                  lr=lambda s: 0.02)
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
                             perturb_sigma=0.0, lr=lambda s: 4.0 / 30.0)

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
        state = NesgdState.zeros((i_n, j_n, 4), rank, lr=lambda s: 1e-3)
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

    def test_update_online_shape_check(self):
        t = self.make_window(k_n=5)
        d = decompose_stream_init(t, 2, OptimizerKind.NESGD,
                                  StreamOptions(epochs=2, seed=0))
        with pytest.raises(ShapeMismatchError):
            update_online(d, np.zeros((3, 3)))
