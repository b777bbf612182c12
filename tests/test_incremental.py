"""Single-sample insertion against batch retraining and linear-algebra oracles."""

import copy
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftwatch import (
    KernelSpec,
    OcsvmModel,
    ValidationError,
    add_sample,
    kernel_matrix,
    kkt_partition,
    median_pairwise_sigma,
    train_batch,
)
from driftwatch import incremental
from driftwatch.incremental import _expand, _rates, _shrink, build_system


def make_model(n=20, seed=0, nu=0.3, dim=2):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dim))
    return x, train_batch(x, nu, KernelSpec("rbf", median_pairwise_sigma(x)))


def assembled_q(kmat, s_order):
    s = len(s_order)
    q = np.zeros((s + 1, s + 1))
    q[0, 1:] = 1.0
    q[1:, 0] = 1.0
    q[1:, 1:] = kmat[np.ix_(s_order, s_order)]
    return q


def candidate_rates(m, x_c):
    """(sys, beta, gamma) for growing the coefficient of x_c, which is
    appended as the last row of the enlarged Gram matrix."""
    kmat = kernel_matrix(m.kernel, np.vstack([m.x, np.atleast_2d(x_c)]))
    s_idx, _, _ = kkt_partition(m)
    sys = build_system(kmat, s_idx)
    beta, gamma = _rates(sys, kmat, kmat[:, -1], 1.0)
    return sys, beta, gamma


class TestBorderedSystem:
    def test_single_member_closed_form(self):
        x, m = make_model(seed=1)
        kmat = kernel_matrix(m.kernel, m.x)
        sys1 = build_system(kmat, [3])
        k_ss = kmat[3, 3]
        np.testing.assert_allclose(
            sys1.q_inv, [[-k_ss, 1.0], [1.0, 0.0]], atol=1e-12
        )
        # single-member sensitivity: beta = (K_ss - K_sc, -1)
        beta, _ = _rates(sys1, kmat, kmat[:, 7], 1.0)
        k_sc = kernel_matrix(m.kernel, x[3:4], x[7:8])[0, 0]
        np.testing.assert_allclose(beta, [k_ss - k_sc, -1.0], atol=1e-12)

    def test_inverse_matches_dense_inverse(self):
        x, m = make_model(seed=2)
        s_idx, _, _ = kkt_partition(m)
        kmat = kernel_matrix(m.kernel, m.x)
        sys = build_system(kmat, s_idx)
        q = assembled_q(kmat, s_idx)
        np.testing.assert_allclose(sys.q_inv, np.linalg.inv(q), atol=1e-8)

    def test_multiply_back_gives_identity(self):
        x, m = make_model(seed=3)
        s_idx, _, _ = kkt_partition(m)
        kmat = kernel_matrix(m.kernel, m.x)
        sys = build_system(kmat, s_idx)
        q = assembled_q(kmat, s_idx)
        np.testing.assert_allclose(
            q @ sys.q_inv, np.eye(len(s_idx) + 1), atol=1e-8
        )

    def test_expand_then_shrink_round_trip(self):
        x, m = make_model(seed=4)
        s_idx, e_idx, r_idx = kkt_partition(m)
        kmat = kernel_matrix(m.kernel, m.x)
        sys = build_system(kmat, s_idx)
        extra = (e_idx + r_idx)[0]
        grown = _expand(sys, kmat, extra)
        assert grown.s_order == s_idx + [extra]
        back = _shrink(grown, kmat, extra)
        assert back.s_order == s_idx
        np.testing.assert_allclose(back.q_inv, sys.q_inv, atol=1e-8)

    def test_expand_matches_direct_build(self):
        x, m = make_model(seed=5)
        s_idx, e_idx, r_idx = kkt_partition(m)
        kmat = kernel_matrix(m.kernel, m.x)
        sys = build_system(kmat, s_idx)
        extra = (e_idx + r_idx)[-1]
        grown = _expand(sys, kmat, extra)
        direct = build_system(kmat, s_idx + [extra])
        np.testing.assert_allclose(grown.q_inv, direct.q_inv, atol=1e-8)


class TestSensitivities:
    def test_beta_margin_entries_sum_to_minus_one(self):
        x, m = make_model(seed=6)
        _, beta, _ = candidate_rates(m, np.array([0.3, -0.2]))
        assert beta[1:].sum() == pytest.approx(-1.0, abs=1e-9)

    def test_margin_decision_values_stay_pinned(self):
        # moving (alpha_S, rho) along beta keeps every margin g at zero
        x, m = make_model(seed=7)
        x_c = np.array([0.5, 0.1])
        sys, beta, _ = candidate_rates(m, x_c)
        delta = 1e-4
        probe = copy.deepcopy(m)
        kmat = kernel_matrix(probe.kernel, probe.x)
        k_col = kernel_matrix(m.kernel, m.x, np.atleast_2d(x_c))[:, 0]
        f = kmat @ probe.alpha + delta * k_col
        alpha_s = probe.alpha[sys.s_order] + delta * beta[1:]
        rho = probe.rho - delta * beta[0]
        g_margin = (f[sys.s_order]
                    + kmat[np.ix_(sys.s_order, sys.s_order)]
                    @ (alpha_s - probe.alpha[sys.s_order]) - rho)
        g_before = (kmat @ probe.alpha - probe.rho)[sys.s_order]
        # the step must not move the margin values at all
        np.testing.assert_allclose(g_margin, g_before, atol=1e-10)

    def test_gamma_finite_difference(self):
        x, m = make_model(seed=8)
        _, e_idx, r_idx = kkt_partition(m)
        x_c = np.array([0.4, 0.9])
        sys, beta, gamma = candidate_rates(m, x_c)
        others = e_idx + r_idx
        delta = 1e-6
        k_col = kernel_matrix(m.kernel, np.vstack([m.x, x_c]),
                              np.atleast_2d(x_c))[:, 0]
        kmat = kernel_matrix(m.kernel, m.x)
        for i in others:
            g0 = kmat[i] @ m.alpha - m.rho
            g1 = (kmat[i] @ m.alpha
                  + kmat[i, sys.s_order] @ (delta * beta[1:])
                  + delta * k_col[i] - (m.rho - delta * beta[0]))
            assert gamma[i] == pytest.approx((g1 - g0) / delta, abs=1e-6)

    def test_candidate_gamma_is_last(self):
        x, m = make_model(seed=9)
        x_c = np.array([-0.3, 0.7])
        _, _, gamma = candidate_rates(m, x_c)
        assert gamma.shape == (m.n + 1,)
        # curvature of the candidate against itself is nonnegative
        assert gamma[-1] >= -1e-9


class TestAddSample:
    def probe_grid(self):
        g = np.linspace(-2.5, 2.5, 7)
        return np.array([[a, b] for a in g for b in g])

    @pytest.mark.parametrize("seed,nu", [(0, 0.2), (1, 0.35), (2, 0.5)])
    def test_matches_batch_retrain(self, seed, nu):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((25, 2))
        kernel = KernelSpec("rbf", median_pairwise_sigma(x))
        m = train_batch(x[:-1], nu, kernel)
        inc, _ = add_sample(m, x[-1])
        batch = train_batch(x, nu, kernel)
        probes = self.probe_grid()
        np.testing.assert_allclose(
            inc.decision_values(probes), batch.decision_values(probes),
            atol=1e-5,
        )

    def test_result_satisfies_kkt(self):
        x, m = make_model(seed=10)
        out, _ = add_sample(m, np.array([0.2, -0.4]))
        kkt_partition(out)  # must not raise
        assert out.n == m.n + 1
        assert out.alpha.sum() == pytest.approx(1.0, abs=1e-9)

    def test_alpha_sum_preserved_at_every_event(self):
        x, m = make_model(seed=11)
        sums = []
        add_sample(m, np.array([1.5, 1.5]),
                   on_event=lambda w: sums.append(w.alpha.sum()))
        assert sums, "insertion produced no migration events"
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_far_outlier_lands_at_bound(self):
        x, m = make_model(seed=12)
        far = np.array([50.0, 50.0])
        out, _ = add_sample(m, far)
        c_new = 1.0 / (out.nu * out.n)
        assert out.alpha[-1] == pytest.approx(c_new, abs=1e-9)
        assert out.decision_values(far[None, :])[0] < 0

    def test_interior_point_keeps_zero_alpha(self):
        # a point already classified well inside needs no coefficient
        rng = np.random.default_rng(13)
        tight = 0.05 * rng.standard_normal((20, 2))
        m = train_batch(tight, 0.3, KernelSpec("rbf", 1.0))
        out, _ = add_sample(m, np.zeros(2))
        assert out.decision_values(np.zeros((1, 2)))[0] > 0
        kkt_partition(out)

    def test_duplicate_of_training_point(self):
        x, m = make_model(seed=14)
        out, _ = add_sample(m, x[0])
        kkt_partition(out)
        assert out.alpha.sum() == pytest.approx(1.0, abs=1e-9)

    def test_event_records_are_serializable(self):
        x, m = make_model(seed=15)
        _, events = add_sample(m, np.array([2.0, 2.0]))
        for ev in events:
            d = asdict(ev)
            assert set(d) == {"case_id", "index", "from_set", "to_set",
                              "delta_alpha_c"}
            assert d["case_id"] in (1, 2, 3, 4, 5)

    def test_result_has_only_constructor_fields(self):
        x, m = make_model(seed=18)
        out, _ = add_sample(m, np.array([1.0, -1.0]))
        fresh = OcsvmModel(out.x, out.alpha, out.rho, out.nu, out.kernel)
        assert set(vars(out)) == set(vars(fresh))

    def test_rejects_nonfinite_candidate(self):
        x, m = make_model(seed=16)
        with pytest.raises(ValidationError):
            add_sample(m, np.array([np.nan, 0.0]))

    def test_sequential_insertions_track_batch(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((30, 2))
        kernel = KernelSpec("rbf", median_pairwise_sigma(x))
        m = train_batch(x[:24], 0.3, kernel)
        for k in range(24, 30):
            m, _ = add_sample(m, x[k])
        batch = train_batch(x, 0.3, kernel)
        probes = self.probe_grid()
        np.testing.assert_allclose(
            m.decision_values(probes), batch.decision_values(probes),
            atol=1e-5,
        )


class TestKernelColumnsOnDemand:
    """An insert computes kernel columns only for the points its walk
    reads: the nonzero alphas, the candidate and the recruits into S."""

    def test_kernel_budget(self, monkeypatch):
        x, m = make_model(n=240, seed=19, nu=0.05)
        s_idx, e_idx, _ = kkt_partition(m)
        entries = []

        def counting(*args):
            out = kernel_matrix(*args)
            entries.append(out.size)
            return out

        monkeypatch.setattr(incremental, "kernel_matrix", counting)
        _, events = add_sample(m, np.array([2.5, 2.5]))
        assert events, "insertion produced no migration events"
        budget = (m.n + 1) * (len(s_idx) + len(e_idx) + len(events) + 2)
        assert sum(entries) <= budget

    def drifting_stream(self):
        """A model on 40 points and 30 drifted points to insert in turn."""
        rng = np.random.default_rng(20)
        x = np.vstack([rng.standard_normal((40, 2)),
                       rng.standard_normal((30, 2)) * 1.3 + 0.8])
        kernel = KernelSpec("rbf", median_pairwise_sigma(x[:40]))
        return x, kernel, train_batch(x[:40], 0.2, kernel)

    def test_read_columns_are_filled_and_exact(self):
        x, _, m = self.drifting_stream()
        checked = []

        def check(w):
            needed = set(w.s_set) | set(w.e_set) | {w.cand}
            assert all(w.filled[i] for i in needed)
            cols = np.flatnonzero(w.filled)
            np.testing.assert_allclose(
                w.kmat[:, cols], kernel_matrix(w.kernel, w.x)[:, cols],
                rtol=0, atol=1e-12)
            checked.append(len(cols) < len(w.x))

        for x_c in x[40:]:
            m, _ = add_sample(m, x_c, on_event=check)
        assert checked, "insertions produced no migration events"
        assert all(checked)  # never the whole Gram matrix

    def test_unfilled_columns_are_never_read(self, monkeypatch):
        # poison every fresh buffer with NaN: a read of a column that was
        # never filled spreads NaN into the model and fails the checks
        x, kernel, m = self.drifting_stream()
        with monkeypatch.context() as mp:
            mp.setattr(incremental.np, "empty",
                       lambda shape, dtype=float, order="C":
                       np.full(shape, np.nan, dtype=dtype, order=order))
            for x_c in x[40:]:
                m, _ = add_sample(m, x_c)
        kkt_partition(m)
        batch = train_batch(x, 0.2, kernel)
        probes = np.random.default_rng(21).standard_normal((25, 2))
        np.testing.assert_allclose(
            m.decision_values(probes), batch.decision_values(probes),
            atol=1e-5,
        )


class TestAddSampleFuzz:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_insertion_matches_batch(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(15, 35))
        nu = float(rng.uniform(0.15, 0.6))
        if nu * n < 1.2:
            nu = 1.5 / n
        x = rng.standard_normal((n + 1, 2))
        kernel = KernelSpec("rbf", median_pairwise_sigma(x[:n]))
        m = train_batch(x[:n], nu, kernel)
        inc, _ = add_sample(m, x[n])
        batch = train_batch(x, nu, kernel)
        probes = rng.standard_normal((15, 2))
        np.testing.assert_allclose(
            inc.decision_values(probes), batch.decision_values(probes),
            atol=1e-5,
        )
        kkt_partition(inc)
