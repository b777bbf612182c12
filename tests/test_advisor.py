"""Location-change advisor: scores, probabilities, and event handling."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftwatch import (
    Action,
    AdvisorConfig,
    DenseTensor3,
    DivergedError,
    KernelSpec,
    LocationSnapshot,
    LrSchedule,
    OptimizerKind,
    PipelineState,
    ShapeMismatchError,
    StreamOptions,
    TooFewLocationsError,
    UpdatePolicy,
    ValidationError,
    calibrate_gamma_change,
    decompose_stream_init,
    environmental_probability,
    knn_score,
    kruskal_reconstruct,
    median_pairwise_sigma,
    process_event,
    train_batch,
    update_online,
)
from driftwatch.advisor import advised_decision, baseline_threshold_policy
from driftwatch.decomp import KruskalFactors


def knn_oracle(b, k):
    b = np.asarray(b, dtype=np.float64)
    out = []
    for j in range(b.shape[0]):
        dists = sorted(
            np.linalg.norm(b[j] - b[i]) for i in range(b.shape[0]) if i != j
        )
        out.append(np.mean(dists[:k]))
    return np.array(out)


class TestKnnScore:
    def test_collinear_example_k1(self):
        b = np.array([[0.0], [1.0], [3.0]])
        np.testing.assert_allclose(knn_score(b, 1), [1.0, 1.0, 2.0])

    def test_collinear_example_k2(self):
        b = np.array([[0.0], [1.0], [3.0]])
        np.testing.assert_allclose(knn_score(b, 2), [2.0, 1.5, 2.5])

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((12, 3))
        for k in (1, 3, 5, 11):
            np.testing.assert_allclose(knn_score(b, k), knn_oracle(b, k),
                                       atol=1e-12)

    def test_k_too_large(self):
        with pytest.raises(ValidationError):
            knn_score(np.zeros((4, 2)), 4)

    def test_too_few_rows(self):
        with pytest.raises(TooFewLocationsError):
            knn_score(np.zeros((1, 2)), 1)

    def test_translation_invariant(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal((8, 2))
        np.testing.assert_allclose(knn_score(b, 3), knn_score(b + 7.5, 3),
                                   atol=1e-9)


class TestEnvironmentalProbability:
    def snap_pair(self, b0, b1, k=3):
        return (LocationSnapshot.capture(b0, k),
                LocationSnapshot.capture(b1, k))

    def test_no_change_is_zero(self):
        rng = np.random.default_rng(3)
        b = rng.standard_normal((12, 2))
        prev, curr = self.snap_pair(b, b.copy())
        cfg = AdvisorConfig(gamma_change=1e-3)
        assert environmental_probability(prev, curr, cfg) == 0.0

    def test_single_moved_location_is_one_twelfth(self):
        b0 = np.column_stack([np.arange(12.0), np.zeros(12)])
        b1 = b0.copy()
        b1[4, 1] += 5.0  # isolate one row; its knn score alone moves
        prev, curr = self.snap_pair(b0, b1, k=1)
        cfg = AdvisorConfig(k_neighbors=1, gamma_change=1.0)
        p = environmental_probability(prev, curr, cfg)
        assert p == pytest.approx(1.0 / 12.0)

    def test_global_expansion_is_one(self):
        rng = np.random.default_rng(4)
        b0 = rng.standard_normal((10, 2))
        prev, curr = self.snap_pair(b0, 2.0 * b0)
        cfg = AdvisorConfig(gamma_change=1e-6)
        assert environmental_probability(prev, curr, cfg) == 1.0

    def test_shape_mismatch(self):
        prev = LocationSnapshot.capture(np.zeros((5, 2)), 2)
        curr = LocationSnapshot.capture(np.zeros((6, 2)), 2)
        with pytest.raises(ShapeMismatchError):
            environmental_probability(prev, curr, AdvisorConfig())

    def test_row_permutation_invariant(self):
        # relabeling locations identically in both snapshots keeps p fixed
        rng = np.random.default_rng(5)
        b0 = rng.standard_normal((12, 2))
        b1 = b0 + 0.01 * rng.standard_normal((12, 2))
        perm = rng.permutation(12)
        cfg = AdvisorConfig(gamma_change=5e-3)
        p_ref = environmental_probability(*self.snap_pair(b0, b1), cfg)
        p_perm = environmental_probability(
            *self.snap_pair(b0[perm], b1[perm]), cfg)
        assert p_perm == pytest.approx(p_ref)

    def test_rotation_invariant(self):
        # knn scores depend on row distances only, so a common orthogonal
        # rotation of the factor columns cannot change the probability
        rng = np.random.default_rng(6)
        b0 = rng.standard_normal((10, 3))
        b1 = b0 + 0.02 * rng.standard_normal((10, 3))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        cfg = AdvisorConfig(gamma_change=1e-2)
        p_ref = environmental_probability(*self.snap_pair(b0, b1), cfg)
        p_rot = environmental_probability(*self.snap_pair(b0 @ q, b1 @ q), cfg)
        assert p_rot == pytest.approx(p_ref)


class TestAdvisedDecision:
    def test_flip_when_confident(self):
        cfg = AdvisorConfig(confidence=0.9)
        assert advised_decision(-0.4, 0.95, cfg) == pytest.approx(0.4)

    def test_no_flip_below_confidence(self):
        cfg = AdvisorConfig(confidence=0.9)
        assert advised_decision(-0.4, 0.89, cfg) == -0.4

    def test_positive_score_untouched(self):
        cfg = AdvisorConfig(confidence=0.9)
        assert advised_decision(0.2, 1.0, cfg) == 0.2

    @given(st.floats(-10, 10, allow_nan=False),
           st.floats(0, 1, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_magnitude_preserved(self, g, p):
        cfg = AdvisorConfig(confidence=0.9)
        out = advised_decision(g, p, cfg)
        assert abs(out) == abs(g)
        assert out >= g


class TestThresholdPolicy:
    def test_bands(self):
        assert baseline_threshold_policy(0.1, -0.5) is Action.ACCEPT
        assert baseline_threshold_policy(-0.3, -0.5) is Action.UPDATE_MODEL
        assert baseline_threshold_policy(-0.7, -0.5) is Action.REPORT_ANOMALY

    def test_positive_threshold_rejected(self):
        with pytest.raises(ValidationError):
            baseline_threshold_policy(-0.1, 0.5)


class TestConfigValidation:
    def test_bad_gamma(self):
        with pytest.raises(ValidationError):
            AdvisorConfig(gamma_change=0.0)

    def test_bad_confidence(self):
        with pytest.raises(ValidationError):
            AdvisorConfig(confidence=1.5)

    def test_bad_k(self):
        with pytest.raises(ValidationError):
            AdvisorConfig(k_neighbors=0)


def small_pipeline(policy, seed=0, gamma=1e-3):
    rng = np.random.default_rng(seed)
    f_true = KruskalFactors(
        rng.uniform(0.5, 1.5, size=(6, 2)),
        rng.uniform(0.5, 1.5, size=(5, 2)),
        rng.uniform(0.5, 1.5, size=(40, 2)),
    )
    t = kruskal_reconstruct(f_true)
    # data entries are O(1) here, so the dims-scaled default step is too hot
    d = decompose_stream_init(t, 2, OptimizerKind.NESGD,
                              StreamOptions(epochs=120, seed=0,
                                            lr=LrSchedule(0.03, 0.0)))
    sigma = median_pairwise_sigma(d.factors.c)
    m = train_batch(d.factors.c, 0.2, KernelSpec("rbf", sigma))
    cfg = AdvisorConfig(k_neighbors=2, gamma_change=gamma,
                        update_policy=policy)
    return PipelineState.start(d, m, cfg), f_true


class TestProcessEvent:
    def normal_slice(self, f_true, rng):
        c = rng.uniform(0.5, 1.5, size=2)
        return (f_true.a * c) @ f_true.b.T

    def test_accept_refreshes_snapshot(self):
        state, f_true = small_pipeline(UpdatePolicy.TENSOR_ADVISED)
        rng = np.random.default_rng(10)
        # in-distribution slices can still score mildly negative under a
        # nu=0.2 model, so scan for the first accepted one
        for _ in range(20):
            state, v = process_event(state, self.normal_slice(f_true, rng))
            if v.action is Action.ACCEPT:
                break
        assert v.action is Action.ACCEPT
        np.testing.assert_array_equal(state.snapshot.b_matrix,
                                      state.decomp.factors.b)

    def test_none_policy_never_updates_model(self):
        state, f_true = small_pipeline(UpdatePolicy.NONE)
        alpha0 = state.model.alpha.copy()
        rho0 = state.model.rho
        rng = np.random.default_rng(11)
        for scale in (1.0, 30.0, 1.0, 50.0):
            state, v = process_event(
                state, scale * self.normal_slice(f_true, rng))
            if scale > 1.0:
                assert v.action is Action.REPORT_ANOMALY
        np.testing.assert_array_equal(state.model.alpha, alpha0)
        assert state.model.rho == rho0

    def test_report_leaves_snapshot_untouched(self):
        state, f_true = small_pipeline(UpdatePolicy.TENSOR_ADVISED,
                                       gamma=1e6)  # nothing counts as moved
        snap_b = state.snapshot.b_matrix.copy()
        rng = np.random.default_rng(12)
        state, v = process_event(
            state, 40.0 * self.normal_slice(f_true, rng))
        assert v.action is Action.REPORT_ANOMALY
        np.testing.assert_array_equal(state.snapshot.b_matrix, snap_b)

    def test_verdict_fields_consistent(self):
        state, f_true = small_pipeline(UpdatePolicy.TENSOR_ADVISED)
        rng = np.random.default_rng(13)
        for i, scale in enumerate((1.0, 25.0, 1.0)):
            state, v = process_event(
                state, scale * self.normal_slice(f_true, rng))
            assert v.time_index == i
            assert 0.0 <= v.p_env <= 1.0
            assert abs(v.g_advised) == pytest.approx(abs(v.g_raw))
            if v.action is Action.ACCEPT:
                assert v.g_raw >= 0.0
            else:
                assert v.g_raw < 0.0

    def test_update_grows_model(self):
        state, f_true = small_pipeline(UpdatePolicy.THRESHOLD)
        state.config.threshold = -1e9  # every negative event updates
        n0 = state.model.n
        rng = np.random.default_rng(14)
        updates = 0
        for scale in (3.0, 5.0, 8.0):
            state, v = process_event(
                state, scale * self.normal_slice(f_true, rng))
            if v.action is Action.UPDATE_MODEL:
                updates += 1
        assert state.model.n == n0 + updates
        assert updates > 0

    def test_events_seen_counts_everything(self):
        state, f_true = small_pipeline(UpdatePolicy.NONE)
        rng = np.random.default_rng(15)
        for _ in range(5):
            state, _ = process_event(state, self.normal_slice(f_true, rng))
        assert state.events_seen == 5

    def assert_matches_clean_copy(self, state, clean, f_true, rng):
        """20 good slices give ``state`` the verdicts of ``clean``."""
        actions = set()
        for k in range(20):
            slice_ij = (1.0, 3.0, 25.0)[k % 3] * self.normal_slice(f_true, rng)
            state, v = process_event(state, slice_ij)
            clean, expected = process_event(clean, slice_ij)
            assert v == expected
            actions.add(v.action)
        assert len(actions) > 1

    def test_nonfinite_slice_leaves_state_untouched(self):
        state, f_true = small_pipeline(UpdatePolicy.TENSOR_ADVISED)
        clean = copy.deepcopy(state)
        rng = np.random.default_rng(16)
        bad = self.normal_slice(f_true, rng)
        bad[1, 2] = np.nan
        with pytest.raises(ValidationError):
            process_event(state, bad)
        self.assert_matches_clean_copy(state, clean, f_true, rng)

    def test_overflowing_slice_leaves_state_untouched(self):
        # finite input whose step overflows: the velocities and the noise
        # generator must come out as they went in
        state, f_true = small_pipeline(UpdatePolicy.TENSOR_ADVISED)
        clean = copy.deepcopy(state)
        rng = np.random.default_rng(16)
        bad = 1e200 * self.normal_slice(f_true, rng)
        with pytest.raises(DivergedError), np.errstate(over="ignore"):
            process_event(state, bad)
        assert state.events_seen == 0
        self.assert_matches_clean_copy(state, clean, f_true, rng)


class TestCalibration:
    def test_returns_positive_threshold(self):
        state, _ = small_pipeline(UpdatePolicy.NONE)
        g = calibrate_gamma_change(state.decomp, 2)
        assert g > 0.0

    def test_does_not_mutate_decomposition(self):
        state, _ = small_pipeline(UpdatePolicy.NONE)
        before = copy.deepcopy(state.decomp.factors.b)
        calibrate_gamma_change(state.decomp, 2)
        np.testing.assert_array_equal(state.decomp.factors.b, before)

    def test_leaves_optimizer_state_untouched(self):
        state, _ = small_pipeline(UpdatePolicy.NONE)
        before = copy.deepcopy(state.decomp.state)
        calibrate_gamma_change(state.decomp, 2)
        after = state.decomp.state
        assert after.step == before.step
        assert after.rng.bit_generator.state == before.rng.bit_generator.state
        for name in ("vel_a", "vel_b", "vel_c"):
            assert np.array_equal(getattr(after, name), getattr(before, name))

    def test_matches_replay_on_a_full_copy(self):
        # oracle: the last 50 window slices replayed on a deep copy of the
        # whole decomposition, slices included
        state, _ = small_pipeline(UpdatePolicy.NONE)
        probe = copy.deepcopy(state.decomp)
        base = prev = knn_score(probe.factors.b, 2)
        changes = []
        for slice_ij in probe.slices[-50:]:
            update_online(probe, slice_ij)
            cur = knn_score(probe.factors.b, 2)
            changes.append(np.abs(cur - prev))
            prev = cur
        want = max(3.0 * float(np.median(np.concatenate(changes))),
                   0.05 * float(np.median(base)), 1e-9)
        assert calibrate_gamma_change(state.decomp, 2) == want
