"""Location-change advisor: scores, probabilities, and event handling."""

import copy
from dataclasses import FrozenInstanceError, asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftwatch import (
    Action,
    AdvisorConfig,
    DenseTensor3,
    DivergedError,
    ImmobileError,
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
    add_sample,
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
from driftwatch import advisor
from driftwatch.advisor import Verdict, decide
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


def knn_reference(b, k):
    """``knn_score`` as first written: the distances in one expression,
    ``fill_diagonal``, ``np.sort`` and ``mean``."""
    sq = np.sum(b**2, axis=1)
    dist = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * (b @ b.T),
                              0.0))
    np.fill_diagonal(dist, np.inf)
    return np.sort(dist, axis=1)[:, :k].mean(axis=1)


class TestKnnScore:
    @given(st.integers(2, 20), st.integers(1, 4), st.integers(0, 2**32 - 1),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_equals_reference_formula_bit_for_bit(self, j_n, rank, seed,
                                                  data):
        b = np.random.default_rng(seed).standard_normal((j_n, rank))
        dups = data.draw(st.lists(st.integers(0, j_n - 1), max_size=3))
        b[dups] = b[-1]
        for k in range(1, j_n):
            assert np.array_equal(knn_score(b, k), knn_reference(b, k))

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

    @pytest.mark.parametrize("j_n", [3, 7, 12, 48, 120])
    def test_is_the_mean_of_the_moved_mask_as_a_float(self, j_n):
        rng = np.random.default_rng(j_n)
        b0 = rng.standard_normal((j_n, 2))
        prev, curr = self.snap_pair(b0, b0 + 0.05 * rng.standard_normal(
            (j_n, 2)), k=2)
        change = np.abs(curr.knn_scores - prev.knn_scores)
        for gamma in np.quantile(change, [0.1, 0.37, 0.5, 0.83]):
            p = environmental_probability(
                prev, curr, AdvisorConfig(k_neighbors=2, gamma_change=gamma))
            assert type(p) is float
            assert p.hex() == float(np.mean(change > gamma)).hex()

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
        g_adv, action = decide(-0.4, 0.95, cfg)
        assert g_adv == pytest.approx(0.4)
        assert action is Action.UPDATE_MODEL

    def test_no_flip_below_confidence(self):
        cfg = AdvisorConfig(confidence=0.9)
        assert decide(-0.4, 0.89, cfg) == (-0.4, Action.REPORT_ANOMALY)

    def test_positive_score_untouched(self):
        cfg = AdvisorConfig(confidence=0.9)
        assert decide(0.2, 1.0, cfg) == (0.2, Action.ACCEPT)

    @given(st.floats(-10, 10, allow_nan=False),
           st.floats(0, 1, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_magnitude_preserved(self, g, p):
        cfg = AdvisorConfig(confidence=0.9)
        out, _ = decide(g, p, cfg)
        assert abs(out) == abs(g)
        assert out >= g


class TestThresholdPolicy:
    def test_bands(self):
        cfg = AdvisorConfig(update_policy=UpdatePolicy.THRESHOLD,
                            threshold=-0.5)
        assert decide(0.1, 0.0, cfg) == (0.1, Action.ACCEPT)
        assert decide(-0.3, 0.0, cfg) == (-0.3, Action.UPDATE_MODEL)
        assert decide(-0.7, 1.0, cfg) == (-0.7, Action.REPORT_ANOMALY)

    def test_positive_threshold_rejected(self):
        cfg = AdvisorConfig(update_policy=UpdatePolicy.THRESHOLD)
        with pytest.raises(ValidationError):
            replace(cfg, threshold=0.5)


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

    def test_pipeline_rejects_k_not_below_j(self):
        state, _ = small_pipeline(UpdatePolicy.TENSOR_ADVISED)  # J = 5
        cfg = replace(state.config, k_neighbors=5)
        with pytest.raises(ValidationError, match="must be < J = 5"):
            PipelineState(state.decomp, state.model, state.snapshot, cfg)

    def test_frozen(self):
        cfg = AdvisorConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.threshold = 0.5


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


def window_slices(f_true):
    """The (K, I, J) window that ``small_pipeline`` fitted, as views."""
    return kruskal_reconstruct(f_true).data.transpose(2, 0, 1)


def advised_decision(g_raw, p_env, cfg):
    if g_raw < 0.0 and p_env >= cfg.confidence:
        return abs(g_raw)
    return g_raw


def baseline_threshold_policy(g_raw, threshold):
    if g_raw >= 0.0:
        return Action.ACCEPT
    if g_raw >= threshold:
        return Action.UPDATE_MODEL
    return Action.REPORT_ANOMALY


def branchy_process_event(state, slice_ij):
    """Reference for ``process_event``: one branch per policy, each with
    its own commit and its own verdict."""
    cfg = state.config
    t_idx = state.events_seen
    _, c_new = update_online(state.decomp, slice_ij)
    state.events_seen += 1
    curr = LocationSnapshot.capture(state.decomp.factors.b, cfg.k_neighbors)
    g_raw = advisor.decision_value(state.model, c_new)

    if g_raw >= 0.0:
        state.snapshot = curr
        return state, Verdict(t_idx, g_raw, 0.0, g_raw, Action.ACCEPT)

    p_env = environmental_probability(state.snapshot, curr, cfg)
    policy = cfg.update_policy
    if policy is UpdatePolicy.NONE:
        return state, Verdict(t_idx, g_raw, p_env, g_raw,
                              Action.REPORT_ANOMALY)
    if policy is UpdatePolicy.THRESHOLD:
        action = baseline_threshold_policy(g_raw, cfg.threshold)
        if action is Action.UPDATE_MODEL:
            advisor._incorporate(state, c_new)
            state.snapshot = curr
        return state, Verdict(t_idx, g_raw, p_env, g_raw, action)

    g_adv = advised_decision(g_raw, p_env, cfg)
    if g_adv >= 0.0:
        advisor._incorporate(state, c_new)
        state.snapshot = curr
        return state, Verdict(t_idx, g_raw, p_env, g_adv, Action.UPDATE_MODEL)
    return state, Verdict(t_idx, g_raw, p_env, g_adv, Action.REPORT_ANOMALY)


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
        np.testing.assert_array_equal(
            state.snapshot.knn_scores,
            knn_score(state.decomp.factors.b, state.config.k_neighbors))

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
        snap_knn = state.snapshot.knn_scores.copy()
        rng = np.random.default_rng(12)
        state, v = process_event(
            state, 40.0 * self.normal_slice(f_true, rng))
        assert v.action is Action.REPORT_ANOMALY
        np.testing.assert_array_equal(state.snapshot.knn_scores, snap_knn)

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
        # every negative event updates
        state.config = replace(state.config, threshold=-1e9)
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

    def test_migration_log_entries_are_asdict(self, monkeypatch):
        state, f_true = small_pipeline(UpdatePolicy.THRESHOLD)
        # every negative event updates
        state.config = replace(state.config, threshold=-1e9)
        returned = []

        def recording(model, x_c, on_event=None):
            model, events = add_sample(model, x_c)
            returned.extend(events)
            return model, events

        monkeypatch.setattr(advisor, "add_sample", recording)
        rng = np.random.default_rng(14)
        for scale in (3.0, 5.0, 8.0):
            state, _ = process_event(
                state, scale * self.normal_slice(f_true, rng))
        assert returned, "no insert migrated a point"
        assert state.migration_log == [asdict(ev) for ev in returned]
        for entry, ev in zip(state.migration_log, returned):
            assert list(entry) == list(asdict(ev))
            assert [type(v) for v in entry.values()] == \
                [type(v) for v in asdict(ev).values()]

    def test_immobile_insert_falls_back_to_batch_retrain(self, monkeypatch):
        state, f_true = small_pipeline(UpdatePolicy.THRESHOLD)
        # every negative event updates
        state.config = replace(state.config, threshold=-1e9)
        old = state.model
        rows = []

        def immobile(model, x_c, on_event=None):
            rows.append(x_c.copy())
            raise ImmobileError("forced")

        monkeypatch.setattr(advisor, "add_sample", immobile)
        rng = np.random.default_rng(14)
        for scale in (3.0, 5.0, 8.0):
            state, v = process_event(
                state, scale * self.normal_slice(f_true, rng))
            if v.action is Action.UPDATE_MODEL:
                break
        assert v.action is Action.UPDATE_MODEL
        assert state.retrain_fallbacks == 1
        assert state.migration_log == []
        batch = train_batch(np.vstack([old.x, rows[0]]), old.nu, old.kernel)
        np.testing.assert_array_equal(state.model.x, batch.x)
        np.testing.assert_array_equal(state.model.alpha, batch.alpha)
        assert state.model.rho == batch.rho

    @pytest.mark.parametrize("policy", list(UpdatePolicy))
    def test_matches_branchy_reference(self, policy):
        state, f_true = small_pipeline(policy)
        state.config = replace(state.config, threshold=-0.3)
        ref = copy.deepcopy(state)
        rng = np.random.default_rng(20)
        actions = set()
        for k in range(24):
            slice_ij = self.normal_slice(f_true, rng)
            if k % 4 == 1:
                slice_ij = 3.0 * slice_ij  # every location moves
            elif k % 4 == 3:
                slice_ij[:, 2] *= 8.0  # one location moves
            model, snap = state.model, state.snapshot
            ref_model, ref_snap = ref.model, ref.snapshot
            state, v = process_event(state, slice_ij)
            ref, want = branchy_process_event(ref, slice_ij)
            assert v == want
            assert (state.model is model) == (ref.model is ref_model)
            assert (state.snapshot is snap) == (ref.snapshot is ref_snap)
            actions.add(v.action)
        assert len(actions) == (2 if policy is UpdatePolicy.NONE else 3)
        np.testing.assert_array_equal(state.model.alpha, ref.model.alpha)
        np.testing.assert_array_equal(state.snapshot.knn_scores,
                                      ref.snapshot.knn_scores)
        assert state.migration_log == ref.migration_log

    @pytest.mark.parametrize("policy", list(UpdatePolicy))
    def test_nan_score_is_reported(self, policy, monkeypatch):
        # every location counts as moved and every negative score is
        # within the threshold, so only the NaN itself can report
        state, f_true = small_pipeline(policy, gamma=1e-12)
        state.config = replace(state.config, threshold=-1e9)
        model, snap = state.model, state.snapshot
        monkeypatch.setattr(advisor, "decision_value",
                            lambda m, x: float("nan"))
        state, v = process_event(
            state, self.normal_slice(f_true, np.random.default_rng(17)))
        assert v.p_env == 1.0
        assert v.action is Action.REPORT_ANOMALY
        assert state.model is model and state.snapshot is snap

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
        state, f_true = small_pipeline(UpdatePolicy.NONE)
        g = calibrate_gamma_change(state.decomp, window_slices(f_true), 2)
        assert g > 0.0

    def test_does_not_mutate_decomposition(self):
        state, f_true = small_pipeline(UpdatePolicy.NONE)
        before = copy.deepcopy(state.decomp.factors.b)
        calibrate_gamma_change(state.decomp, window_slices(f_true), 2)
        np.testing.assert_array_equal(state.decomp.factors.b, before)

    def test_leaves_optimizer_state_untouched(self):
        state, f_true = small_pipeline(UpdatePolicy.NONE)
        before = copy.deepcopy(state.decomp.state)
        calibrate_gamma_change(state.decomp, window_slices(f_true), 2)
        after = state.decomp.state
        assert after.step == before.step
        assert after.rng.bit_generator.state == before.rng.bit_generator.state
        for name in ("vel_a", "vel_b", "vel_c"):
            assert np.array_equal(getattr(after, name), getattr(before, name))

    def test_matches_replay_on_a_full_copy(self):
        # oracle: the last 50 window slices, contiguous copies, replayed on
        # a deep copy of the whole decomposition
        state, f_true = small_pipeline(UpdatePolicy.NONE)
        probe = copy.deepcopy(state.decomp)
        base = prev = knn_score(probe.factors.b, 2)
        changes = []
        for slice_ij in np.array(window_slices(f_true)[-50:]):
            update_online(probe, slice_ij)
            cur = knn_score(probe.factors.b, 2)
            changes.append(np.abs(cur - prev))
            prev = cur
        want = max(3.0 * float(np.median(np.concatenate(changes))),
                   0.05 * float(np.median(base)), 1e-9)
        assert calibrate_gamma_change(state.decomp, window_slices(f_true),
                                      2) == want
