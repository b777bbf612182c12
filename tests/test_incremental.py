"""Single-sample insertion against batch retraining and linear-algebra oracles."""

import copy
import math
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftwatch import (
    ImmobileError,
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
from driftwatch.incremental import ZERO_STEP, _next_event, _rates, _Working


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
    """(s_idx, beta, gamma) for growing the coefficient of x_c, which is
    appended as the last row of the enlarged Gram matrix."""
    kmat = kernel_matrix(m.kernel, np.vstack([m.x, np.atleast_2d(x_c)]))
    s_idx, _, _ = kkt_partition(m)
    beta, gamma = _rates(kmat, s_idx, kmat[:, -1], 1.0)
    return s_idx, beta, gamma


class TestBorderedSystem:
    """The margin system Q = [[0, 1^T], [1, K_SS]] that ``_rates`` solves."""

    def test_single_member_closed_form(self):
        x, m = make_model(seed=1)
        kmat = kernel_matrix(m.kernel, m.x)
        k_ss = kmat[3, 3]
        # single-member sensitivity: beta = (K_ss - K_sc, -1)
        beta, _ = _rates(kmat, [3], kmat[:, 7], 1.0)
        k_sc = kernel_matrix(m.kernel, x[3:4], x[7:8])[0, 0]
        np.testing.assert_allclose(beta, [k_ss - k_sc, -1.0], atol=1e-12)

    def test_multiply_back_gives_minus_drive(self):
        x, m = make_model(seed=3)
        x_c = np.array([0.6, -0.3])
        kmat = kernel_matrix(m.kernel, np.vstack([m.x, x_c]))
        s_idx, _, _ = kkt_partition(m)
        assert len(s_idx) >= 2
        beta, _ = _rates(kmat, s_idx, kmat[:, -1], 1.0)
        eta = np.concatenate(([1.0], kmat[s_idx, -1]))
        np.testing.assert_allclose(assembled_q(kmat, s_idx) @ beta, -eta,
                                   atol=1e-8)

    def test_identical_rows_raise_immobile(self):
        x, m = make_model(seed=2)
        x = np.vstack([m.x, m.x[5]])  # row 20 repeats row 5
        kmat = kernel_matrix(m.kernel, x)
        with pytest.raises(ImmobileError):
            _rates(kmat, [2, 5, 20], kmat[:, 9], 1.0)


class TestSensitivities:
    def test_beta_margin_entries_sum_to_minus_one(self):
        x, m = make_model(seed=6)
        _, beta, _ = candidate_rates(m, np.array([0.3, -0.2]))
        assert beta[1:].sum() == pytest.approx(-1.0, abs=1e-9)

    def test_margin_decision_values_stay_pinned(self):
        # moving (alpha_S, rho) along beta keeps every margin g at zero
        x, m = make_model(seed=7)
        x_c = np.array([0.5, 0.1])
        s_idx, beta, _ = candidate_rates(m, x_c)
        delta = 1e-4
        probe = copy.deepcopy(m)
        kmat = kernel_matrix(probe.kernel, probe.x)
        k_col = kernel_matrix(m.kernel, m.x, np.atleast_2d(x_c))[:, 0]
        f = kmat @ probe.alpha + delta * k_col
        alpha_s = probe.alpha[s_idx] + delta * beta[1:]
        rho = probe.rho - delta * beta[0]
        g_margin = (f[s_idx]
                    + kmat[np.ix_(s_idx, s_idx)]
                    @ (alpha_s - probe.alpha[s_idx]) - rho)
        g_before = (kmat @ probe.alpha - probe.rho)[s_idx]
        # the step must not move the margin values at all
        np.testing.assert_allclose(g_margin, g_before, atol=1e-10)

    def test_gamma_finite_difference(self):
        x, m = make_model(seed=8)
        _, e_idx, r_idx = kkt_partition(m)
        x_c = np.array([0.4, 0.9])
        s_idx, beta, gamma = candidate_rates(m, x_c)
        others = e_idx + r_idx
        delta = 1e-6
        k_col = kernel_matrix(m.kernel, np.vstack([m.x, x_c]),
                              np.atleast_2d(x_c))[:, 0]
        kmat = kernel_matrix(m.kernel, m.x)
        for i in others:
            g0 = kmat[i] @ m.alpha - m.rho
            g1 = (kmat[i] @ m.alpha
                  + kmat[i, s_idx] @ (delta * beta[1:])
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
        out, events = add_sample(m, far)
        c_new = 1.0 / (out.nu * out.n)
        assert out.alpha[-1] == pytest.approx(c_new, abs=1e-9)
        assert out.decision_values(far[None, :])[0] < 0
        last = events[-1]
        assert (last.case_id, last.index, last.from_set, last.to_set) == \
            (5, m.n, "candidate", "E")

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


class TestCandidateSet:
    def test_candidate_in_rv_holds_alpha_only_while_growing(self):
        # the trials of acceptance test A3: at every event, a candidate in
        # Rv with alpha_c > 0 is still growing, so g_c < 0
        rng_master = np.random.default_rng(2026)
        g_growing, recruited = [], []

        def on_event(w):
            if w.r_mask[w.cand] and w.alpha[w.cand] > 0:
                g_growing.append(w.g()[w.cand])

        for _ in range(50):
            rng = np.random.default_rng(int(rng_master.integers(1 << 31)))
            n = int(rng.integers(20, 61))
            nu = float(rng.uniform(0.15, 0.6))
            if nu * (n - 5) < 1.5:
                nu = 2.0 / (n - 5)
            x = rng.standard_normal((n, 2))
            kernel = KernelSpec("rbf", median_pairwise_sigma(x))
            m = train_batch(x[: n - 5], nu, kernel)
            for k in range(n - 5, n):
                m, events = add_sample(m, x[k], on_event=on_event)
                recruited += [ev for ev in events if ev.case_id == 3
                              and ev.from_set == "candidate"]
        assert g_growing, "no candidate grew"
        assert max(g_growing) < 0
        assert recruited, "no candidate was recruited into an empty S"


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


class TestBookkeeping:
    """After every migration S, E and Rv are disjoint and together hold
    every row of the grown training set, also on walks that end in
    ImmobileError."""

    @staticmethod
    def walk(seed, twin):
        """Insert into a seeded model a fresh point or an exact twin of a
        training row; returns (raised ImmobileError, migrations checked)."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(15, 40))
        nu = float(rng.uniform(0.15, 0.6))
        x = rng.standard_normal((n, 2))
        m = train_batch(x, nu, KernelSpec("rbf", median_pairwise_sigma(x)))
        x_c = x[int(rng.integers(n))] if twin else 1.5 * rng.standard_normal(2)
        checked = []

        def check(w):
            rows = w.s_set + w.e_set + np.flatnonzero(w.r_mask).tolist()
            assert sorted(rows) == list(range(n + 1))
            checked.append(w)

        try:
            add_sample(m, x_c, on_event=check)
        except ImmobileError:
            return True, len(checked)
        return False, len(checked)

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_sets_partition_the_rows(self, seed, twin):
        self.walk(seed, twin)

    @pytest.mark.parametrize("seed", [47, 128])
    def test_twin_walks_end_immobile(self, seed):
        # Q turns singular once both twins sit in S
        raised, checked = self.walk(seed, twin=True)
        assert raised and checked > 0


# The event search as a table of every candidate event and one lexsort,
# kept unchanged as the oracle for ``_next_event``.
def _select(steps, cases, index):
    """The next migration: the smallest viable step, ties broken on case id
    then index. A step below -ZERO_STEP is not viable; the rest clamp at 0.

    Returns (step, case_id, index).
    """
    viable = steps > -ZERO_STEP
    if not np.any(viable):
        raise ImmobileError("no positive coefficient increment available")
    steps = np.maximum(steps[viable], 0.0)
    cases, index = cases[viable], index[viable]
    k = np.lexsort((index, cases, steps))[0]
    return float(steps[k]), int(cases[k]), int(index[k])


def _breakpoints(w: _Working, g, beta, gamma, grow, c_new):
    """(steps, case ids, indices) of every event the walk can meet next.

    C comes down at rate 1 per unit step; C reaching ``c_new`` ends the walk
    (case 0, no migration). A growing candidate joins S when g_c reaches 0
    (case 4) and takes no part in case 3.
    """
    s = np.asarray(w.s_set, dtype=int)
    b = beta[1:]
    e = np.asarray(w.e_set, dtype=int)
    r = np.asarray(w.r_set, dtype=int)
    r = r[r != w.cand] if grow else r
    c = [w.cand] if grow and gamma[w.cand] > 0 else []
    up, down = b + 1.0 > 0, b < 0
    e_in, r_in = e[gamma[e] > 0], r[gamma[r] < 0]
    parts = [
        ((w.c - w.alpha[s[up]]) / (b[up] + 1.0), 1, s[up]),
        (-w.alpha[s[down]] / b[down], 2, s[down]),
        (-g[e_in] / gamma[e_in], 3, e_in),
        (-g[r_in] / gamma[r_in], 3, r_in),
        (-g[c] / gamma[c], 4, c),
        ([w.c - c_new], 0, [-1]),
    ]
    steps = np.concatenate([np.asarray(p[0], dtype=float) for p in parts])
    cases = np.concatenate([np.full(len(p[2]), p[1]) for p in parts])
    index = np.concatenate([np.asarray(p[2], dtype=int) for p in parts])
    return steps, cases, index


# Few distinct values, so that steps tie exactly within and across groups;
# the signed zeros and +-1e-15 put steps inside +-ZERO_STEP.
G_VALUES = [0.0, -0.0, 1e-15, -1e-15, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0]
RATE_VALUES = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0]


def rv_mask(r_set, n):
    """Rv as ``_Working`` holds it: a boolean mask over the n rows; the
    oracle above reads the same set as the list ``r_set``."""
    mask = np.zeros(n, dtype=bool)
    mask[r_set] = True
    return mask


@st.composite
def walk_states(draw):
    """(w, g, beta, gamma, grow, c_new) as ``_walk`` hands them over: the
    points split into S, E and Rv in any order, the candidate last."""
    def floats(values, size):
        return np.array(draw(st.lists(st.sampled_from(values),
                                      min_size=size, max_size=size)))

    n = draw(st.integers(1, 9))
    cand = n - 1
    grow = draw(st.booleans())
    sets = draw(st.lists(st.sampled_from("SER"), min_size=n, max_size=n))
    if grow:
        sets[cand] = "R"
    order = draw(st.permutations(range(n)))
    members = {k: [i for i in order if sets[i] == k] for k in "SER"}
    w = SimpleNamespace(s_set=members["S"], e_set=members["E"],
                        r_set=members["R"], cand=cand,
                        alpha=floats([0.0, 0.25, 0.5, 1.0], n), c=1.0)
    w.r_mask = rv_mask(w.r_set, n)
    g, gamma = floats(G_VALUES, n), floats(RATE_VALUES, n)
    beta = floats(RATE_VALUES, len(w.s_set) + 1)
    c_new = draw(st.sampled_from([0.25, 0.5, 0.75]))
    return w, g, beta, gamma, grow, c_new


def tied_state(s_set, c_new):
    """A walk state where S point 2 reaches the bound, E points 4 and 1
    leave E and C reaches c_new (when it is 0.5), all at step 0.5."""
    w = SimpleNamespace(s_set=s_set, e_set=[4, 1], r_set=[0, 3], cand=3,
                        alpha=np.array([0.0, 1.0, 0.5, 0.0, 1.0]), c=1.0)
    w.r_mask = rv_mask(w.r_set, 5)
    return (w, np.array([1.0, -0.5, 0.0, 1.0, -0.5]),
            np.zeros(len(s_set) + 1), np.array([0.0, 1.0, 0.0, 0.0, 1.0]),
            False, c_new)


class TestNextEvent:
    """``_next_event`` picks what the full event table and its lexsort
    picked: the least step, then case id, then index."""

    @given(walk_states())
    @example(tied_state([2], 0.5))  # (0.5, 0, -1)
    @example(tied_state([2], 0.25))  # (0.5, 1, 2)
    @example(tied_state([], 0.25))  # (0.5, 3, 1)
    @settings(max_examples=400, deadline=None)
    def test_matches_lexsort_reference(self, state):
        got = _next_event(*state)
        want = _select(*_breakpoints(*state))
        assert got == want
        # the step is the chosen event's own, signed zero included
        assert math.copysign(1.0, got[0]) == math.copysign(1.0, want[0])
        assert [type(v) for v in got] == [float, int, int]
