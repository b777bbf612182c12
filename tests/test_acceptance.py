"""Acceptance criteria A1-A6.

Each test prints a single PASS/FAIL line (visible even under capture) with
its runtime, then asserts both the criterion and its time budget.
"""

import copy
import json
import time

import numpy as np
import pytest

import driftwatch as dw
from driftwatch import (
    AdvisorConfig,
    DenseTensor3,
    KernelSpec,
    LrSchedule,
    NesgdState,
    OptimizerKind,
    PipelineState,
    StreamOptions,
    UpdatePolicy,
    add_sample,
    decompose_stream_init,
    kernel_matrix,
    kkt_partition,
    median_pairwise_sigma,
    process_event,
    train_batch,
)
from driftwatch.cli import main as cli_main
from driftwatch.cli import run_benchmark
from driftwatch.decomp import KruskalFactors, _step_slices


def report(capsys, name, ok, elapsed, detail=""):
    with capsys.disabled():
        suffix = f" ({detail})" if detail else ""
        print(f"{name}: {'PASS' if ok else 'FAIL'} "
              f"[{elapsed:.1f}s]{suffix}")


def fd_direction(t, f, mode, eps=1e-6):
    """Central finite differences of the squared-error loss, times -1/2."""
    factor = (f.a, f.b, f.c)[mode - 1].copy()
    out = np.zeros_like(factor)
    for idx in np.ndindex(*factor.shape):
        for sign in (1.0, -1.0):
            bump = factor.copy()
            bump[idx] += sign * eps
            mats = [f.a, f.b, f.c]
            mats[mode - 1] = bump
            resid = t.data - np.einsum("ir,jr,kr->ijk", *mats)
            out[idx] += sign * np.sum(resid**2)
        out[idx] /= 2.0 * eps
    return -0.5 * out


def step_direction(slice_ij, a, b, c_row):
    """The direction a window-fit step takes on [A; B; C row] from one
    slice: at rate 0 with no momentum its new velocities are the direction
    itself."""
    state = NesgdState.zeros((*slice_ij.shape, 1), len(c_row),
                             lr=LrSchedule(0.0, 0.0))
    _step_slices(slice_ij[None], a, b, c_row[None].copy(), state,
                 OptimizerKind.SGD, [0])
    return np.vstack((state.vel_a, state.vel_b, state.vel_c))


class TestA1GradientCorrectness:
    def test_a1(self, capsys):
        started = time.monotonic()
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
            # the per-slice directions the optimizers take: summed over the
            # slices for A and B, one C row per slice
            parts = [step_direction(t.slice_at(k), f.a, f.b, f.c[k])
                     for k in range(dims[2])]
            i_n, j_n = dims[:2]
            analytic = (sum(p[:i_n] for p in parts),
                        sum(p[i_n:i_n + j_n] for p in parts),
                        np.array([p[-1] for p in parts]))
            for mode in (1, 2, 3):
                numeric = fd_direction(t, f, mode)
                scale = max(np.abs(numeric).max(), 1.0)
                worst = max(worst, np.abs(analytic[mode - 1] - numeric).max()
                            / scale)
        elapsed = time.monotonic() - started
        ok = worst <= 1e-5 and elapsed < 10.0
        report(capsys, "A1 gradient correctness", ok, elapsed,
               f"max rel err {worst:.2e}")
        assert worst <= 1e-5
        assert elapsed < 10.0


class TestA2OptimizerOrdering:
    @staticmethod
    def steps_to_tau(trace, tau):
        for step, val in trace:
            if val <= tau:
                return step
        return float("inf")

    def test_a2(self, capsys):
        started = time.monotonic()
        kinds = [OptimizerKind.SGD, OptimizerKind.PSGD, OptimizerKind.NESGD]
        wins = 0
        for seed in range(5):
            spec = dw.SynthSpec(dims=(60, 12, 2000), rank_true=2,
                                seed=seed, noise_sigma=0.05)
            tensor, _, _ = dw.generate(spec)
            # shared random init, decoupled from the data seed
            opts = StreamOptions(seed=seed + 1000, lr=LrSchedule(1.0, 1.0))
            traces = run_benchmark(tensor, 2, kinds, opts)
            tau = 1.1 * min(tr[-1][1] for tr in traces.values())
            steps = {k: self.steps_to_tau(traces[k], tau) for k in kinds}
            wins += int(steps[OptimizerKind.NESGD]
                        <= steps[OptimizerKind.PSGD]
                        <= steps[OptimizerKind.SGD])
        elapsed = time.monotonic() - started
        ok = wins >= 4 and elapsed < 300.0
        report(capsys, "A2 optimizer ordering", ok, elapsed,
               f"{wins}/5 seeds ordered")
        assert wins >= 4
        assert elapsed < 300.0


class TestA3IncrementalEqualsBatch:
    @staticmethod
    def check_working(w, tol=1e-6):
        # every retained point must stay KKT-consistent at each migration;
        # the candidate is exempt while its own coefficient is still growing
        g = w.g()
        for i in w.s_set:
            assert abs(g[i]) <= tol, (i, "margin", g[i])
        for i in w.e_set:
            assert g[i] <= tol, (i, "bound", g[i])
        for i in np.flatnonzero(w.r_mask):
            if i == w.cand:
                continue
            assert g[i] >= -tol, (i, "interior", g[i])

    def test_a3(self, capsys):
        started = time.monotonic()
        rng_master = np.random.default_rng(2026)
        grid = np.linspace(-3.0, 3.0, 20)
        probes = np.array([[a, b] for a in grid for b in grid])
        worst = 0.0
        events = 0
        for _ in range(50):
            seed = int(rng_master.integers(1 << 31))
            rng = np.random.default_rng(seed)
            n = int(rng.integers(20, 61))
            nu = float(rng.uniform(0.15, 0.6))
            if nu * (n - 5) < 1.5:
                nu = 2.0 / (n - 5)
            x = rng.standard_normal((n, 2))
            kernel = KernelSpec("rbf", median_pairwise_sigma(x))
            m = train_batch(x[: n - 5], nu, kernel)

            def on_event(w):
                nonlocal events
                events += 1
                self.check_working(w)

            for k in range(n - 5, n):
                m, _ = add_sample(m, x[k], on_event=on_event)
                kkt_partition(m, tol=1e-6)
            batch = train_batch(x, nu, kernel)
            err = np.abs(m.decision_values(probes)
                         - batch.decision_values(probes)).max()
            worst = max(worst, err)
        elapsed = time.monotonic() - started
        ok = worst <= 1e-5 and elapsed < 120.0
        report(capsys, "A3 incremental equals batch", ok, elapsed,
               f"max probe err {worst:.2e}, {events} events checked")
        assert worst <= 1e-5
        assert elapsed < 120.0


class TestA4DriftAdaptation:
    """Frozen scenario: 500 training slices, then 200 in-distribution events
    (39 of them localized faults at one of 12 locations) and 300 globally
    drifted events."""

    WINDOW = 500
    ANOM_STEPS = list(range(505, 700, 5))
    DRIFT_START = 700

    def build_stream(self):
        spec = dw.SynthSpec(
            dims=(60, 12, 1000), rank_true=2, seed=11, noise_sigma=0.05,
            drift=dw.DriftSpec(start_k=self.DRIFT_START, mu_shift=0.5,
                               sigma_scale=1.5, locations="ALL"),
            anomalies=dw.AnomalySpec(self.ANOM_STEPS, location=4,
                                     mu_shift=2.0, sigma_scale=2.0),
        )
        return dw.generate(spec)

    def run_policy(self, tensor, labels, decomp, model, policy):
        cfg = AdvisorConfig(k_neighbors=11, gamma_change=4e-3,
                            confidence=0.9, update_policy=policy)
        state = PipelineState.start(copy.deepcopy(decomp),
                                    copy.deepcopy(model), cfg)
        actions = []
        for k in range(self.WINDOW, 1000):
            state, v = process_event(state, tensor.slice_at(k))
            actions.append((k, labels[k], v.action.value))
        last = actions[-100:]
        healthy_last = [x for x in last if x[1] != "anomalous"]
        far_final = (sum(1 for _, _, a in healthy_last
                         if a == "report_anomaly") / len(healthy_last))
        post = [x for x in actions
                if x[0] >= self.DRIFT_START and x[1] != "anomalous"]
        far_post = (sum(1 for _, _, a in post if a == "report_anomaly")
                    / len(post))
        det = (sum(1 for _, lab, a in actions
                   if lab == "anomalous" and a == "report_anomaly")
               / len(self.ANOM_STEPS))
        return far_final, far_post, det

    def test_a4(self, capsys):
        started = time.monotonic()
        tensor, labels, _ = self.build_stream()
        window = DenseTensor3(tensor.data[:, :, : self.WINDOW])
        decomp = decompose_stream_init(
            window, 2, OptimizerKind.NESGD,
            StreamOptions(epochs=30, seed=0, friction=0.0,
                          lr=LrSchedule(4.0 / 720.0, 2e-4)),
        )
        sigma = 2.0 * median_pairwise_sigma(decomp.factors.c)
        model = train_batch(decomp.factors.c, 0.02, KernelSpec("rbf", sigma))

        ta_far, _, ta_det = self.run_policy(
            tensor, labels, decomp, model, UpdatePolicy.TENSOR_ADVISED)
        _, none_far_post, _ = self.run_policy(
            tensor, labels, decomp, model, UpdatePolicy.NONE)
        elapsed = time.monotonic() - started
        ok = (ta_far < 0.05 and none_far_post > 0.5 and ta_det >= 0.95
              and elapsed < 180.0)
        report(capsys, "A4 drift adaptation", ok, elapsed,
               f"advised FAR {ta_far:.2f}, frozen FAR {none_far_post:.2f}, "
               f"detection {ta_det:.3f}")
        assert ta_far < 0.05
        assert none_far_post > 0.5
        assert ta_det >= 0.95
        assert elapsed < 180.0


class TestA5NuProperty:
    def test_a5(self, capsys):
        started = time.monotonic()
        rng_master = np.random.default_rng(55)
        ok_all = True
        for _ in range(20):
            seed = int(rng_master.integers(1 << 31))
            rng = np.random.default_rng(seed)
            n = int(rng.integers(20, 61))
            nu = float(rng.uniform(0.1, 0.8))
            if nu * n < 1.0:
                nu = 1.5 / n
            x = rng.standard_normal((n, 2))
            m = train_batch(x, nu, KernelSpec("rbf",
                                              median_pairwise_sigma(x)))
            g = m.training_decision_values()
            frac_bound = np.mean(m.alpha >= m.c_bound * (1.0 - 1e-9))
            frac_neg = np.mean(g < -1e-9)
            if frac_bound > nu + 1e-12 or frac_neg > nu + 2.0 / n:
                ok_all = False
        elapsed = time.monotonic() - started
        ok = ok_all and elapsed < 30.0
        report(capsys, "A5 nu property", ok, elapsed, "20 trainings")
        assert ok_all
        assert elapsed < 30.0


class TestA6Determinism:
    def run_all_commands(self, root, capsys, monkeypatch):
        # identical relative paths in both runs: the bundle records the
        # tensor path it was trained from
        monkeypatch.chdir(root)
        tensor = "t.csv"
        cli_main(["synth", "--i", "6", "--j", "5", "--k", "60", "--rank", "2",
                  "--seed", "7", "--noise-sigma", "0.02",
                  "--anomaly-steps", "40,45", "--anomaly-location", "1",
                  "--anomaly-mu-shift", "4.0", "--out", tensor])
        cli_main(["bench", "--tensor", tensor, "--optimizers",
                  "sgd,psgd,nesgd", "--lr-a", "0.02", "--lr-b", "0.001",
                  "--seed", "7", "--out", "bench.csv"])
        cli_main(["train", "--tensor", tensor, "--window", "30",
                  "--rank", "2", "--nu", "0.1", "--epochs", "40",
                  "--seed", "7", "--k-neighbors", "2",
                  "--gamma-change", "0.01", "--out", "b.json"])
        cli_main(["stream", "--bundle", "b.json", "--tensor", tensor,
                  "--verdicts", "v.csv", "--metrics", "m.json",
                  "--migrations", "mig.jsonl"])
        capsys.readouterr()
        cli_main(["eval", "--verdicts", "v.csv",
                  "--labels", "t.labels.csv"])
        eval_out = capsys.readouterr().out
        files = ["t.csv", "t.labels.csv", "t.meta.json", "bench.csv",
                 "b.json", "v.csv", "m.json", "mig.jsonl"]
        blobs = {name: (root / name).read_bytes() for name in files}
        blobs["eval.stdout"] = eval_out.encode()
        return blobs

    def test_a6(self, capsys, tmp_path, monkeypatch):
        started = time.monotonic()
        run1 = tmp_path / "run1"
        run2 = tmp_path / "run2"
        run1.mkdir()
        run2.mkdir()
        blobs1 = self.run_all_commands(run1, capsys, monkeypatch)
        blobs2 = self.run_all_commands(run2, capsys, monkeypatch)
        mismatched = [k for k in blobs1 if blobs1[k] != blobs2[k]]
        elapsed = time.monotonic() - started
        ok = not mismatched
        report(capsys, "A6 determinism", ok, elapsed,
               "all commands byte-identical" if ok
               else f"mismatch: {mismatched}")
        assert not mismatched
