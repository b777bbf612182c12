"""Tests of the benchmark harness itself.

Run from the repository root: python3 -m pytest streambench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import harness
import pipeline
import spans
import workloads
from conftest import BENCH, ROOT
from driftwatch import advisor, incremental, ocsvm, synth
from driftwatch.errors import ImmobileError


def tiny(name, events=120):
    return replace(workloads.WORKLOADS[name], i=8, j=12, window=60,
                   events=events)


def test_generator_is_byte_identical_for_a_seed():
    spec = tiny("drift_staircase")
    a_data, a_labels = workloads.generate(spec, 7)
    b_data, b_labels = workloads.generate(spec, 7)
    c_data, _ = workloads.generate(spec, 8)
    assert a_data.tobytes() == b_data.tobytes()
    assert a_labels == b_labels
    assert a_data.tobytes() != c_data.tobytes()


def test_staircase_steps_at_stated_indices_and_labels_drifted():
    spec = tiny("drift_staircase", events=1000)
    flat = replace(spec, staircase=False)
    data, labels = workloads.generate(spec, 3)
    base, base_labels = workloads.generate(flat, 3)
    starts = workloads.step_starts(spec)
    assert starts == [160, 560, 960]
    expected = np.array(base)
    for k0 in starts:
        expected[:, :, k0:] = (expected[:, :, k0:] + workloads.STAIR_SHIFT) \
            * workloads.STAIR_SCALE
    assert np.array_equal(data[:, :, :starts[0]], base[:, :, :starts[0]])
    assert np.array_equal(data, expected)
    faults = set(workloads.fault_steps(spec))
    for k, lab in enumerate(labels):
        if k in faults:
            assert lab == synth.LABEL_ANOMALY
        elif k >= starts[0]:
            assert lab == synth.LABEL_DRIFTED
        else:
            assert lab == base_labels[k] == synth.LABEL_HEALTHY


def test_pass_count_is_fixed_by_workload_and_seconds():
    for spec in workloads.WORKLOADS.values():
        assert workloads.pass_count(spec, 20) == round(20 / spec.pass_s)
        assert workloads.pass_count(spec, 0.01) == workloads.MIN_PASSES


def test_pass_summary_uses_wall_time_and_event_medians():
    def result(wall_s, lat_ms):
        return pipeline.PassResult(wall_s, np.array(lat_ms) * 1e6, [])

    passes = [result(1.0, [1, 2, 3, 4]), result(2.0, [9, 9, 9, 9]),
              result(4.0, [1, 4, 5, 2])]
    s = harness.pass_summary(passes, 4)
    assert s["events_per_s"] == 12 / 7.0
    assert s["latency_p50_ms"] == np.percentile([1, 4, 5, 4], 50)
    assert s["latency_p99_ms"] == np.percentile([1, 4, 5, 4], 99)
    assert s["fastest"]["latency_p50_ms"] == np.percentile([1, 2, 3, 2], 50)
    assert s["per_pass_events_per_s"] == [4.0, 2.0, 1.0]


def _span(name, start, end, parent):
    return spans.Span(name, start, end, parent, 0)


def test_self_time_subtracts_children_on_hand_built_spans():
    s = [
        _span("root", 0, 100, -1),
        _span("a", 10, 30, 0),
        _span("a.1", 12, 20, 1),
        _span("b", 40, 90, 0),
        _span("b.1", 50, 60, 3),
        _span("b.2", 55, 70, 3),   # overlaps b.1: covered once
        _span("c", 95, 120, 0),    # runs past its parent: clipped
    ]
    assert list(spans.self_times_ns(s)) == [100 - 20 - 50 - 5, 12, 8,
                                            50 - 20, 10, 15, 25]
    stats = spans.layer_stats(s)
    assert stats["b"].calls == 1 and stats["b"].self_total_ns == 30
    assert stats["missing"].calls == 0


def test_wrappers_reraise_and_restore():
    originals = {(o, a): o.__dict__[a] for o, a, _ in spans.SPAN_TARGETS}
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert advisor.add_sample is not originals[(advisor, "add_sample")]
        boom = ImmobileError("test")

        def fails():
            raise boom

        with pytest.raises(ImmobileError) as info:
            tracer.span("x", fails)()
        assert info.value is boom
        assert tracer.spans[-1].error == "ImmobileError"
        k = ocsvm.kernel_matrix(ocsvm.KernelSpec("rbf", 1.0), np.zeros((3, 2)))
        assert k.shape == (3, 3) and tracer.unattributed_kernel_entries == 9
    for (owner, attr), raw in originals.items():
        assert owner.__dict__[attr] is raw
    assert incremental.kernel_matrix is ocsvm.kernel_matrix


def _declared(section):
    with open(ROOT / "BENCHMARK.json") as fh:
        return [m["name"] for m in json.load(fh)[section]]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_all_workloads_untraced_and_traced(tmp_path, name):
    (tmp_path / "src").symlink_to(ROOT / "src")
    spec = tiny(name)
    plain = harness.run(spec, 5, 0.01, 0, tmp_path)
    traced = harness.run(spec, 5, 0.01, 1, tmp_path)
    for record in (plain, traced):
        assert record["correct"], record["checks"]
        assert record["failed"] == 0 and record["attempted"] >= spec.events
    assert set(harness.E2E_UNITS) == set(plain["end_to_end"])
    for metric in _declared("end_to_end"):
        assert math.isfinite(plain["end_to_end"][metric]["value"])
    assert set(traced["per_layer"]) == set(_declared("per_layer"))
    for metric in _declared("per_layer"):
        assert math.isfinite(traced["per_layer"][metric]["value"]), metric
    layer = traced["per_layer"]
    assert layer["decomp.update_online.calls"]["value"] == spec.events
    assert layer["ocsvm.decision_value.calls"]["value"] == spec.events
    assert layer["src_lines.total"]["value"] == plain["src_lines"]["total"]
    assert (tmp_path / traced["spans_file"]).is_file()


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "streambench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "streambench/run.py", "--workload", "steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
