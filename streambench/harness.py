"""One benchmark run: input, set-up, replayed passes, checks and metrics.

``run.py`` is the entry point; it pins BLAS to one thread before this
module imports numpy.
"""

import ctypes
import glob
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

import numpy as np

import driftwatch
import pipeline
import workloads
from spans import Tracer, installed, layer_stats

HERE = Path(__file__).resolve().parent
OUT_DIR = ".streambench_out"
SETUP_REPEATS = 3
WARMUP_EVENTS = 200
GENERATE_TIMEOUT_S = 170
# An insert share near 1% puts p99 between the insert and non-insert
# latency modes, so p99 there is unstable. The band starts low because the
# event after each insert is also slow.
STRADDLE_BAND = (0.003, 0.02)

E2E_UNITS = {
    "events_per_s": "events/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "detection_rate": "fraction",
    "false_alarm_rate": "fraction",
    "failed_event_share": "fraction",
}


def load_input(spec, seed, prefix, src):
    """Generate the workload in a child process and load it as (K, I, J)."""
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run(
        [sys.executable, str(HERE / "workloads.py"),
         json.dumps(asdict(spec)), str(seed), str(prefix)],
        env=env, check=True, timeout=GENERATE_TIMEOUT_S)
    npy, lab = Path(f"{prefix}.npy"), Path(f"{prefix}.labels.json")
    try:
        data = np.load(npy)
        labels = json.loads(lab.read_text())
    finally:
        npy.unlink(missing_ok=True)
        lab.unlink(missing_ok=True)
    return data, labels


def replay(bundle, window, events, passes, tracer=None):
    """``passes`` whole passes, each from the reloaded bundle. Only the last
    pass keeps its state."""
    results = []
    for p in range(passes):
        if results:
            results[-1].state = None
        state = pipeline.reload(bundle, window)
        if tracer is None:
            r = pipeline.stream_pass(state, events)
        else:
            tracer.pass_index = p
            with installed(tracer):
                r = pipeline.stream_pass(
                    state, events,
                    on_event=lambda i: setattr(tracer, "event", i))
            tracer.event = -1
        state = None
        results.append(r)
    return results


def pass_summary(results, n_events):
    """Rate and latency over a fixed number of identical passes.

    The rate is events over the passes' total wall time. Latency
    percentiles are over each event's median time across the passes, so a
    slow spell of the host that hits fewer than half of the passes does not
    count, while a cost that every pass pays does. The fastest-time figures
    are diagnostics only: a minimum drops costs that move between passes.
    """
    stacked = np.stack([r.latencies_ns for r in results]) / 1e6
    med_ms = np.median(stacked, axis=0)
    best_ms = np.min(stacked, axis=0)
    return {"events_per_s": n_events * len(results)
                            / sum(r.wall_s for r in results),
            "latency_p50_ms": float(np.percentile(med_ms, 50)),
            "latency_p99_ms": float(np.percentile(med_ms, 99)),
            "per_pass_events_per_s": [n_events / r.wall_s for r in results],
            "fastest": {
                "events_per_s": n_events / float(best_ms.sum() / 1e3),
                "latency_p50_ms": float(np.percentile(best_ms, 50)),
                "latency_p99_ms": float(np.percentile(best_ms, 99))}}


def blas_info():
    deps = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), sym)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            threads = fn()
            break
    return {"name": deps.get("name"), "version": deps.get("version"),
            "threads": threads,
            "threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")}}


def src_lines(src):
    pkg = Path(src) / "driftwatch"
    counts = {p.stem: len(p.read_text().splitlines())
              for p in sorted(pkg.glob("*.py"))}
    counts["total"] = sum(counts.values())
    return counts


def run(spec, seed, seconds, trace, root):
    """Run one workload; returns the full record (a JSON-able dict)."""
    root = Path(root)
    src = root / "src"
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    tag = f"{spec.name}-seed{seed}-trace{int(trace)}"
    prefix = out_dir / f"{tag}-{os.getpid()}"
    bundle = f"{prefix}.bundle.json"

    data, labels = load_input(spec, seed, prefix, src)
    window = [data[k] for k in range(spec.window)]
    events = [data[spec.window + k] for k in range(spec.events)]
    setup_tracer = Tracer() if trace else None
    stream_tracer = Tracer() if trace else None
    try:
        setup_s, digests = [], set()
        for _ in range(1 if trace else SETUP_REPEATS):
            with installed(setup_tracer) if trace else nullcontext():
                secs, state = pipeline.setup(window, bundle)
            setup_s.append(secs)
            digests.add(hashlib.sha256(Path(bundle).read_bytes()).hexdigest())
        state = None
        bundle_bytes = Path(bundle).stat().st_size
        # Warm-up: first-call costs of numpy and the allocator are paid by
        # every process once, not per event, so they are not timed.
        pipeline.stream_pass(pipeline.reload(bundle, window),
                             events[:WARMUP_EVENTS])
        n_passes = workloads.pass_count(spec,
                                        seconds / 2 if trace else seconds)
        untraced = replay(bundle, window, events, n_passes)
        traced = (replay(bundle, window, events, n_passes, stream_tracer)
                  if trace else [])
    finally:
        Path(bundle).unlink(missing_ok=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    passes = untraced + traced
    last = passes[-1]
    final = last.state
    model_ok, model_diff, s_size, sv = pipeline.final_model_check(final.model)
    first_actions = passes[0].actions
    sent = len(events) * len(passes)
    exceptions = sum(len(r.failures) for r in passes)
    bad_verdicts = sum(r.check_failures for r in passes)
    verdicts = sum(sum(a is not None for a in r.actions) for r in passes)
    failed = sum(len(r.failures) + r.check_failures for r in passes)
    checks = {
        "verdicts_equal_events_sent": verdicts == sent,
        "no_exceptions": exceptions == 0,
        "verdict_invariants": bad_verdicts == 0,
        "final_model_kkt_and_matches_batch_retrain": model_ok,
        "passes_identical": all(r.actions == first_actions for r in passes),
        "setup_deterministic": len(digests) == 1,
    }
    correct = all(checks.values())
    detection, false_alarm = pipeline.quality(first_actions, labels,
                                              spec.window)
    counts = {a: first_actions.count(a)
              for a in ("accept", "update_model", "report_anomaly")}
    cases = {f"case{c}": 0 for c in range(1, 6)}
    for ev in final.migration_log:
        cases[f"case{ev['case_id']}"] += 1
    inserts = counts["update_model"]
    insert_share = inserts / len(events)
    summary = pass_summary(untraced, len(events))

    e2e = {
        "events_per_s": summary["events_per_s"],
        "latency_p50_ms": summary["latency_p50_ms"],
        "latency_p99_ms": summary["latency_p99_ms"],
        "setup_s": float(statistics.median(setup_s)),
        "peak_rss_mb": peak_rss_mb,
        "detection_rate": detection,
        "false_alarm_rate": false_alarm,
        "failed_event_share": failed / sent,
    }
    record = {
        "workload": spec.name,
        "seed": seed,
        "trace": int(trace),
        "correct": correct,
        "attempted": sent,
        "failed": failed,
        "checks": checks,
        "first_failures": [f"pass {p} event {i}: {tb}"
                           for p, r in enumerate(passes)
                           for i, tb in r.failures][:3],
        "final_model_max_abs_diff_vs_batch": model_diff,
        "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k]}
                       for k, v in e2e.items()},
        "samples": {
            "passes_untraced": len(untraced), "passes_traced": len(traced),
            "events_per_pass": len(events),
            "latency_samples": len(events),
            "calls_per_latency_sample": len(untraced),
            "setup_repeats": len(setup_s), "setup_s_each": setup_s,
            "events_per_s_each_pass": summary["per_pass_events_per_s"],
            "fastest_time_diagnostics": summary["fastest"],
            "warmup_events": WARMUP_EVENTS,
        },
        "counters": {
            "inserts": inserts, "insert_share": insert_share,
            "insert_share_straddles_p99":
                STRADDLE_BAND[0] <= insert_share <= STRADDLE_BAND[1],
            # _incorporate turns every ImmobileError into one retrain
            "immobile_errors": final.retrain_fallbacks,
            "retrain_fallbacks": final.retrain_fallbacks,
            "migrations": sum(cases.values()), "migration_cases": cases,
            "model_n": final.model.n, "margin_set_size": s_size,
            "support_vectors": sv,
            "retained_slices": len(final.decomp.slices),
            "state_bytes": pipeline.state_bytes(final.decomp),
            "accepted": counts["accept"], "reported": counts["report_anomaly"],
        },
        "input": {"dims": [spec.i, spec.j, spec.window + spec.events],
                  "window": spec.window, "events": spec.events,
                  "bytes": int(data.nbytes)},
        "queue_wait_s": 0.0,
        "queue_wait_note": "closed loop, one event in flight, no queue "
                           "inside the pipeline: no layer waits for another",
        "host": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "driftwatch": driftwatch.__version__,
            "blas": blas_info(),
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
        },
        "src_lines": src_lines(src),
    }
    if trace:
        record["per_layer"] = per_layer(
            layer_stats(setup_tracer.spans), layer_stats(stream_tracer.spans),
            traced, untraced, record, bundle_bytes)
        # Passes repeat the same work: the file keeps set-up and the first
        # traced pass (every pass would be about 20 MB per run).
        spans_path = out_dir / f"{tag}.spans.jsonl"
        with open(spans_path, "w") as fh:
            for phase, tracer in (("setup", setup_tracer),
                                  ("stream", stream_tracer)):
                for sp in tracer.spans:
                    if sp.pass_index <= 0:
                        fh.write(json.dumps(dict(asdict(sp), phase=phase)))
                        fh.write("\n")
        record["spans_file"] = str(spans_path.relative_to(root))
    with open(out_dir / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return record


def per_layer(setup, stream, traced, untraced, record, bundle_bytes):
    """Per-layer metrics from the traced passes, normalised to one pass."""
    n_pass = len(traced)
    events = record["samples"]["events_per_pass"]
    traced_s = sum(r.wall_s for r in traced)
    counters = record["counters"]
    upd, kr = stream["decomp.update_online"], stream["tensor.khatri_rao"]
    pe, snap = stream["advisor.process_event"], stream["advisor.snapshot"]
    knn, dv = stream["advisor.knn_score"], stream["ocsvm.decision_value"]
    ep = stream["advisor.environmental_probability"]
    ins, tb = stream["incremental.add_sample"], stream["ocsvm.train_batch"]
    tb_setup = setup["ocsvm.train_batch"]
    ok_inserts = ins.calls - ins.errors
    eps_untraced = pass_summary(untraced, events)["events_per_s"]
    eps_traced = pass_summary(traced, events)["events_per_s"]
    e2e = record["end_to_end"]
    m = {
        "stream.events": events,
        "stream.total_s": traced_s / n_pass,
        "decomp.update_online.calls": upd.calls / n_pass,
        "decomp.update_online.p50_ms": upd.pct_ms(50),
        "decomp.update_online.total_s": upd.total_ns / 1e9 / n_pass,
        "decomp.update_online.share": upd.total_ns / 1e9 / traced_s,
        "decomp.decompose_stream_init.s":
            setup["decomp.decompose_stream_init"].total_ns / 1e9,
        "decomp.retained_slices": counters["retained_slices"],
        "decomp.state_bytes": counters["state_bytes"],
        "tensor.khatri_rao.calls": kr.calls / n_pass,
        "tensor.khatri_rao.total_s": kr.total_ns / 1e9 / n_pass,
        "advisor.process_event.self_p50_ms": pe.pct_ms(50, self_time=True),
        "advisor.process_event.self_total_s": pe.self_total_ns / 1e9 / n_pass,
        "advisor.snapshot.total_s": snap.total_ns / 1e9 / n_pass,
        "advisor.knn_score.total_s": knn.total_ns / 1e9 / n_pass,
        "advisor.environmental_probability.calls": ep.calls / n_pass,
        "advisor.accepted": counters["accepted"],
        "advisor.updated": counters["inserts"],
        "advisor.reported": counters["reported"],
        "advisor.retrain_fallbacks": counters["retrain_fallbacks"],
        "advisor.detection_rate": e2e["detection_rate"]["value"],
        "advisor.false_alarm_rate": e2e["false_alarm_rate"]["value"],
        "ocsvm.decision_value.calls": dv.calls / n_pass,
        "ocsvm.decision_value.p50_ms": dv.pct_ms(50),
        "ocsvm.decision_value.total_s": dv.total_ns / 1e9 / n_pass,
        "ocsvm.kernel_entries.scoring": dv.kernel_entries / n_pass,
        # the set-up call plus the fallback retrains of one pass
        "ocsvm.train_batch.calls": tb_setup.calls + tb.calls / n_pass,
        "ocsvm.train_batch.total_s":
            (tb_setup.total_ns + tb.total_ns / n_pass) / 1e9,
        "ocsvm.model_n": counters["model_n"],
        "ocsvm.margin_set_size": counters["margin_set_size"],
        "ocsvm.support_vectors": counters["support_vectors"],
        "incremental.add_sample.calls": ins.calls / n_pass,
        "incremental.add_sample.p50_ms": ins.pct_ms(50),
        "incremental.add_sample.p99_ms": ins.pct_ms(99),
        "incremental.add_sample.total_s": ins.total_ns / 1e9 / n_pass,
        "incremental.add_sample.share": ins.total_ns / 1e9 / traced_s,
        "incremental.insert_share": counters["insert_share"],
        "incremental.kernel_entries_per_insert":
            ins.kernel_entries / ins.calls if ins.calls else 0.0,
        "incremental.migrations_per_insert":
            counters["migrations"] / (ok_inserts / n_pass)
            if ok_inserts else 0.0,
        "incremental.immobile": ins.errors / n_pass,
        # no attempt means nothing was wasted
        "incremental.insert_success_ratio":
            ok_inserts / ins.calls if ins.calls else 1.0,
        "cli.save_bundle_s": setup["cli.save_bundle"].total_ns / 1e9,
        "cli.load_bundle_s": setup["cli.load_bundle"].total_ns / 1e9,
        "cli.bundle_bytes": bundle_bytes,
        "trace.events_per_s_untraced": eps_untraced,
        "trace.events_per_s_traced": eps_traced,
        "trace.overhead_share": 1.0 - eps_traced / eps_untraced,
    }
    for case, count in counters["migration_cases"].items():
        m[f"incremental.migrations.{case}"] = count
    units = declared_units("per_layer")
    for name in units:
        if name.startswith("src_lines."):  # a module that went away reads 0
            m[name] = record["src_lines"].get(name.split(".", 1)[1], 0)
    return {k: {"value": v, "unit": units[k]} for k, v in m.items()}


def declared_units(section):
    """{metric name: unit} that BENCHMARK.json declares, in its order."""
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}
