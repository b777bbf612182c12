"""Run every workload over several seeds and print each metric's spread.

Run from the repository root:

    python3 streambench/report.py --runs 10

Each run is a separate ``run.py`` process (one workload per process); run r
uses seed r + 1 and lasts ``run_seconds`` of BENCHMARK.json, the length the
bounds were proved at. For every workload the report prints every end-to-end metric (``--trace 0``) or
per-layer metric (``--trace 1``) by name with its unit, as the median and
quartiles over the runs. The spread is (q3 - q1) / median, with quartiles
from ``statistics.quantiles(values, n=4)``; for metrics BENCHMARK.json
bounds it is compared against the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 900
with open(HERE.parent / "BENCHMARK.json") as _fh:
    DECLARED = json.load(_fh)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_once(workload, seed, seconds, trace):
    """One run.py process; returns its saved record."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    tag = f"{workload}-seed{seed}-trace{trace}"
    with open(Path(".streambench_out") / f"{tag}.json") as fh:
        return json.load(fh)


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main(argv=None):
    args = parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    section = "per_layer" if args.trace else "end_to_end"
    worst_ok = True
    for workload in (w["name"] for w in DECLARED["workloads"]):
        records = [run_once(workload, r + 1, DECLARED["run_seconds"],
                            args.trace)
                   for r in range(args.runs)]
        correct = all(r["correct"] for r in records)
        worst_ok &= correct
        s = records[0]["samples"]
        print(f"\n== {workload}: {args.runs} runs, seeds 1..{args.runs}, "
              f"{DECLARED['run_seconds']} s each, all checks passed: "
              f"{correct}; "
              f"{s['events_per_pass']} events per pass, "
              f"{s['passes_untraced']} untraced + {s['passes_traced']} "
              f"traced passes in the first run")
        print(f"{'metric':44s} {'unit':9s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for name, first in records[0][section].items():
            med, q1, q3, sp = spread([r[section][name]["value"]
                                      for r in records])
            bound = bounds.get(name) if not args.trace else None
            flag = ""
            if bound is not None:
                flag = f"{bound:6.2f}" + ("" if sp <= bound else " OVER")
            print(f"{name:44s} {first['unit']:9s} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {sp:7.3f} {flag}")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
