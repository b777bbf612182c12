"""Closed-loop benchmark of the driftwatch streaming pipeline.

Run from the repository root:

    python3 streambench/run.py --workload steady --seed 1 --seconds 20 --trace 0

One process runs one workload. The input is generated from ``--seed`` in a
child process; the pipeline is set up several times (window fit, bandwidth,
batch training, bundle save and reload) and then a fixed number of whole
passes over the stream is replayed, each from the reloaded bundle. The
count follows from the workload and ``--seconds`` alone
(``workloads.pass_count``); a run lasts about ``--seconds`` on the reference
host. One event is in flight at a time.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
package's functions from outside (see spans.py) and reports per-layer
metrics. The full record goes to ``.streambench_out/`` and to standard
output; the last line of standard output is the summary JSON object.
"""

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

# One BLAS thread: the pipeline is a single writer, and on a small shared
# host threaded BLAS on these tiny matrices only adds wake-up latency.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "driftwatch" / "__init__.py").is_file():
        print(f"error: {src / 'driftwatch'} not found; run from the "
              "repository root", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # before numpy is first imported
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    import driftwatch
    import harness
    import workloads

    imported = Path(driftwatch.__file__).resolve().parent
    if imported != (src / "driftwatch").resolve():
        print(f"error: imported driftwatch from {driftwatch.__file__}, not "
              f"from {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    record = harness.run(workloads.WORKLOADS[args.workload], args.seed,
                         args.seconds, args.trace, root)
    for failure in record["first_failures"]:
        print(failure, file=sys.stderr)
    section = record["per_layer" if args.trace else "end_to_end"]
    names = harness.declared_units("per_layer" if args.trace
                                   else "end_to_end")
    for name, metric in section.items():
        print(f"{name:44s} {metric['value']!r:>24} {metric['unit']}")
    print(json.dumps({k: record[k] for k in ("checks", "counters", "samples",
                                             "host")}, sort_keys=True))
    print(f"run took {time.perf_counter() - started:.1f} s", file=sys.stderr)
    metrics = {}
    for name in names:
        value = section[name]["value"]
        if not math.isfinite(value):
            print(f"error: metric {name} is {value}", file=sys.stderr)
            return 1
        metrics[name] = section[name]
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
