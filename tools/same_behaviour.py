"""Check that two checkouts of driftwatch behave the same on the benchmark.

Usage, from anywhere:

    python3 tools/same_behaviour.py PARENT_DIR CHANGE_DIR

For every workload of ``streambench/workloads.py`` and seeds 1-3, each
checkout runs ``streambench/pipeline.setup`` and one ``stream_pass`` in a
subprocess of its own, importing its own ``src/`` and ``streambench/``.
The two runs are compared on:

- the action of every event;
- the ``(case_id, index)`` sequence of insert migrations;
- the sha256 of the set-up bundle; when it differs, the JSON paths
  (``state.vel_a``, ...) that were added, removed or changed are printed;
- ``final_model_check`` holding on both final models;
- the final models themselves: the same training size ``n``, and the
  largest |delta alpha| and |delta rho| at most ``G_RAW_TOL``;
- the largest |delta g_raw| over all events, which may be at most
  ``G_RAW_TOL``.

One line is printed per workload and seed.

Before that, each checkout runs the ``synth``/``bench``/``train``/
``stream``/``eval`` commands of acceptance test A6 in an empty temporary
directory of its own. Every file they write, and the standard output of
``eval``, is compared byte for byte; one line is printed per file, and a
file that differs prints its largest absolute numeric difference (hex
floats included). The CLI runs match when, in every file, the text between
the numbers is equal and no number differs by more than ``G_RAW_TOL``.

The exit status is 1 on any mismatch, 0 otherwise. Nothing under
``streambench/`` is modified.
"""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 2, 3)
G_RAW_TOL = 1e-12
CHILD_TIMEOUT_S = 1800
# as streambench/run.py: one BLAS thread, set before numpy is imported
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the commands of acceptance test A6, in order; "eval" writes to stdout
CLI_COMMANDS = (
    ["synth", "--i", "6", "--j", "5", "--k", "60", "--rank", "2",
     "--seed", "7", "--noise-sigma", "0.02", "--anomaly-steps", "40,45",
     "--anomaly-location", "1", "--anomaly-mu-shift", "4.0",
     "--out", "t.csv"],
    ["bench", "--tensor", "t.csv", "--optimizers", "sgd,psgd,nesgd",
     "--lr-a", "0.02", "--lr-b", "0.001", "--seed", "7", "--out",
     "bench.csv"],
    ["train", "--tensor", "t.csv", "--window", "30", "--rank", "2",
     "--nu", "0.1", "--epochs", "40", "--seed", "7", "--k-neighbors", "2",
     "--gamma-change", "0.01", "--out", "b.json"],
    ["stream", "--bundle", "b.json", "--tensor", "t.csv", "--verdicts",
     "v.csv", "--metrics", "m.json", "--migrations", "mig.jsonl"],
    ["eval", "--verdicts", "v.csv", "--labels", "t.labels.csv"],
)
EVAL_STDOUT = "eval.stdout"
# a hex float as to_hex writes it, or a decimal number; the group keeps the
# numbers in re.split's output
NUMBER = re.compile(r"(-?0x[0-9a-f]+(?:\.[0-9a-f]*)?p[-+]\d+"
                    r"|-?\d+(?:\.\d*)?(?:e[-+]?\d+)?|-?inf|nan)")


def json_leaves(value, path=""):
    """{dotted path: sha256 of the JSON text} for every non-object leaf."""
    if not isinstance(value, dict):
        text = json.dumps(value, sort_keys=True)
        return {path: hashlib.sha256(text.encode()).hexdigest()}
    leaves = {}
    for key, item in value.items():
        leaves.update(json_leaves(item, f"{path}.{key}" if path else key))
    return leaves


def bundle_diff(parent, change):
    """Lines naming the bundle paths added, removed or changed."""
    old, new = parent["bundle_leaves"], change["bundle_leaves"]
    groups = (("added", sorted(new.keys() - old.keys())),
              ("removed", sorted(old.keys() - new.keys())),
              ("changed", sorted(k for k in old.keys() & new.keys()
                                 if old[k] != new[k])))
    return [f"    bundle {name}: {', '.join(paths)}"
            for name, paths in groups if paths]


def child_env(checkout):
    """The environment of a child process that imports ``checkout``."""
    env = dict(os.environ, **{var: "1" for var in BLAS_ENV})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(checkout / "src"), str(checkout / "streambench")])
    return env


def run_cli(checkout):
    """{file name: bytes} of the A6 commands run by ``checkout`` in an
    empty directory; the standard output of ``eval`` is one more file."""
    checkout = Path(checkout).resolve()
    env = child_env(checkout)
    with tempfile.TemporaryDirectory() as tmp:
        for argv in CLI_COMMANDS:
            proc = subprocess.run(
                [sys.executable, "-m", "driftwatch.cli", *argv], env=env,
                cwd=tmp, capture_output=True, check=False,
                timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"{checkout} driftwatch {argv[0]} failed:"
                                   f"\n{proc.stderr.decode()}")
        files = {path.name: path.read_bytes() for path in Path(tmp).iterdir()}
    files[EVAL_STDOUT] = proc.stdout  # the last command is eval
    return files


def numeric_diff(old, new):
    """Largest |difference| between the numbers of two texts; inf when the
    text between the numbers differs."""
    old_parts, new_parts = NUMBER.split(old), NUMBER.split(new)
    if len(old_parts) != len(new_parts) or old_parts[::2] != new_parts[::2]:
        return math.inf

    def value(text):
        return float.fromhex(text) if "x" in text else float(text)

    return max((abs(value(p) - value(c))
                for p, c in zip(old_parts[1::2], new_parts[1::2]) if p != c),
               default=0.0)


def compare_cli(parent_dir, change_dir):
    """Prints one line per CLI output file; returns the number that do not
    match."""
    parent, change = run_cli(parent_dir), run_cli(change_dir)
    bad = 0
    for name in sorted(parent.keys() | change.keys()):
        if name not in parent or name not in change:
            bad += 1
            side = "parent" if name not in parent else "change"
            print(f"cli {name:14s} MISMATCH missing in the {side}")
            continue
        if parent[name] == change[name]:
            print(f"cli {name:14s} match  identical bytes")
            continue
        diff = numeric_diff(parent[name].decode(), change[name].decode())
        ok = diff <= G_RAW_TOL
        bad += not ok
        print(f"cli {name:14s} {'match ' if ok else 'MISMATCH'} "
              f"max|dnumber| {diff:.1e}", flush=True)
    return bad


def run_child(checkout, workload, seed):
    """Set up and stream one pass inside ``checkout``; returns the record."""
    checkout = Path(checkout).resolve()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child",
         str(checkout), workload, str(seed)],
        env=child_env(checkout), cwd=checkout, capture_output=True,
        text=True, check=False, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout} {workload} seed {seed} failed:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def child(checkout, workload, seed):
    """Runs in the subprocess; prints one JSON record."""
    import driftwatch
    from driftwatch import advisor
    import pipeline
    import workloads

    src = Path(checkout).resolve() / "src" / "driftwatch"
    if Path(driftwatch.__file__).resolve().parent != src:
        raise RuntimeError(f"imported driftwatch from {driftwatch.__file__}")
    spec = workloads.WORKLOADS[workload]
    data, _ = workloads.generate(spec, seed)
    window = [data[:, :, k].copy() for k in range(spec.window)]
    events = [data[:, :, spec.window + k].copy() for k in range(spec.events)]
    del data

    g_raw = []
    process_event = advisor.process_event

    def recording(state, slice_ij):
        state, verdict = process_event(state, slice_ij)
        g_raw.append(verdict.g_raw)
        return state, verdict

    with tempfile.TemporaryDirectory() as tmp:
        bundle = Path(tmp) / "bundle.json"
        _, state = pipeline.setup(window, str(bundle))
        digest = hashlib.sha256(bundle.read_bytes()).hexdigest()
        leaves = json_leaves(json.loads(bundle.read_text()))
    advisor.process_event = recording  # stream_pass looks it up per call
    result = pipeline.stream_pass(state, events)
    advisor.process_event = process_event
    final = result.state.model
    ok, diff, _, _ = pipeline.final_model_check(final)
    print(json.dumps({
        "actions": result.actions,
        "failures": len(result.failures),
        "migrations": [[ev["case_id"], ev["index"]]
                       for ev in result.state.migration_log],
        "bundle_sha256": digest,
        "bundle_leaves": leaves,
        "final_model_check": ok,
        "final_model_diff": diff,
        "final_model": {"n": final.n, "alpha": final.alpha.tolist(),
                        "rho": final.rho},
        "g_raw": g_raw,
    }))


def model_diff(old, new):
    """Largest |delta alpha| or |delta rho| of two final models; inf when
    their training sizes differ."""
    if old["n"] != new["n"]:
        return float("inf")
    return max(abs(old["rho"] - new["rho"]),
               *(abs(p - c) for p, c in zip(old["alpha"], new["alpha"])))


def compare(parent, change):
    """(mismatch names, max |delta g_raw|, final model diff) between two
    child records."""
    bad = [key for key in ("actions", "migrations", "bundle_sha256")
           if parent[key] != change[key]]
    if parent["failures"] or change["failures"]:
        bad.append("failures")
    if not (parent["final_model_check"] and change["final_model_check"]):
        bad.append("final_model_check")
    dm = model_diff(parent["final_model"], change["final_model"])
    if not dm <= G_RAW_TOL:
        bad.append("final_model")
    if len(parent["g_raw"]) != len(change["g_raw"]):
        bad.append("g_raw")
        return bad, float("inf"), dm
    dg = max((abs(p - c) for p, c in zip(parent["g_raw"], change["g_raw"])),
             default=0.0)
    if not dg <= G_RAW_TOL:
        bad.append("g_raw")
    return bad, dg, dm


def main(argv):
    if len(argv) == 4 and argv[0] == "--child":
        child(argv[1], argv[2], int(argv[3]))
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent_dir, change_dir = argv
    for d in argv:
        if not (Path(d) / "streambench" / "workloads.py").is_file():
            print(f"error: {d} has no streambench/workloads.py",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(Path(change_dir, "streambench").resolve()))
    sys.path.insert(0, str(Path(change_dir, "src").resolve()))
    import workloads

    mismatches = int(compare_cli(parent_dir, change_dir) > 0)
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            parent = run_child(parent_dir, workload, seed)
            change = run_child(change_dir, workload, seed)
            bad, dg, dm = compare(parent, change)
            mismatches += bool(bad)
            inserts = change["actions"].count("update_model")
            print(f"{workload:16s} seed {seed}: "
                  f"{'MISMATCH ' + ','.join(bad) if bad else 'match':28s} "
                  f"max|dg_raw| {dg:.1e}  max|dmodel| {dm:.1e}  "
                  f"inserts {inserts}  "
                  f"migrations {len(change['migrations'])}  "
                  f"A3 diff {parent['final_model_diff']:.1e}/"
                  f"{change['final_model_diff']:.1e}", flush=True)
            if "bundle_sha256" in bad:
                print("\n".join(bundle_diff(parent, change)
                                or ["    bundle: same JSON, other bytes"]),
                      flush=True)
    print("behaviour matches" if not mismatches
          else f"{mismatches} runs differ (the CLI leg counts as one)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
