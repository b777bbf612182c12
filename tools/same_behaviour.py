"""Check that two checkouts of driftwatch behave the same.

Usage, from anywhere:

    python3 tools/same_behaviour.py PARENT_DIR CHANGE_DIR

Each checkout runs in subprocesses, with one BLAS thread, that import
its own ``src/`` and ``streambench/``. There are three legs.

1. CLI. Each checkout runs the commands of acceptance test A6, plus one
   ``stream`` each under ``--policy threshold`` and ``--policy none``, in
   an empty directory of its own. One line is printed per output file,
   the standard output of ``eval`` included. Files match when the text
   between their numbers (hex floats included) is equal and no number
   differs by more than ``G_RAW_TOL``; a file that does not prints its
   largest numeric difference and, for JSON, the paths that differ.

2. Set-up. One subprocess per checkout runs ``pipeline.setup`` for every
   workload of ``streambench/workloads.py`` and seeds 1-3, nine runs, and
   keeps each set-up bundle; the parent's also saves each input tensor.
   One line is printed per bundle. The bundles must be byte-identical; a
   bundle that is not prints the JSON paths that differ.

3. Replay. A last subprocess, in which neither checkout is importable as
   ``driftwatch``, copies each ``src/driftwatch`` under a name of its own
   (``dw_parent``, ``dw_change``; the package imports itself only
   relatively). For every run it loads each side from the bundle its own
   checkout wrote and steps the two ``PipelineState``s through the
   parent's input together, ``ROUNDS`` passes, timing every
   ``process_event`` with the side that goes first alternating from event
   to event. Each event must give the same action on both sides, no
   exception on either and |delta g_raw| at most ``G_RAW_TOL``; verdicts
   that are bit-identical (every field with its type, by ``exact``) are
   counted. After the first pass both sides must have the same
   ``(case_id, index)`` sequence of insert migrations (per-case counts are
   printed when it differs) and number of batch-retrain fallbacks, and
   final models of the same training size n, with |delta alpha| and
   |delta rho| at most ``G_RAW_TOL``, that each pass ``kkt_partition`` and
   match a batch retrain within A3's 1e-5. One line per run gives these
   and the median and quartiles over the passes of the pass-time ratio
   change/parent. Last, every ``add_sample`` call of the parent's first
   passes, kept in memory, is replayed through both packages: the new
   training rows and dual coefficients must be identical byte for byte,
   rho bit for bit, the migration events field by field with the types of
   their numbers, or the same error with the same message. Each insert is
   timed ``ROUNDS`` times per side, interleaved, the side that goes first
   alternating, so a slow spell of the host lands on both sides; the
   median and quartiles of the per-insert ratio change/parent are printed.

The exit status is 1 on any mismatch, 2 with one ``error:`` line when a
checkout cannot be run, 0 otherwise. Nothing under ``streambench/``
changes.
"""

import importlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

SEEDS = (1, 2, 3)
G_RAW_TOL = 1e-12
A3_TOL = 1e-5  # final model vs batch retrain, as in acceptance test A3
CHILD_TIMEOUT_S = 1800
ROUNDS = 7
SIDES = ("parent", "change")
# as streambench/run.py: one BLAS thread, set before numpy is imported
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the commands of acceptance test A6, in order, with two more streams so
# that every update policy runs; "eval" writes to stdout
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
    *(["stream", "--bundle", "b.json", "--tensor", "t.csv", "--policy", p,
       "--verdicts", f"v_{p}.csv", "--metrics", f"m_{p}.json",
       "--migrations", f"mig_{p}.jsonl"] for p in ("threshold", "none")),
    ["eval", "--verdicts", "v.csv", "--labels", "t.labels.csv"],
)
EVAL_STDOUT = "eval.stdout"
# a hex float as to_hex writes it, or a decimal number; the group keeps the
# numbers in re.split's output
NUMBER = re.compile(r"(-?0x[0-9a-f]+(?:\.[0-9a-f]*)?p[-+]\d+"
                    r"|-?\d+(?:\.\d*)?(?:e[-+]?\d+)?|-?inf|nan)")


class CheckoutError(Exception):
    """A checkout cannot run a leg; the message is one line."""


def json_leaves(value, path=""):
    """{dotted path: JSON text} for every non-object leaf."""
    if not isinstance(value, dict):
        return {path: json.dumps(value, sort_keys=True)}
    leaves = {}
    for key, item in value.items():
        leaves.update(json_leaves(item, f"{path}.{key}" if path else key))
    return leaves


def leaf_diff(what, old, new):
    """Lines naming the JSON paths of ``what`` added or removed, and one
    line per changed path with its largest absolute numeric difference;
    ``old`` and ``new`` are ``json_leaves`` of the two files."""
    groups = (("added", sorted(new.keys() - old.keys())),
              ("removed", sorted(old.keys() - new.keys())))
    lines = [f"    {what} {name}: {', '.join(paths)}"
             for name, paths in groups if paths]
    lines += [f"    {what} changed: {path:24s} "
              f"max|dnumber| {numeric_diff(old[path], new[path]):.1e}"
              for path in sorted(old.keys() & new.keys())
              if old[path] != new[path]]
    return lines


def child_env(checkout):
    """The environment of a subprocess that imports ``checkout``, or, when
    it is None, no checkout as ``driftwatch``."""
    env = dict(os.environ, **{var: "1" for var in BLAS_ENV})
    env["PYTHONPATH"] = "" if checkout is None else os.pathsep.join(
        [str(checkout / "src"), str(checkout / "streambench")])
    return env


def run(argv, env, cwd, what):
    """The standard output of ``argv`` as bytes; raises CheckoutError
    naming ``what`` when it fails or times out."""
    try:
        proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True,
                              check=False, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise CheckoutError(f"{what} ran over {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        last = proc.stderr.decode(errors="replace").strip().splitlines()
        raise CheckoutError(f"{what} failed: "
                            f"{last[-1] if last else proc.returncode}")
    return proc.stdout


def run_child(what, env, *args):
    """Runs this file with ``args``; prints what it prints but the last
    line, a JSON value, which it returns."""
    *lines, last = run([sys.executable, str(Path(__file__).resolve()),
                        *args], env, None, what).decode().splitlines()
    if lines:
        print("\n".join(lines), flush=True)
    return json.loads(last)


def run_cli(checkout):
    """{file name: bytes} of the A6 commands run by ``checkout`` in an
    empty directory; the standard output of ``eval`` is one more file."""
    env = child_env(checkout)
    with tempfile.TemporaryDirectory() as tmp:
        for argv in CLI_COMMANDS:
            stdout = run([sys.executable, "-m", "driftwatch.cli", *argv],
                         env, tmp, f"{checkout} driftwatch {argv[0]}")
        files = {path.name: path.read_bytes() for path in Path(tmp).iterdir()}
    files[EVAL_STDOUT] = stdout  # the last command is eval
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


def compare_files(leg, parent, change, tol=None):
    """Prints one line per file of ``leg``, given as {name: bytes} per
    side; returns the number that do not match. A file matches when its
    bytes are equal or, with a ``tol``, when no number differs by more."""
    names = sorted(parent.keys() | change.keys())
    width = max(map(len, names), default=0)
    bad = 0
    for name in names:
        head = f"{leg} {name:{width}s}"
        if name not in parent or name not in change:
            bad += 1
            side = "parent" if name not in parent else "change"
            print(f"{head} MISMATCH missing in the {side}")
            continue
        if parent[name] == change[name]:
            print(f"{head} match  identical bytes")
            continue
        diff = numeric_diff(parent[name].decode(), change[name].decode())
        ok = tol is not None and diff <= tol
        bad += not ok
        print(f"{head} {'match ' if ok else 'MISMATCH'} "
              f"max|dnumber| {diff:.1e}", flush=True)
        if not ok and (name.endswith(".json") or name == EVAL_STDOUT):
            old, new = (json_leaves(json.loads(files[name]))
                        for files in (parent, change))
            print("\n".join(leaf_diff(name, old, new)
                            or [f"    {name}: same JSON, other text"]),
                  flush=True)
    return bad


def setup(checkout, out, *save_inputs):
    """Runs in the subprocess: writes the set-up bundle of every workload
    and seed to the directory ``out`` and, given ``save_inputs``, the
    input tensor and window length next to it as npz; prints the run names
    as JSON."""
    import driftwatch
    import pipeline
    import workloads

    src = Path(checkout).resolve() / "src" / "driftwatch"
    if Path(driftwatch.__file__).resolve().parent != src:
        raise RuntimeError(f"imported driftwatch from {driftwatch.__file__}")
    runs = []
    for workload, spec in workloads.WORKLOADS.items():
        for seed in SEEDS:
            runs.append(f"{workload}_seed{seed}")
            data, _ = workloads.generate(spec, seed)
            if save_inputs:
                np.savez(Path(out) / f"{runs[-1]}.npz", data=data,
                         window=spec.window)
            pipeline.setup([data[:, :, k].copy() for k in range(spec.window)],
                           str(Path(out) / f"{runs[-1]}.json"))
    print(json.dumps(runs))


def compare_setup(parent_dir, change_dir, work):
    """Sets up every run in both checkouts, under ``work``/parent and
    ``work``/change, and prints one line per bundle; returns the number of
    bundles that differ and the runs both checkouts set up."""
    runs = []
    for side, checkout in zip(SIDES, (parent_dir, change_dir)):
        (work / side).mkdir()
        runs.append(run_child(f"{checkout} set-up", child_env(checkout),
                              "--setup", str(checkout), str(work / side),
                              *(["inputs"] if side == "parent" else [])))
    bundles = [{path.name: path.read_bytes()
                for path in (work / side).glob("*.json")} for side in SIDES]
    return (compare_files("bundle", *bundles),
            [name for name in runs[0] if name in runs[1]])


def exact(value):
    """A value with its type; a float by its bits, so -0.0 is not 0.0."""
    return (type(value).__name__,
            value.hex() if isinstance(value, float) else value)


def outcome(pkg, model, x_c):
    """What ``pkg``'s insert returns, as comparable values."""
    try:
        new, events = pkg.incremental.add_sample(model, x_c)
    except Exception as exc:  # compared like any other outcome
        return ("raised", type(exc).__name__, str(exc))
    return (new.x.tobytes(), new.alpha.tobytes(), new.rho.hex(),
            [tuple(exact(v) for v in vars(ev).values()) for ev in events])


def final_check(pkg, model):
    """``pipeline.final_model_check`` through ``pkg``, which this process
    cannot import as ``driftwatch``: (KKT holds and the training decision
    values are within A3_TOL of a batch retrain, their largest
    difference)."""
    try:
        pkg.ocsvm.kkt_partition(model)
    except pkg.errors.KktViolationError:
        return False, math.inf
    batch = pkg.ocsvm.train_batch(model.x, model.nu, model.kernel)
    diff = float(np.max(np.abs(model.training_decision_values()
                               - batch.training_decision_values())))
    return diff <= A3_TOL, diff


def model_diff(old, new):
    """Largest |delta alpha| or |delta rho| of two models; inf when their
    training sizes differ."""
    if old.n != new.n:
        return math.inf
    return max(abs(old.rho - new.rho),
               float(np.max(np.abs(old.alpha - new.alpha))))


def case_counts(migrations):
    """A migration sequence's length and its count per case id, as text."""
    counts = Counter(case for case, _ in migrations)
    return (f"{len(migrations)} ("
            + ", ".join(f"case{c} {counts[c]}" for c in sorted(counts)) + ")")


def ratio_text(times):
    """Median and quartiles of change/parent over rows of (parent, change)
    times, as text."""
    times = np.asarray(times, dtype=np.float64)
    q1, q2, q3 = np.percentile(times[:, 1] / times[:, 0], [25, 50, 75])
    return f"median {q2:.3f} (quartiles {q1:.3f} / {q3:.3f})"


def step_run(pkgs, work, name):
    """Steps both packages' pipelines through run ``name`` ``ROUNDS``
    times, each side from the bundle its own checkout wrote; prints the
    run's line and returns whether it matches and the parent's
    ``(model, x_c)`` insert calls of the first pass."""
    with np.load(work / "parent" / f"{name}.npz") as npz:
        data, w = npz["data"], int(npz["window"])
    slices = [data[:, :, k].copy() for k in range(data.shape[2])]
    add_sample, inserts = pkgs[0].advisor.add_sample, []

    def recording(model, x_c):
        inserts.append((model, np.array(x_c)))
        return add_sample(model, x_c)

    counts = dict.fromkeys(("actions", "errors", "g_raw", "migrations",
                            "retrain_fallbacks", "final_model",
                            "final_model_check"), 0)
    same, dg, passes = 0, 0.0, []
    pkgs[0].advisor.add_sample = recording  # _incorporate looks it up per call
    for r in range(ROUNDS):
        states = [pkg.advisor.PipelineState(*pkg.files.load_bundle(
            work / side / f"{name}.json", slices[:w])[1:])
            for pkg, side in zip(pkgs, SIDES)]
        ns = [0, 0]
        for i, slice_ij in enumerate(slices[w:]):
            verdicts = [None, None]
            for side in (0, 1) if (r + i) % 2 == 0 else (1, 0):
                t0 = time.perf_counter_ns()
                try:
                    states[side], v = pkgs[side].advisor.process_event(
                        states[side], slice_ij)
                    verdicts[side] = (v.time_index, v.g_raw, v.p_env,
                                      v.g_advised, v.action.value)
                except Exception as exc:  # counted, as stream_pass does
                    verdicts[side] = ("raised", type(exc).__name__, str(exc))
                ns[side] += time.perf_counter_ns() - t0
            old, new = verdicts
            same += [*map(exact, old)] == [*map(exact, new)]
            counts["actions"] += old[-1] != new[-1]
            counts["errors"] += "raised" in (old[0], new[0])
            if "raised" not in (old[0], new[0]):
                counts["g_raw"] += not abs(old[1] - new[1]) <= G_RAW_TOL
                dg = max(dg, abs(old[1] - new[1]))
        passes.append(ns)
        if r == 0:
            pkgs[0].advisor.add_sample = add_sample
            logs = [[(ev["case_id"], ev["index"]) for ev in s.migration_log]
                    for s in states]
            fallbacks = [s.retrain_fallbacks for s in states]
            checks = [final_check(p, s.model) for p, s in zip(pkgs, states)]
            dm = model_diff(states[0].model, states[1].model)
            counts["migrations"] += logs[0] != logs[1]
            counts["retrain_fallbacks"] += fallbacks[0] != fallbacks[1]
            counts["final_model"] += not dm <= G_RAW_TOL
            counts["final_model_check"] += not (checks[0][0]
                                                and checks[1][0])
    bad = [key for key, n in counts.items() if n]
    mid = np.median(passes, axis=0) / 1e6
    print(f"{name:22s} {'MISMATCH ' + ','.join(bad) if bad else 'match':24s}"
          f" verdicts {ROUNDS * (len(slices) - w)}, bit-identical {same}; "
          f"max|dg_raw| {dg:.1e}  max|dmodel| {dm:.1e}  inserts "
          f"{len(inserts)}  migrations {len(logs[1])}  fallbacks "
          f"{fallbacks[0]}/{fallbacks[1]}  A3 diff {checks[0][1]:.1e}/"
          f"{checks[1][1]:.1e}; pass ms parent {mid[0]:.1f}, change "
          f"{mid[1]:.1f}; ratio change/parent {ratio_text(passes)}")
    if "migrations" in bad:
        print(f"    migrations parent {case_counts(logs[0])}, "
              f"change {case_counts(logs[1])}")
    return not bad, inserts


def replay_inserts(pkgs, inserts):
    """Replays and times every ``(run, k, model, x_c)`` insert through both
    packages; prints the inserts that differ and a summary, and returns
    their number."""
    differ, medians = 0, []
    for name, k, recorded, x_c in inserts:
        models = [pkg.ocsvm.OcsvmModel(
            recorded.x, recorded.alpha, recorded.rho, recorded.nu,
            pkg.ocsvm.KernelSpec(recorded.kernel.kind, recorded.kernel.sigma))
            for pkg in pkgs]
        if outcome(pkgs[0], models[0], x_c) != outcome(pkgs[1], models[1],
                                                       x_c):
            differ += 1
            print(f"{name} insert {k} (n = {recorded.n}): DIFFERS")
        times = [[], []]
        for r in range(ROUNDS):
            for side in (0, 1) if (len(medians) + r) % 2 == 0 else (1, 0):
                t0 = time.perf_counter_ns()
                try:
                    pkgs[side].incremental.add_sample(models[side], x_c)
                except Exception:
                    pass  # compared above
                times[side].append(time.perf_counter_ns() - t0)
        medians.append((np.median(times, axis=1) / 1e6).tolist())
    if medians:
        mid = np.median(medians, axis=0)
        print(f"inserts {len(medians)}, identical {len(medians) - differ}, "
              f"differ {differ}")
        print(f"per-insert median ms: parent {mid[0]:.3f}, change "
              f"{mid[1]:.3f} ({ROUNDS} interleaved rounds per insert)")
        print(f"per-insert ratio change/parent: {ratio_text(medians)}")
    return differ


def replay(parent_dir, change_dir, work, *runs):
    """Runs in the subprocess: steps ``runs`` through both checkouts and
    replays the parent's inserts; prints a line per run, the inserts'
    summary and, last, the numbers of runs and of inserts that differ."""
    bad, inserts = 0, []
    with tempfile.TemporaryDirectory() as tmp:
        for side, checkout in zip(SIDES, (parent_dir, change_dir)):
            shutil.copytree(Path(checkout) / "src" / "driftwatch",
                            Path(tmp) / f"dw_{side}")
        sys.path.insert(0, tmp)
        # the package imports its errors, incremental and ocsvm modules
        pkgs = [importlib.import_module(f"dw_{side}") for side in SIDES]
        for name in runs:
            ok, calls = step_run(pkgs, Path(work), name)
            bad += not ok
            inserts += [(name, k, *call) for k, call in enumerate(calls)]
        differ = replay_inserts(pkgs, inserts)
    print(json.dumps([bad, differ]))


def compare_replay(parent_dir, change_dir, work, runs):
    """Steps ``runs``, set up under ``work``, through both checkouts in the
    replay subprocess; returns the numbers of runs and of inserts that
    differ."""
    return run_child("the replay", child_env(None), "--replay",
                     str(parent_dir), str(change_dir), str(work), *runs)


def main(argv):
    if argv[:1] in (["--setup"], ["--replay"]):  # a subprocess of the tool
        (setup if argv[0] == "--setup" else replay)(*argv[1:])
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent_dir, change_dir = (Path(d).resolve() for d in argv)
    for path in (d / sub for d in (parent_dir, change_dir)
                 for sub in ("streambench/workloads.py",
                             "src/driftwatch/incremental.py")):
        if not path.is_file():
            print(f"error: {path} not found", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        try:
            cli = compare_files("cli", run_cli(parent_dir),
                                run_cli(change_dir), G_RAW_TOL)
            bundles, names = compare_setup(parent_dir, change_dir, Path(tmp))
            runs, inserts = compare_replay(parent_dir, change_dir, Path(tmp),
                                           names)
        except CheckoutError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if not cli + bundles + runs + inserts:
        print("behaviour matches")
        return 0
    print(f"differ: {cli} CLI files, {bundles} bundles, {runs} runs, "
          f"{inserts} inserts")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
