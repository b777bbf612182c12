"""Check that two checkouts of driftwatch behave the same.

Usage, from anywhere:

    python3 tools/same_behaviour.py PARENT_DIR CHANGE_DIR

Each checkout runs in subprocesses, with one BLAS thread, that import its
own ``src/`` and ``streambench/``. There are three legs.

1. CLI. Each checkout runs A6's commands and a ``stream`` each under
   ``--policy threshold`` and ``--policy none`` in an empty directory.
   One line is printed per output file, ``eval``'s stdout included. Files
   match when the text between their numbers is equal and no number (hex
   floats included) differs by more than ``G_RAW_TOL``; one that does not
   prints its largest difference and, for JSON, the paths that differ.

2. Set-up. One subprocess per checkout runs ``pipeline.setup`` for every
   workload of ``streambench/workloads.py`` and seeds 1-3. The nine
   bundles must be byte-identical; one line is printed per bundle, and
   one that differs prints its JSON paths that do. The parent's also
   saves each input tensor and, for seed 1, the window-fit settings.

3. Replay. A last subprocess, in which neither checkout is importable as
   ``driftwatch``, imports a copy of each ``src/driftwatch`` as
   ``dw_parent`` and ``dw_change``. Every timing interleaves the sides,
   the side that goes first alternating, and prints the median and
   quartiles of the ratio change/parent.
   - Each seed-1 window is fitted as ``pipeline.setup`` fits it,
     ``FIT_ROUNDS`` times, timed in process CPU time: factors,
     velocities, step counter and generator state must be byte-identical.
   - Each run's two ``PipelineState``s, loaded from the bundles, step
     through the parent's input, ``ROUNDS`` passes. Each event must give
     the same action, no exception and |delta g_raw| <= ``G_RAW_TOL``;
     bit-identical verdicts (each field and its type) are counted. After
     the first pass the sides must have the same ``(case_id, index)``
     insert migrations and retrain fallbacks, and final models of one
     size, within ``G_RAW_TOL``, that pass ``kkt_partition`` and match a
     batch retrain within A3's 1e-5.
   - The parent's ``add_sample`` calls of the first passes are replayed,
     ``ROUNDS`` times: new rows and dual coefficients must be identical
     byte for byte, rho bit for bit, migration events field by field with
     the types of their numbers, or the error and its message the same.

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
FIT_ROUNDS = 3
# pipeline.setup's window-fit settings, those of acceptance test A4
FIT = ("RANK", "EPOCHS", "SEED", "FRICTION", "LR_B")
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
            if save_inputs:  # a seed-1 run's also keeps the fit settings
                fit = {key: getattr(pipeline, key) for key in FIT}
                np.savez(Path(out) / f"{runs[-1]}.npz", data=data,
                         window=spec.window, **fit if seed == SEEDS[0] else {})
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


def fit_window(pkgs, window, fit, name):
    """Fits ``window`` through both packages as ``pipeline.setup`` does,
    with its ``fit`` settings, ``FIT_ROUNDS`` times; prints the run's fit
    line and returns whether the fits differ."""
    fits, times = [None, None], []
    for r in range(FIT_ROUNDS):
        times.append([0, 0])
        for side in (0, 1) if r % 2 == 0 else (1, 0):
            dc, t0 = pkgs[side].decomp, time.process_time_ns()
            d = dc.decompose_stream_init(
                pkgs[side].DenseTensor3(window), fit["RANK"],
                dc.OptimizerKind.NESGD, dc.StreamOptions(
                    fit["EPOCHS"], seed=fit["SEED"], friction=fit["FRICTION"],
                    lr=dc.LrSchedule.for_slices(window.shape, fit["LR_B"])))
            times[-1][side] = time.process_time_ns() - t0
            fits[side] = [m.tobytes() for m in (*vars(d.factors).values(),
                          d.state.vel_a, d.state.vel_b, d.state.vel_c)] + [
                d.state.step, d.state.rng.bit_generator.state]
    mid = np.median(times, axis=0) / 1e6
    print(f"{name:22s} fit {'match' if fits[0] == fits[1] else 'MISMATCH'}; "
          f"CPU ms parent {mid[0]:.0f}, change {mid[1]:.0f}; "
          f"ratio change/parent {ratio_text(times)}")
    return fits[0] != fits[1]


def step_run(pkgs, work, name):
    """Steps both packages' pipelines through run ``name`` ``ROUNDS``
    times, each side from the bundle its own checkout wrote; prints the
    run's line and returns whether it matches and the parent's
    ``(model, x_c)`` insert calls of the first pass."""
    with np.load(work / "parent" / f"{name}.npz") as npz:
        data, w = npz["data"], int(npz["window"])
        fit = {key: npz[key].item() for key in FIT if key in npz}
    slices = [data[:, :, k].copy() for k in range(data.shape[2])]
    add_sample, inserts = pkgs[0].advisor.add_sample, []

    def recording(model, x_c):
        inserts.append((model, np.array(x_c)))
        return add_sample(model, x_c)

    counts = Counter()  # mismatches by kind, in the order first counted
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
    counts["fit"] = bool(fit) and fit_window(pkgs, data[:, :, :w], fit, name)
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
              f"differ {differ}; per-insert ms parent {mid[0]:.3f}, change "
              f"{mid[1]:.3f}; ratio change/parent {ratio_text(medians)}")
    return differ


def replay(parent_dir, change_dir, work, *runs):
    """Runs in the subprocess: fits, steps and replays ``runs`` through
    both checkouts; prints a line per fit and per run, the inserts' summary
    and, last, the numbers of runs (fits included) and inserts that differ."""
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
    """Replays ``runs``, set up under ``work``, in the replay subprocess;
    returns the numbers of runs and of inserts that differ."""
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
