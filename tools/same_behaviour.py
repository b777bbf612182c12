"""Check that two checkouts of driftwatch behave the same.

Usage, from anywhere:

    python3 tools/same_behaviour.py PARENT_DIR CHANGE_DIR

Each checkout runs in subprocesses, with one BLAS thread, that import
its own ``src/`` and ``streambench/``. There are four legs.

1. CLI. Each checkout runs the commands of acceptance test A6, plus one
   ``stream`` each under ``--policy threshold`` and ``--policy none``, in
   an empty directory of its own. One line is printed per output file,
   the standard output of ``eval`` included. Files match when the text
   between their numbers (hex floats included) is equal and no number
   differs by more than ``G_RAW_TOL``; a file that does not prints its
   largest numeric difference and, for JSON, the paths that differ.

2. Workloads. For every workload of ``streambench/workloads.py`` and seeds
   1-3, each checkout runs ``pipeline.setup`` and one ``stream_pass``. One
   line is printed per run. The two must agree on the action of every
   event, the ``(case_id, index)`` sequence of insert migrations (per-case
   counts are printed when it differs), the number of batch-retrain
   fallbacks, and the sha256 of the set-up bundle (the JSON paths that
   differ are printed when it does). ``final_model_check`` must hold on
   both final models, which must have the same training size, with
   |delta alpha|, |delta rho| and every event's |delta g_raw| at most
   ``G_RAW_TOL``. The parent's runs record every ``add_sample`` call, and
   its seed-1 runs save the set-up bundle and the input tensor.

3. Inserts. A last subprocess, in which neither checkout is importable as
   ``driftwatch``, copies each ``src/driftwatch`` under a name of its own
   (``dw_parent``, ``dw_change``; the package imports itself only
   relatively) and replays every recorded insert through both
   ``incremental.add_sample``. The results must be identical: the new
   training rows and dual coefficients byte for byte, rho bit for bit,
   the migration events field by field with the types of their numbers,
   or the same error with the same message. Each insert is timed
   ``ROUNDS`` times per side, interleaved, the side that goes first
   alternating, so a slow spell of the host lands on both sides; the
   median and quartiles of the per-insert ratio change/parent are printed.

4. Events. The same subprocess loads each saved bundle through both
   checkouts' ``files.load_bundle`` and steps the two ``PipelineState``s
   through the workload's events together, ``ROUNDS`` passes from the
   bundle, timing each ``process_event``, the side that goes first
   alternating on every event. Verdicts are compared field by field with
   ``exact``; an action that differs (or an error on one side only) is a
   mismatch. One line per workload gives the number of verdicts, how many
   are bit-identical, and the median and quartiles over the passes of
   the pass-time ratio change/parent.

The exit status is 1 on any mismatch, 2 with one ``error:`` line when a
checkout cannot be run, 0 otherwise. Nothing under ``streambench/``
changes.
"""

import hashlib
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
    """Runs this file with ``args``; returns the JSON record it prints."""
    out = run([sys.executable, str(Path(__file__).resolve()), *args], env,
              None, what)
    return json.loads(out.splitlines()[-1])


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


def compare_cli(parent_dir, change_dir):
    """Prints one line per CLI output file; returns the number that do not
    match."""
    parent, change = run_cli(parent_dir), run_cli(change_dir)
    bad = 0
    for name in sorted(parent.keys() | change.keys()):
        if name not in parent or name not in change:
            bad += 1
            side = "parent" if name not in parent else "change"
            print(f"cli {name:19s} MISMATCH missing in the {side}")
            continue
        if parent[name] == change[name]:
            print(f"cli {name:19s} match  identical bytes")
            continue
        diff = numeric_diff(parent[name].decode(), change[name].decode())
        ok = diff <= G_RAW_TOL
        bad += not ok
        print(f"cli {name:19s} {'match ' if ok else 'MISMATCH'} "
              f"max|dnumber| {diff:.1e}", flush=True)
        if not ok and (name.endswith(".json") or name == EVAL_STDOUT):
            old, new = (json_leaves(json.loads(files[name]))
                        for files in (parent, change))
            print("\n".join(leaf_diff(name, old, new)
                            or [f"    {name}: same JSON, other text"]),
                  flush=True)
    return bad


class InsertRecorder:
    """Stands in for ``add_sample`` and keeps every call's model and
    inserted vector."""

    def __init__(self, add_sample):
        self.add_sample, self.arrays, self.meta = add_sample, {}, []

    def __call__(self, model, x_c, *args, **kwargs):
        k = len(self.meta)
        self.arrays[f"x{k}"] = model.x.copy()
        self.arrays[f"alpha{k}"] = model.alpha.copy()
        self.arrays[f"xc{k}"] = np.array(x_c, dtype=np.float64)
        self.meta.append({"rho": model.rho.hex(), "nu": model.nu.hex(),
                          "kind": model.kernel.kind,
                          "sigma": float(model.kernel.sigma).hex()})
        return self.add_sample(model, x_c, *args, **kwargs)

    def save(self, path):
        """Writes the calls to the npz file ``path``."""
        np.savez(path, meta=json.dumps(self.meta), **self.arrays)


def child(checkout, workload, seed, corpus=None, bundle_copy=None):
    """Runs in the subprocess: sets up and streams one pass, saves its
    inserts to the npz file ``corpus`` and its set-up bundle to
    ``bundle_copy`` (the input tensor and window length next to it, as
    npz) if they are given, and prints one JSON record."""
    import driftwatch
    from driftwatch import advisor
    import pipeline
    import workloads

    src = Path(checkout).resolve() / "src" / "driftwatch"
    if Path(driftwatch.__file__).resolve().parent != src:
        raise RuntimeError(f"imported driftwatch from {driftwatch.__file__}")
    spec = workloads.WORKLOADS[workload]
    data, _ = workloads.generate(spec, int(seed))
    window = [data[:, :, k].copy() for k in range(spec.window)]
    events = [data[:, :, spec.window + k].copy() for k in range(spec.events)]
    if bundle_copy:
        np.savez(Path(bundle_copy).with_suffix(".npz"), data=data,
                 window=spec.window)
    del data

    g_raw = []
    process_event = advisor.process_event
    inserts = InsertRecorder(advisor.add_sample)

    def recording(state, slice_ij):
        state, verdict = process_event(state, slice_ij)
        g_raw.append(verdict.g_raw)
        return state, verdict

    with tempfile.TemporaryDirectory() as tmp:
        bundle = Path(tmp) / "bundle.json"
        _, state = pipeline.setup(window, str(bundle))
        digest = hashlib.sha256(bundle.read_bytes()).hexdigest()
        leaves = json_leaves(json.loads(bundle.read_text()))
        if bundle_copy:
            shutil.copyfile(bundle, bundle_copy)
    # stream_pass and _incorporate look these up per call
    advisor.process_event, advisor.add_sample = recording, inserts
    result = pipeline.stream_pass(state, events)
    if corpus:
        inserts.save(corpus)
    final = result.state.model
    ok, diff, _, _ = pipeline.final_model_check(final)
    print(json.dumps({
        "actions": result.actions,
        "failures": len(result.failures),
        "retrain_fallbacks": result.state.retrain_fallbacks,
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


def case_counts(record):
    """A run's migration total and its count per case id, as text."""
    counts = Counter(case for case, _ in record["migrations"])
    return (f"{len(record['migrations'])} ("
            + ", ".join(f"case{c} {counts[c]}" for c in sorted(counts)) + ")")


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
    bad = [key for key in ("actions", "migrations", "retrain_fallbacks",
                           "bundle_sha256")
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


def compare_workloads(parent_dir, change_dir, corpus_dir):
    """Prints one line per workload and seed; returns the number of runs
    that do not match and the files the replay reads: the npz files of the
    parent's inserts and its seed-1 bundles."""
    sys.path[:0] = [str(change_dir / "src"), str(change_dir / "streambench")]
    import workloads
    mismatches, corpora, bundles = 0, [], []
    for workload in workloads.WORKLOADS:
        bundles.append(corpus_dir / f"{workload}.json")
        for seed in SEEDS:
            corpora.append(corpus_dir / f"{workload}_seed{seed}.npz")
            saved = [corpora[-1]] + ([bundles[-1]] if seed == 1 else [])
            parent, change = (
                run_child(f"{d} {workload} seed {seed}", child_env(d),
                          "--child", str(d), workload, str(seed), *args)
                for d, args in ((parent_dir, map(str, saved)),
                                (change_dir, [])))
            bad, dg, dm = compare(parent, change)
            mismatches += bool(bad)
            print(f"{workload:16s} seed {seed}: "
                  f"{'MISMATCH ' + ','.join(bad) if bad else 'match':28s} "
                  f"max|dg_raw| {dg:.1e}  max|dmodel| {dm:.1e}  "
                  f"inserts {change['actions'].count('update_model')}  "
                  f"migrations {len(change['migrations'])}  "
                  f"fallbacks {parent['retrain_fallbacks']}/"
                  f"{change['retrain_fallbacks']}  "
                  f"A3 diff {parent['final_model_diff']:.1e}/"
                  f"{change['final_model_diff']:.1e}", flush=True)
            if "migrations" in bad:
                print(f"    migrations parent {case_counts(parent)}, "
                      f"change {case_counts(change)}", flush=True)
            if "bundle_sha256" in bad:
                print("\n".join(leaf_diff("bundle", parent["bundle_leaves"],
                                          change["bundle_leaves"])
                                or ["    bundle: same JSON, other bytes"]),
                      flush=True)
    return mismatches, corpora + bundles


def outcome(pkg, model, x_c):
    """What ``pkg``'s insert returns, as comparable values."""
    try:
        new, events = pkg.incremental.add_sample(model, x_c)
    except pkg.errors.DriftwatchError as exc:
        return ("raised", type(exc).__name__, str(exc))
    return (new.x.tobytes(), new.alpha.tobytes(), new.rho.hex(),
            [tuple(exact(v) for v in vars(ev).values()) for ev in events])


def exact(value):
    """A value with its type; a float by its bits, so -0.0 is not 0.0."""
    return (type(value).__name__,
            value.hex() if isinstance(value, float) else value)


def step_both(pkgs, bundle):
    """Steps both packages' pipelines, loaded from ``bundle``, through the
    events saved next to it, ``ROUNDS`` times; returns a JSON record."""
    with np.load(Path(bundle).with_suffix(".npz")) as npz:
        data, w = npz["data"], int(npz["window"])
    slices = [data[:, :, k].copy() for k in range(data.shape[2])]
    same = differ = 0
    passes = []
    for r in range(ROUNDS):
        states = [pkg.advisor.PipelineState(
            *pkg.files.load_bundle(bundle, slices[:w])[1:]) for pkg in pkgs]
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
                except pkgs[side].errors.DriftwatchError as exc:
                    verdicts[side] = ("raised", type(exc).__name__, str(exc))
                ns[side] += time.perf_counter_ns() - t0
            same += [*map(exact, verdicts[0])] == [*map(exact, verdicts[1])]
            differ += verdicts[0][-1] != verdicts[1][-1]
        passes.append(ns)
    return {"verdicts": ROUNDS * (len(slices) - w), "identical": same,
            "differ": differ, "pass_ns": passes}


def replay(parent_dir, change_dir, *corpora):
    """Runs in the subprocess: replays and times every insert saved in the
    npz files of ``corpora`` and steps the pipelines of its json bundles
    through both checkouts; prints one JSON record."""
    differ, medians = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for side, checkout in zip(SIDES, (parent_dir, change_dir)):
            shutil.copytree(Path(checkout) / "src" / "driftwatch",
                            Path(tmp) / f"dw_{side}")
        sys.path.insert(0, tmp)
        # the package imports its errors, incremental and ocsvm modules
        pkgs = [importlib.import_module(f"dw_{side}") for side in SIDES]
        events = {Path(b).stem: step_both(pkgs, b)
                  for b in corpora if b.endswith(".json")}
        for corpus in (c for c in corpora if c.endswith(".npz")):
            with np.load(corpus) as npz:
                data = dict(npz)
            for k, rec in enumerate(json.loads(str(data["meta"]))):
                x_c = data[f"xc{k}"]
                models = [pkg.ocsvm.OcsvmModel(
                    data[f"x{k}"], data[f"alpha{k}"],
                    float.fromhex(rec["rho"]), float.fromhex(rec["nu"]),
                    pkg.ocsvm.KernelSpec(rec["kind"],
                                         float.fromhex(rec["sigma"])))
                    for pkg in pkgs]
                results = [outcome(p, m, x_c) for p, m in zip(pkgs, models)]
                if results[0] != results[1]:
                    differ.append(f"{Path(corpus).stem} insert {k} "
                                  f"(n = {models[0].n})")
                times = [[], []]
                for r in range(ROUNDS):
                    for side in ((0, 1) if (len(medians) + r) % 2 == 0
                                 else (1, 0)):
                        t0 = time.perf_counter_ns()
                        try:
                            pkgs[side].incremental.add_sample(models[side],
                                                              x_c)
                        except pkgs[side].errors.DriftwatchError:
                            pass  # compared above
                        times[side].append(time.perf_counter_ns() - t0)
                medians.append((np.median(times, axis=1) / 1e6).tolist())
    print(json.dumps({"differ": differ, "medians_ms": medians,
                      "events": events}))


def ratio_text(times):
    """Median and quartiles of change/parent over rows of (parent, change)
    times, as text."""
    times = np.asarray(times, dtype=np.float64)
    q1, q2, q3 = np.percentile(times[:, 1] / times[:, 0], [25, 50, 75])
    return f"median {q2:.3f} (quartiles {q1:.3f} / {q3:.3f})"


def compare_replay(parent_dir, change_dir, corpora):
    """Replays the inserts and steps the events saved in ``corpora``
    through both checkouts; prints the result and returns the number of
    inserts and verdict actions that differ."""
    record = run_child("the replay", child_env(None), "--replay",
                       str(parent_dir), str(change_dir), *map(str, corpora))
    medians = record["medians_ms"]
    for name in record["differ"]:
        print(f"{name}: DIFFERS")
    differ = len(record["differ"])
    if medians:
        mid = np.median(medians, axis=0)
        print(f"inserts {len(medians)}, identical {len(medians) - differ}, "
              f"differ {differ}")
        print(f"per-insert median ms: parent {mid[0]:.3f}, change "
              f"{mid[1]:.3f} ({ROUNDS} interleaved rounds per insert)")
        print(f"per-insert ratio change/parent: {ratio_text(medians)}")
    for name, ev in record["events"].items():
        differ += ev["differ"]
        mid = np.median(ev["pass_ns"], axis=0) / 1e6
        print(f"events {name:16s} verdicts {ev['verdicts']}, bit-identical "
              f"{ev['identical']}, actions differ {ev['differ']}; pass ms "
              f"parent {mid[0]:.1f}, change {mid[1]:.1f}; ratio "
              f"change/parent {ratio_text(ev['pass_ns'])}", flush=True)
    return differ


def main(argv):
    if argv[:1] in (["--child"], ["--replay"]):  # a subprocess of the tool
        (child if argv[0] == "--child" else replay)(*argv[1:])
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
            cli = compare_cli(parent_dir, change_dir) > 0
            runs, corpora = compare_workloads(parent_dir, change_dir,
                                              Path(tmp))
            mismatches = cli + runs + (
                compare_replay(parent_dir, change_dir, corpora) > 0)
        except CheckoutError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print("behaviour matches" if not mismatches
          else f"runs that differ: {mismatches} (the CLI leg counts as "
               f"one, the insert and event legs as one together)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
