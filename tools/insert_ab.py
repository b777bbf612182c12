"""Replay the benchmark's inserts through two checkouts' ``add_sample``.

Usage, from anywhere:

    python3 tools/insert_ab.py PARENT_DIR CHANGE_DIR

The parent checkout first streams one pass of ``drift_staircase`` for each
of seeds 1-3 and one pass of ``steady`` for seed 1, the way
``tools/same_behaviour.py`` does, and records every
``add_sample(model, x)`` call the advisor makes: the model's training
rows, dual coefficients, rho, nu and kernel, and the inserted vector.

A second process then copies each checkout's ``src/driftwatch`` package
under a name of its own (``dw_parent``, ``dw_change``; the package imports
itself only relatively), imports both and replays every recorded insert
through both ``incremental.add_sample``. The two results must be
identical: the bytes of the new training rows and dual coefficients, rho
bit for bit, and every migration event field by field, with the types of
its numbers; an insert that raises must raise the same error with the
same message on both.

Each insert is timed ``ROUNDS`` times per side, interleaved, the side that
goes first alternating, so a slow spell of the host lands on both sides.
The tool prints the median over the inserts of each side's per-insert
median, and the median and quartiles of the per-insert ratio of the
change's median to the parent's.

The exit status is 1 when any insert differs, 2 when a checkout cannot
be run, 0 otherwise. Both processes run with one BLAS thread. Nothing
under ``streambench/`` is modified.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from same_behaviour import CHILD_TIMEOUT_S, child_env

PASSES = (("drift_staircase", 1), ("drift_staircase", 2),
          ("drift_staircase", 3), ("steady", 1))
ROUNDS = 7
SIDES = ("parent", "change")
DIFFER = 3  # exit status of a replay that found a difference


def record(checkout, out):
    """Runs in a child importing ``checkout``: streams every pass of
    ``PASSES`` and saves each ``add_sample`` call to the npz file ``out``."""
    import numpy as np

    import driftwatch
    import pipeline
    import workloads
    from driftwatch import advisor

    src = Path(checkout).resolve() / "src" / "driftwatch"
    if Path(driftwatch.__file__).resolve().parent != src:
        raise RuntimeError(f"imported driftwatch from {driftwatch.__file__}")
    arrays, meta = {}, []
    add_sample = advisor.add_sample

    def recording(model, x_c, *args, **kwargs):
        k = len(meta)
        arrays[f"x{k}"] = model.x.copy()
        arrays[f"alpha{k}"] = model.alpha.copy()
        arrays[f"xc{k}"] = np.array(x_c, dtype=np.float64)
        meta.append({"rho": model.rho.hex(), "nu": model.nu.hex(),
                     "kind": model.kernel.kind,
                     "sigma": float(model.kernel.sigma).hex()})
        return add_sample(model, x_c, *args, **kwargs)

    advisor.add_sample = recording  # _incorporate looks it up per call
    for workload, seed in PASSES:
        spec = workloads.WORKLOADS[workload]
        data, _ = workloads.generate(spec, seed)
        window = [data[:, :, k].copy() for k in range(spec.window)]
        events = [data[:, :, spec.window + k].copy()
                  for k in range(spec.events)]
        with tempfile.TemporaryDirectory() as tmp:
            _, state = pipeline.setup(window, str(Path(tmp) / "b.json"))
        pipeline.stream_pass(state, events)
    advisor.add_sample = add_sample
    np.savez(out, meta=json.dumps(meta), **arrays)


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


def replay(parent_dir, change_dir, corpus):
    """Runs in a child: replays ``corpus`` through both checkouts' inserts;
    prints the result and returns the number of inserts that differ."""
    import importlib

    import numpy as np

    with tempfile.TemporaryDirectory() as tmp:
        pkgs = []
        for side, checkout in zip(SIDES, (parent_dir, change_dir)):
            shutil.copytree(Path(checkout) / "src" / "driftwatch",
                            Path(tmp) / f"dw_{side}")
        sys.path.insert(0, tmp)
        for side in SIDES:
            pkg = importlib.import_module(f"dw_{side}")
            for sub in ("errors", "incremental", "ocsvm"):
                importlib.import_module(f"dw_{side}.{sub}")
            pkgs.append(pkg)
        return compare(pkgs, np.load(corpus))


def compare(pkgs, data):
    """Replays and times every insert of ``data``; prints the result and
    returns the number of inserts that differ."""
    import time

    import numpy as np

    meta = json.loads(str(data["meta"]))
    clock = time.perf_counter_ns
    medians = np.empty((len(meta), 2))
    differ = 0
    for k, rec in enumerate(meta):
        x_c = data[f"xc{k}"]
        models = [pkg.ocsvm.OcsvmModel(
            data[f"x{k}"], data[f"alpha{k}"], float.fromhex(rec["rho"]),
            float.fromhex(rec["nu"]),
            pkg.ocsvm.KernelSpec(rec["kind"], float.fromhex(rec["sigma"])))
            for pkg in pkgs]
        results = [outcome(pkg, m, x_c) for pkg, m in zip(pkgs, models)]
        if results[0] != results[1]:
            differ += 1
            print(f"insert {k}: DIFFERS (n = {models[0].n})", flush=True)
        times = [[], []]
        for r in range(ROUNDS):
            for side in ((0, 1) if (k + r) % 2 == 0 else (1, 0)):
                t0 = clock()
                try:
                    pkgs[side].incremental.add_sample(models[side], x_c)
                except pkgs[side].errors.DriftwatchError:
                    pass  # compared above
                times[side].append(clock() - t0)
        medians[k] = np.median(times, axis=1) / 1e6
    ratios = medians[:, 1] / medians[:, 0]
    mid = np.median(medians, axis=0)
    q1, q2, q3 = np.percentile(ratios, [25, 50, 75])
    print(f"inserts {len(meta)}, identical {len(meta) - differ}, "
          f"differ {differ}")
    print(f"per-insert median ms: parent {mid[0]:.3f}, change {mid[1]:.3f} "
          f"({ROUNDS} interleaved rounds per insert)")
    print(f"per-insert ratio change/parent: median {q2:.3f} "
          f"(quartiles {q1:.3f} / {q3:.3f})")
    return differ


def run_child(args, env):
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           *args], env=env, check=False,
                          timeout=CHILD_TIMEOUT_S)
    return proc.returncode


def main(argv):
    if len(argv) == 3 and argv[0] == "--record":
        record(argv[1], argv[2])
        return 0
    if len(argv) == 4 and argv[0] == "--replay":
        return DIFFER if replay(*argv[1:]) else 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent_dir, change_dir = (Path(d).resolve() for d in argv)
    for path in (parent_dir / "streambench" / "workloads.py",
                 *(d / "src" / "driftwatch" / "incremental.py"
                   for d in (parent_dir, change_dir))):
        if not path.is_file():
            print(f"error: {path} not found", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        corpus = str(Path(tmp) / "inserts.npz")
        if run_child(["--record", str(parent_dir), corpus],
                     child_env(parent_dir)) != 0:
            print("error: recording the parent's inserts failed",
                  file=sys.stderr)
            return 2
        env = child_env(change_dir)
        env["PYTHONPATH"] = ""  # each checkout is imported under its own name
        code = run_child(["--replay", str(parent_dir), str(change_dir),
                          corpus], env)
    if code not in (0, DIFFER):
        print("error: the replay failed", file=sys.stderr)
        return 2
    print("inserts match" if code == 0 else "inserts differ")
    return 1 if code else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
