"""Command-line front end: synth, bench, train, stream, eval.

Exit codes: 0 success, 2 invalid input (including a missing, malformed or
unwritable file), 3 numerical failure.
All data files are written deterministically for fixed seeds; wall-clock
timings go to stderr only.
"""

import argparse
import csv
import json
import sys
import time
from contextlib import contextmanager

from . import advisor, synth
from .advisor import Action, AdvisorConfig, PipelineState, UpdatePolicy
from .decomp import (
    NesgdState,
    OptimizerKind,
    StreamDecomposition,
    StreamOptions,
    decompose_stream_init,
    init_factors,
    sgd_sweep,
)
from .errors import (
    DivergedError,
    EmptyStreamError,
    IoError,
    NumericalError,
    ShapeMismatchError,
    ValidationError,
)
from .ocsvm import KernelSpec, OcsvmModel, median_pairwise_sigma, train_batch
from .tensor import (
    DenseTensor3,
    KruskalFactors,
    from_hex,
    load_tensor_csv,
    rmse,
    save_factor_csv,
    save_tensor_csv,
    to_hex,
)


def make_lr(a: float, b: float):
    """Schedule eta(t) = a / (1 + b*t); (1, 1) is the benchmark 1/(1+t)."""
    return lambda t: a / (1.0 + b * t)


@contextmanager
def _reading(path, what):
    try:
        with open(path, newline="") as fh:
            yield fh
    except OSError as exc:
        raise IoError(f"cannot read {what} from {path}: {exc}") from exc


@contextmanager
def _writing(path, what):
    try:
        with open(path, "w", newline="") as fh:
            yield fh
    except OSError as exc:
        raise IoError(f"cannot write {what} to {path}: {exc}") from exc


def labels_path(tensor_path: str) -> str:
    root = tensor_path.rsplit(".", 1)[0]
    return root + ".labels.csv"


def write_labels(path, labels):
    with _writing(path, "labels") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "label"])
        for k, lab in enumerate(labels):
            w.writerow([k, lab])


def read_labels(path, n=None):
    """Labels of time steps 0..n-1 (n defaults to the row count).

    Every step needs exactly one row; a ``k`` that is out of range,
    repeated or missing is a ValidationError.
    """
    with _reading(path, "labels") as fh:
        rows = list(csv.DictReader(fh))
    labels = [None] * (len(rows) if n is None else n)
    for row in rows:
        try:
            k, label = int(row["k"]), row["label"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed labels file {path}: {exc!r}") \
                from exc
        if not 0 <= k < len(labels) or labels[k] is not None:
            raise ValidationError(
                f"labels file {path}: k = {k} is out of range or repeated")
        labels[k] = label
    if None in labels:
        raise ValidationError(
            f"labels file {path} has no label for k = {labels.index(None)}")
    return labels


# ---------------------------------------------------------------- bundle io

def save_bundle(path, window, decomp: StreamDecomposition, model: OcsvmModel,
                snapshot, config: AdvisorConfig, lr_params, meta=None):
    f = decomp.factors
    st = decomp.state
    payload = {
        "window": window,
        "rank": f.rank,
        "kind": decomp.kind.value,
        "factors": {"a": to_hex(f.a), "b": to_hex(f.b), "c": to_hex(f.c)},
        "state": {
            "vel_a": to_hex(st.vel_a), "vel_b": to_hex(st.vel_b),
            "vel_c": to_hex(st.vel_c),
            "friction": to_hex(st.friction),
            "perturb_sigma": to_hex(st.perturb_sigma),
            "l1_beta": to_hex(st.l1_beta),
            "step": st.step, "rng_seed": st.rng_seed,
            "rng_state": st.rng.bit_generator.state,
            "lr": {"a": to_hex(lr_params[0]), "b": to_hex(lr_params[1])},
        },
        "model": model.to_dict(),
        "snapshot": {"b": to_hex(snapshot.b_matrix),
                     "knn": to_hex(snapshot.knn_scores)},
        "config": {
            "k_neighbors": config.k_neighbors,
            "gamma_change": to_hex(config.gamma_change),
            "confidence": to_hex(config.confidence),
            "update_policy": config.update_policy.value,
            "threshold": to_hex(config.threshold),
        },
        "meta": meta or {},
    }
    with _writing(path, "bundle") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def load_bundle(path, window_slices):
    """(window, decomp, model, snapshot, config) from a bundle file.

    An unreadable file is an IoError; anything that is not a well-formed
    bundle is a ValidationError.
    """
    with _reading(path, "bundle") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise ValidationError(f"bundle {path} is not JSON: {exc}") \
                from exc
    try:
        f = KruskalFactors(from_hex(payload["factors"]["a"]),
                           from_hex(payload["factors"]["b"]),
                           from_hex(payload["factors"]["c"]))
        sp = payload["state"]
        state = NesgdState(
            vel_a=from_hex(sp["vel_a"]),
            vel_b=from_hex(sp["vel_b"]),
            vel_c=from_hex(sp["vel_c"]),
            friction=from_hex(sp["friction"]),
            lr=make_lr(from_hex(sp["lr"]["a"]), from_hex(sp["lr"]["b"])),
            perturb_sigma=from_hex(sp["perturb_sigma"]),
            l1_beta=from_hex(sp["l1_beta"]),
            step=sp["step"],
            rng_seed=sp["rng_seed"],
        )
        state.rng.bit_generator.state = sp["rng_state"]
        decomp = StreamDecomposition(f, state, OptimizerKind(payload["kind"]),
                                     list(window_slices))
        model = OcsvmModel.from_dict(payload["model"])
        snapshot = advisor.LocationSnapshot(
            from_hex(payload["snapshot"]["b"]),
            from_hex(payload["snapshot"]["knn"]),
        )
        cp = payload["config"]
        config = AdvisorConfig(
            k_neighbors=cp["k_neighbors"],
            gamma_change=from_hex(cp["gamma_change"]),
            confidence=from_hex(cp["confidence"]),
            update_policy=UpdatePolicy(cp["update_policy"]),
            threshold=from_hex(cp["threshold"]),
        )
        window = int(payload["window"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed bundle {path}: {exc!r}") from exc
    return window, decomp, model, snapshot, config


# ----------------------------------------------------------------- metrics

def compute_metrics(verdict_rows, labels, far_window=100):
    """Windowed false-alarm rates plus overall detection rate.

    ``verdict_rows`` are dicts with absolute time index "t" and "action".
    """
    if far_window < 1:
        raise ValidationError(f"far window {far_window} must be >= 1")
    far_per_window = []
    healthy_hits = anomalies = detected = 0
    win_healthy = win_false = 0
    for idx, row in enumerate(verdict_rows):
        label = labels[int(row["t"])]
        reported = row["action"] == Action.REPORT_ANOMALY.value
        if label == synth.LABEL_ANOMALY:
            anomalies += 1
            detected += int(reported)
        else:
            win_healthy += 1
            win_false += int(reported)
            healthy_hits += 1
        if (idx + 1) % far_window == 0:
            far_per_window.append(
                win_false / win_healthy if win_healthy else 0.0)
            win_healthy = win_false = 0
    if win_healthy or win_false:
        far_per_window.append(win_false / win_healthy if win_healthy else 0.0)
    detection = detected / anomalies if anomalies else None
    return {
        "false_alarm_rate_per_window": far_per_window,
        "detection_rate": detection,
        "healthy_events": healthy_hits,
        "anomalous_events": anomalies,
        "far_window": far_window,
    }


# ---------------------------------------------------------------- commands

def cmd_synth(args):
    drift = None
    if args.drift_start_k is not None:
        locations = "ALL"
        if args.drift_locations and args.drift_locations != "ALL":
            locations = [int(v) for v in args.drift_locations.split(",")]
        drift = synth.DriftSpec(args.drift_start_k, args.drift_mu_shift,
                                args.drift_sigma_scale, locations)
    anomalies = None
    if args.anomaly_steps:
        steps = [int(v) for v in args.anomaly_steps.split(",")]
        anomalies = synth.AnomalySpec(steps, args.anomaly_location,
                                      args.anomaly_mu_shift,
                                      args.anomaly_sigma_scale)
    spec = synth.SynthSpec(
        dims=(args.i, args.j, args.k), rank_true=args.rank, seed=args.seed,
        noise_sigma=args.noise_sigma, drift=drift, anomalies=anomalies,
    )
    tensor, labels, _ = synth.generate(spec)
    save_tensor_csv(tensor, args.out)
    write_labels(labels_path(args.out), labels)
    meta = {
        "dims": list(spec.dims), "rank_true": spec.rank_true,
        "seed": spec.seed, "noise_sigma": spec.noise_sigma,
        "drift": None if drift is None else {
            "start_k": drift.start_k, "mu_shift": drift.mu_shift,
            "sigma_scale": drift.sigma_scale,
            "locations": drift.locations},
        "anomalies": None if anomalies is None else {
            "time_steps": anomalies.time_steps,
            "location": anomalies.location,
            "mu_shift": anomalies.mu_shift,
            "sigma_scale": anomalies.sigma_scale},
    }
    with _writing(args.out.rsplit(".", 1)[0] + ".meta.json", "meta") as fh:
        json.dump(meta, fh, sort_keys=True)
        fh.write("\n")
    return 0


def run_benchmark(tensor: DenseTensor3, rank, kinds, seed, lr_params,
                  rmse_every=10, friction=0.9, perturb_sigma=1e-3,
                  l1_beta=1e-4):
    """Single pass over the time mode per optimizer; shared initialization."""
    traces = {}
    k_n = tensor.dims[2]
    for kind in kinds:
        f = init_factors(tensor.dims, rank, seed)
        state = NesgdState.zeros(
            tensor.dims, rank, friction=friction,
            lr=make_lr(*lr_params), perturb_sigma=perturb_sigma,
            l1_beta=l1_beta, rng_seed=seed,
        )
        trace = [(0, rmse(tensor, f))]
        try:
            for k in range(k_n):
                f, state = sgd_sweep(tensor, f, state, kind, k)
                if (k + 1) % rmse_every == 0 or k == k_n - 1:
                    trace.append((k + 1, rmse(tensor, f)))
        except DivergedError:
            pass  # truncated trace is the recorded outcome
        traces[kind] = trace
    return traces


def cmd_bench(args):
    tensor = load_tensor_csv(args.tensor)
    kinds = [OptimizerKind(v) for v in args.optimizers.split(",")]
    traces = run_benchmark(
        tensor, args.rank, kinds, args.seed, (args.lr_a, args.lr_b),
        rmse_every=args.rmse_every, perturb_sigma=args.perturb_sigma,
        l1_beta=args.l1_beta, friction=args.friction,
    )
    with _writing(args.out, "traces") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "rmse", "optimizer"])
        for kind in kinds:
            for step, value in traces[kind]:
                w.writerow([step, repr(value), kind.value])
    return 0


def cmd_train(args):
    tensor = load_tensor_csv(args.tensor)
    k_n = tensor.dims[2]
    if args.window > k_n:
        raise ValidationError(f"window {args.window} exceeds K = {k_n}")
    window = DenseTensor3(tensor.data[:, :, : args.window])
    lr_a = args.lr_a
    if lr_a <= 0:  # auto: stable default for the slice size
        lr_a = 4.0 / (tensor.dims[0] * tensor.dims[1])
    opts = StreamOptions(
        epochs=args.epochs, seed=args.seed,
        lr=make_lr(lr_a, args.lr_b),
    )
    decomp = decompose_stream_init(window, args.rank,
                                   OptimizerKind(args.optimizer), opts)
    c_rows = decomp.factors.c
    sigma = args.sigma if args.sigma > 0 else median_pairwise_sigma(c_rows)
    model = train_batch(c_rows, args.nu, KernelSpec(args.kernel, sigma))
    gamma = args.gamma_change
    if gamma <= 0:
        gamma = advisor.calibrate_gamma_change(decomp, args.k_neighbors)
    config = AdvisorConfig(
        k_neighbors=args.k_neighbors, gamma_change=gamma,
        confidence=args.confidence,
        update_policy=UpdatePolicy(args.policy),
        threshold=args.threshold,
    )
    snapshot = advisor.LocationSnapshot.capture(decomp.factors.b,
                                                args.k_neighbors)
    meta = {"tensor": args.tensor, "train_rmse": repr(rmse(window,
                                                           decomp.factors))}
    save_bundle(args.out, args.window, decomp, model, snapshot, config,
                (lr_a, args.lr_b), meta)
    if args.factors_prefix:
        for name, mat in (("a", decomp.factors.a), ("b", decomp.factors.b),
                          ("c", decomp.factors.c)):
            save_factor_csv(mat, f"{args.factors_prefix}_{name}.csv")
    return 0


def cmd_stream(args):
    tensor = load_tensor_csv(args.tensor)
    k_n = tensor.dims[2]
    window, decomp, model, snapshot, config = load_bundle(args.bundle, [])
    if k_n <= window:
        raise EmptyStreamError("no events after the training window")
    if decomp.factors.a.shape[0] != tensor.dims[0] \
            or decomp.factors.b.shape[0] != tensor.dims[1]:
        raise ShapeMismatchError("bundle factors do not match tensor dims")
    if args.policy:
        config.update_policy = UpdatePolicy(args.policy)
    if args.far_window < 1:
        raise ValidationError(f"far window {args.far_window} must be >= 1")
    labels = None
    try:
        labels = read_labels(labels_path(args.tensor), k_n)
    except IoError:
        print("no labels file; skipping metrics", file=sys.stderr)
    state = PipelineState(decomp, model, snapshot, config)
    started = time.monotonic()
    rows = []
    for k in range(window, k_n):
        state, verdict = advisor.process_event(state, tensor.slice_at(k))
        rows.append({
            "t": window + verdict.time_index,
            "g_raw": verdict.g_raw, "p_env": verdict.p_env,
            "g_advised": verdict.g_advised, "action": verdict.action.value,
        })
    runtime_ms = int(1000 * (time.monotonic() - started))
    with _writing(args.verdicts, "verdicts") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "g_raw", "p_env", "g_advised", "action"])
        for row in rows:
            w.writerow([row["t"], repr(row["g_raw"]), repr(row["p_env"]),
                        repr(row["g_advised"]), row["action"]])
    if args.migrations:
        with _writing(args.migrations, "migrations") as fh:
            for ev in state.migration_log:
                fh.write(json.dumps(ev, sort_keys=True))
                fh.write("\n")
    if labels is not None and args.metrics:
        metrics = compute_metrics(rows, labels, args.far_window)
        with _writing(args.metrics, "metrics") as fh:
            json.dump(metrics, fh, sort_keys=True)
            fh.write("\n")
    print(f"streamed {len(rows)} events in {runtime_ms} ms", file=sys.stderr)
    return 0


def cmd_eval(args):
    with _reading(args.verdicts, "verdicts") as fh:
        rows = list(csv.DictReader(fh))
    labels = read_labels(args.labels)
    try:
        metrics = compute_metrics(rows, labels, args.far_window)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ValidationError(
            f"verdicts {args.verdicts} do not match the labels: {exc!r}") \
            from exc
    json.dump(metrics, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return 0


# ------------------------------------------------------------------ parser

def build_parser():
    p = argparse.ArgumentParser(prog="driftwatch")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a synthetic labeled tensor")
    s.add_argument("--i", type=int, default=60)
    s.add_argument("--j", type=int, default=12)
    s.add_argument("--k", type=int, default=2000)
    s.add_argument("--rank", type=int, default=2)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--noise-sigma", type=float, default=0.0)
    s.add_argument("--drift-start-k", type=int, default=None)
    s.add_argument("--drift-mu-shift", type=float, default=0.0)
    s.add_argument("--drift-sigma-scale", type=float, default=1.0)
    s.add_argument("--drift-locations", default="ALL")
    s.add_argument("--anomaly-steps", default="")
    s.add_argument("--anomaly-location", type=int, default=0)
    s.add_argument("--anomaly-mu-shift", type=float, default=2.0)
    s.add_argument("--anomaly-sigma-scale", type=float, default=1.0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_synth)

    b = sub.add_parser("bench", help="compare optimizer RMSE traces")
    b.add_argument("--tensor", required=True)
    b.add_argument("--rank", type=int, default=2)
    b.add_argument("--optimizers", default="sgd,psgd,nesgd")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--lr-a", type=float, default=1.0)
    b.add_argument("--lr-b", type=float, default=1.0)
    b.add_argument("--rmse-every", type=int, default=10)
    b.add_argument("--friction", type=float, default=0.9)
    b.add_argument("--perturb-sigma", type=float, default=1e-3)
    b.add_argument("--l1-beta", type=float, default=1e-4)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_bench)

    t = sub.add_parser("train", help="fit the window and build a bundle")
    t.add_argument("--tensor", required=True)
    t.add_argument("--window", type=int, required=True)
    t.add_argument("--rank", type=int, default=2)
    t.add_argument("--nu", type=float, default=0.05)
    t.add_argument("--kernel", default="rbf", choices=["rbf", "linear"])
    t.add_argument("--sigma", type=float, default=0.0,
                   help="RBF bandwidth; <= 0 selects the median heuristic")
    t.add_argument("--optimizer", default="nesgd",
                   choices=[k.value for k in OptimizerKind])
    t.add_argument("--epochs", type=int, default=60)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--lr-a", type=float, default=0.0,
                   help="base learning rate; <= 0 picks 4/(I*J)")
    t.add_argument("--lr-b", type=float, default=1e-4)
    t.add_argument("--k-neighbors", type=int, default=3)
    t.add_argument("--gamma-change", type=float, default=0.0,
                   help="<= 0 auto-calibrates from the training window")
    t.add_argument("--confidence", type=float, default=0.9)
    t.add_argument("--policy", default="tensor_advised",
                   choices=[p.value for p in UpdatePolicy])
    t.add_argument("--threshold", type=float, default=-0.5)
    t.add_argument("--factors-prefix", default="")
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_train)

    st = sub.add_parser("stream", help="run the streaming pipeline")
    st.add_argument("--bundle", required=True)
    st.add_argument("--tensor", required=True)
    st.add_argument("--policy", default="")
    st.add_argument("--far-window", type=int, default=100)
    st.add_argument("--verdicts", required=True)
    st.add_argument("--metrics", default="")
    st.add_argument("--migrations", default="")
    st.set_defaults(func=cmd_stream)

    e = sub.add_parser("eval", help="recompute metrics from verdicts")
    e.add_argument("--verdicts", required=True)
    e.add_argument("--labels", required=True)
    e.add_argument("--far-window", type=int, default=100)
    e.set_defaults(func=cmd_eval)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, IoError) as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
