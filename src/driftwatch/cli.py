"""Command-line front end: synth, bench, train, stream, eval.

Exit codes: 0 success, 2 invalid input (including a missing, malformed or
unwritable file), 3 numerical failure.
All data files are written deterministically for fixed seeds; wall-clock
timings go to stderr only.
"""

import argparse
import json
import sys
import time
from dataclasses import asdict, replace

from . import advisor, synth
from .advisor import Action, AdvisorConfig, PipelineState, UpdatePolicy
from .decomp import (
    LrSchedule,
    OptimizerKind,
    StreamOptions,
    decompose_stream_init,
    run_benchmark,
    window_rmse,
)
from .errors import (
    EmptyStreamError,
    IoError,
    NumericalError,
    ValidationError,
    check_int,
)
from .files import (
    labels_path,
    load_bundle,
    load_tensor_csv,
    parsing,
    read_labels,
    read_verdicts,
    save_bundle,
    save_factor_csv,
    save_tensor_csv,
    sibling,
    write_json,
    write_labels,
    write_migrations,
    write_traces,
    write_verdicts,
)
from .ocsvm import KernelSpec, check_nu, median_pairwise_sigma, train_batch
from .tensor import DenseTensor3

make_lr = LrSchedule  # streambench/pipeline.py calls it by this name


# ----------------------------------------------------------------- metrics

def compute_metrics(verdict_rows, labels, far_window=100):
    """False-alarm rate per window of ``far_window`` verdicts (the last may
    be shorter; 0.0 with no healthy verdict) plus overall detection rate.

    ``verdict_rows`` are dicts with absolute time index "t" (an int) and
    "action"; a ``t`` outside the labels is a ValidationError.
    """
    if far_window < 1:
        raise ValidationError(f"far window {far_window} must be >= 1")
    marks = []  # (fault, reported) per verdict
    for row in verdict_rows:
        if not 0 <= row["t"] < len(labels):
            raise ValidationError(
                f"verdict t = {row['t']} has no label (0..{len(labels) - 1})")
        marks.append((labels[row["t"]] == synth.LABEL_ANOMALY,
                      row["action"] == Action.REPORT_ANOMALY.value))
    far_per_window = []
    for start in range(0, len(marks), far_window):
        healthy = [rep for fault, rep in marks[start:start + far_window]
                   if not fault]
        far_per_window.append(sum(healthy) / len(healthy) if healthy else 0.0)
    faults = [rep for fault, rep in marks if fault]
    return {
        "false_alarm_rate_per_window": far_per_window,
        "detection_rate": sum(faults) / len(faults) if faults else None,
        "healthy_events": len(marks) - len(faults),
        "anomalous_events": len(faults),
        "far_window": far_window,
    }


# ---------------------------------------------------------------- commands

def lr_schedule(args, dims):
    """``--lr-a 0`` picks 4/(I*J); a negative or infinite rate is a
    ValidationError."""
    return LrSchedule.for_slices(dims, args.lr_b) if args.lr_a == 0 \
        else LrSchedule(args.lr_a, args.lr_b)


def cmd_synth(args):
    drift = None
    if args.drift_start_k is not None:
        locations = "ALL"
        if args.drift_locations and args.drift_locations != "ALL":
            with parsing("--drift-locations"):
                locations = [int(v) for v in args.drift_locations.split(",")]
        drift = synth.DriftSpec(args.drift_start_k, args.drift_mu_shift,
                                args.drift_sigma_scale, locations)
    anomalies = None
    if args.anomaly_steps:
        with parsing("--anomaly-steps"):
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
    write_json(sibling(args.out, ".meta.json"), "meta", asdict(spec))
    return 0


def cmd_bench(args):
    with parsing("--optimizers"):
        kinds = [OptimizerKind(v) for v in args.optimizers.split(",")]
    tensor = load_tensor_csv(args.tensor)
    opts = StreamOptions(seed=args.seed, friction=args.friction,
                         lr=lr_schedule(args, tensor.dims),
                         perturb_sigma=args.perturb_sigma,
                         l1_beta=args.l1_beta)
    traces = run_benchmark(tensor, args.rank, kinds, opts, args.rmse_every)
    write_traces(args.out, kinds, traces)
    return 0


def cmd_train(args):
    tensor = load_tensor_csv(args.tensor)
    k_n = tensor.dims[2]
    if not 1 <= args.window <= k_n:
        raise ValidationError(f"window {args.window} is not in 1..K = {k_n}")
    check_int(args.rank, "rank", 1)  # settings are checked before the fit
    check_nu(args.nu, args.window)  # the window's rows train the model
    window = DenseTensor3(tensor.data[:, :, : args.window])
    lr = lr_schedule(args, tensor.dims)
    opts = StreamOptions(epochs=args.epochs, seed=args.seed, lr=lr)
    auto_gamma = args.gamma_change <= 0  # calibrated after the fit
    gamma = AdvisorConfig.gamma_change if auto_gamma else args.gamma_change
    config = AdvisorConfig(
        k_neighbors=args.k_neighbors, gamma_change=gamma,
        confidence=args.confidence,
        update_policy=UpdatePolicy(args.policy),
        threshold=args.threshold,
    )
    # the median heuristic (--sigma <= 0) needs the fitted temporal rows
    kernel = None if args.sigma <= 0 else KernelSpec(args.kernel, args.sigma)
    decomp = decompose_stream_init(window, args.rank,
                                   OptimizerKind(args.optimizer), opts)
    c_rows = decomp.factors.c
    if kernel is None:
        kernel = KernelSpec(args.kernel, median_pairwise_sigma(c_rows))
    model = train_batch(c_rows, args.nu, kernel)
    if auto_gamma:
        config = replace(config, gamma_change=advisor.calibrate_gamma_change(
            decomp, args.k_neighbors))
    state = PipelineState.start(decomp, model, config)
    meta = {"tensor": args.tensor,
            "train_rmse": repr(window_rmse(window, decomp.factors))}
    save_bundle(args.out, args.window, decomp, model, state.snapshot, config,
                (lr.a, lr.b), meta)
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
    if args.policy:
        with parsing("--policy"):
            config = replace(config, update_policy=UpdatePolicy(args.policy))
    labels = None
    if args.metrics:  # checked before the stream: bad input leaves no output
        if args.far_window < 1:
            raise ValidationError(f"far window {args.far_window} must be >= 1")
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
    write_verdicts(args.verdicts, rows)
    if args.migrations:
        write_migrations(args.migrations, state.migration_log)
    if labels is not None:
        write_json(args.metrics, "metrics",
                   compute_metrics(rows, labels, args.far_window))
    print(f"streamed {len(rows)} events in {runtime_ms} ms", file=sys.stderr)
    return 0


def cmd_eval(args):
    rows = read_verdicts(args.verdicts)
    metrics = compute_metrics(rows, read_labels(args.labels), args.far_window)
    json.dump(metrics, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return 0


# ------------------------------------------------------------------ parser

def build_parser():
    adv = AdvisorConfig
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
    b.add_argument("--lr-a", type=float, default=0.0)
    b.add_argument("--lr-b", type=float, default=1e-4)
    b.add_argument("--rmse-every", type=int, default=10)
    b.add_argument("--friction", type=float, default=StreamOptions.friction)
    b.add_argument("--perturb-sigma", type=float,
                   default=StreamOptions.perturb_sigma)
    b.add_argument("--l1-beta", type=float, default=StreamOptions.l1_beta)
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
    t.add_argument("--epochs", type=int, default=StreamOptions.epochs)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--lr-a", type=float, default=0.0,
                   help="base learning rate; 0 picks 4/(I*J)")
    t.add_argument("--lr-b", type=float, default=1e-4)
    t.add_argument("--k-neighbors", type=int, default=adv.k_neighbors)
    t.add_argument("--gamma-change", type=float, default=0.0,
                   help="<= 0 auto-calibrates from the training window")
    t.add_argument("--confidence", type=float, default=adv.confidence)
    t.add_argument("--policy", default=adv.update_policy.value,
                   choices=[p.value for p in UpdatePolicy])
    t.add_argument("--threshold", type=float, default=adv.threshold)
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
