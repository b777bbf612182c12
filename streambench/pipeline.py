"""Build, reload and drive the pipeline the way the CLI does.

Functions of the package are looked up on their modules at call time
(``decomp.decompose_stream_init``, ``advisor.process_event`` ...), so the
traced run sees these calls once its wrappers are installed.
"""

import math
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from driftwatch import advisor, cli, decomp, ocsvm, synth
from driftwatch.advisor import (Action, AdvisorConfig, PipelineState,
                                UpdatePolicy)
from driftwatch.errors import KktViolationError
from driftwatch.tensor import DenseTensor3

# A4 settings: NESGD without momentum, lr a/(1 + 2e-4 t) with a = 4/(I*J),
# RBF bandwidth twice the median pairwise distance.
RANK = 2
EPOCHS = 30
SEED = 0
FRICTION = 0.0
LR_B = 2e-4
NU = 0.02
SIGMA_FACTOR = 2.0
K_NEIGHBORS = 11
GAMMA_CHANGE = 4e-3
CONFIDENCE = 0.9

A3_TOL = 1e-5  # incremental model vs batch retrain, as in acceptance test A3


def setup(window_slices, bundle_path):
    """Fit the window, train the model, save and reload the bundle.

    Returns (seconds, PipelineState built from the reloaded bundle).
    """
    started = time.perf_counter()
    i_n, j_n = window_slices[0].shape
    lr_a = 4.0 / (i_n * j_n)
    opts = decomp.StreamOptions(epochs=EPOCHS, seed=SEED, friction=FRICTION,
                                lr=cli.make_lr(lr_a, LR_B))
    window = DenseTensor3(np.stack(window_slices, axis=2))
    d = decomp.decompose_stream_init(window, RANK, decomp.OptimizerKind.NESGD,
                                     opts)
    sigma = SIGMA_FACTOR * ocsvm.median_pairwise_sigma(d.factors.c)
    model = ocsvm.train_batch(d.factors.c, NU, ocsvm.KernelSpec("rbf", sigma))
    config = AdvisorConfig(k_neighbors=K_NEIGHBORS, gamma_change=GAMMA_CHANGE,
                           confidence=CONFIDENCE,
                           update_policy=UpdatePolicy.TENSOR_ADVISED)
    state = PipelineState.start(d, model, config)
    cli.save_bundle(bundle_path, len(window_slices), d, model, state.snapshot,
                    config, (lr_a, LR_B))
    state = reload(bundle_path, window_slices)
    return time.perf_counter() - started, state


def reload(bundle_path, window_slices):
    """A fresh pipeline state from the bundle, built as ``driftwatch stream``
    builds it."""
    _, d, model, snapshot, config = cli.load_bundle(bundle_path,
                                                    window_slices)
    return PipelineState(d, model, snapshot, config)


@dataclass
class PassResult:
    wall_s: float
    latencies_ns: np.ndarray        # every call; a failed one until it raised
    actions: list                   # Action value per event, None if failed
    failures: list = field(default_factory=list)  # (event, traceback)
    check_failures: int = 0
    state: PipelineState = None


def _verdict_ok(v, index):
    """Invariants every verdict of the tensor-advised policy must hold."""
    if v.time_index != index or not isinstance(v.action, Action):
        return False
    if not (math.isfinite(v.g_raw) and math.isfinite(v.g_advised)
            and 0.0 <= v.p_env <= 1.0):
        return False
    if v.action is Action.ACCEPT:
        return v.g_raw >= 0.0
    if v.action is Action.UPDATE_MODEL:
        return v.g_raw < 0.0 <= v.g_advised
    return v.g_advised < 0.0


def stream_pass(state, event_slices, on_event=None):
    """Closed loop: each slice goes in after the previous verdict returns.

    Exceptions from ``process_event`` are counted, never retried, and the
    state is not rebuilt. ``on_event(i)`` runs before event i, untimed.
    """
    n = len(event_slices)
    lat = np.empty(n, dtype=np.int64)
    actions = [None] * n
    failures = []
    check_failures = 0
    clock = time.perf_counter_ns
    started = time.perf_counter()
    for i, slice_ij in enumerate(event_slices):
        if on_event is not None:
            on_event(i)
        t0 = clock()
        try:
            state, verdict = advisor.process_event(state, slice_ij)
        except Exception:  # the loop must go on; the failure is counted
            lat[i] = clock() - t0
            failures.append((i, traceback.format_exc()))
            continue
        lat[i] = clock() - t0
        actions[i] = verdict.action.value
        if not _verdict_ok(verdict, i):
            check_failures += 1
    wall = time.perf_counter() - started
    return PassResult(wall, lat, actions, failures, check_failures, state)


def final_model_check(model):
    """KKT holds and the decision values on the training rows match a batch
    retrain within A3's tolerance.

    Returns (ok, max abs difference, |S|, support vectors |S| + |E|).
    """
    try:
        s_idx, e_idx, _ = ocsvm.kkt_partition(model)
    except KktViolationError:
        return False, math.inf, 0, 0
    batch = ocsvm.train_batch(model.x, model.nu, model.kernel)
    diff = float(np.max(np.abs(model.training_decision_values()
                               - batch.training_decision_values())))
    return diff <= A3_TOL, diff, len(s_idx), len(s_idx) + len(e_idx)


def quality(actions, labels, window):
    """(detection_rate, false_alarm_rate) over one pass."""
    reported = Action.REPORT_ANOMALY.value
    faults = hits = healthy = false = 0
    for i, act in enumerate(actions):
        if labels[window + i] == synth.LABEL_ANOMALY:
            faults += 1
            hits += act == reported
        else:
            healthy += 1
            false += act == reported
    return (hits / faults if faults else math.nan,
            false / healthy if healthy else math.nan)


def state_bytes(d):
    """Bytes of the retained slices, factors and velocities."""
    arrays = [d.factors.a, d.factors.b, d.factors.c,
              d.state.vel_a, d.state.vel_b, d.state.vel_c]
    return sum(s.nbytes for s in d.slices) + sum(a.nbytes for a in arrays)
