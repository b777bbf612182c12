"""Per-event orchestration: decompose, score, advise, update or report.

The advisor treats a negative one-class score as environmental drift when
the change statistic of the location factor says most locations moved
together, and as an anomaly when only a few did. ``decide`` maps a score
to an action: >= 0 accepts; a negative score updates the model under
``tensor_advised`` when p_env >= confidence (flipped to |g_raw|), under
``threshold`` when g_raw >= threshold, and never under ``none``; anything
else, NaN included, is reported. The model changes only on UPDATE_MODEL,
the location snapshot on every action except REPORT_ANOMALY. The snapshot,
the drift baseline, holds the kNN score of every row of B.
"""

import copy
import logging
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .decomp import StreamDecomposition, update_online
from .errors import (
    ImmobileError,
    ShapeMismatchError,
    TooFewLocationsError,
    ValidationError,
    check_int,
)
from .incremental import add_sample
from .ocsvm import OcsvmModel, decision_value, sq_distances, train_batch

log = logging.getLogger(__name__)

CALIBRATION_REPLAY = 50
CALIBRATION_MULTIPLIER = 3.0
CALIBRATION_SCORE_FLOOR = 0.05


class UpdatePolicy(Enum):
    TENSOR_ADVISED = "tensor_advised"
    THRESHOLD = "threshold"
    NONE = "none"


class Action(Enum):
    ACCEPT = "accept"
    UPDATE_MODEL = "update_model"
    REPORT_ANOMALY = "report_anomaly"


@dataclass(frozen=True)
class AdvisorConfig:
    k_neighbors: int = 3
    gamma_change: float = 1e-3
    confidence: float = 0.9
    update_policy: UpdatePolicy = UpdatePolicy.TENSOR_ADVISED
    threshold: float = -0.5  # used by the THRESHOLD policy only

    def __post_init__(self):
        # negated tests so that a NaN is rejected too
        if not 0 < self.gamma_change < np.inf:
            raise ValidationError("gamma_change must be finite and > 0")
        if not -np.inf < self.threshold <= 0:
            raise ValidationError("threshold must be finite and <= 0")
        if not 0.0 < self.confidence <= 1.0:
            raise ValidationError("confidence must be in (0, 1]")
        check_int(self.k_neighbors, "k_neighbors", 1)


@dataclass(frozen=True)
class Verdict:
    time_index: int
    g_raw: float
    p_env: float
    g_advised: float
    action: Action


@dataclass(frozen=True)
class LocationSnapshot:
    knn_scores: np.ndarray

    @classmethod
    def capture(cls, b_matrix, k):
        return cls(knn_score(b_matrix, k))


def check_k_neighbors(j_n, k):
    """Raise ValidationError unless ``k`` < J = ``j_n`` and J >= 2."""
    if j_n < 2:
        raise TooFewLocationsError("need at least 2 location rows")
    if k >= j_n:
        raise ValidationError(f"k_neighbors {k} must be < J = {j_n}")


def knn_score(b, k: int) -> np.ndarray:
    """Mean Euclidean distance from each row to its k nearest other rows."""
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    check_k_neighbors(len(b), k)
    dist = sq_distances(b, b)
    np.sqrt(dist, out=dist)
    dist.reshape(-1)[::len(dist) + 1] = np.inf  # the diagonal, as a view
    dist.sort(axis=1)
    return dist[:, :k].sum(axis=1) / k  # the mean, as np.mean computes it


def environmental_probability(prev: LocationSnapshot, curr: LocationSnapshot,
                              cfg: AdvisorConfig) -> float:
    """Fraction of locations whose knn score moved beyond gamma_change."""
    if prev.knn_scores.shape != curr.knn_scores.shape:
        raise ShapeMismatchError("snapshots disagree on J")
    change = np.abs(curr.knn_scores - prev.knn_scores)
    # int / int is a Python float, equal bit for bit to the bool mask's mean
    return int(np.count_nonzero(change > cfg.gamma_change)) / change.size


def decide(g_raw: float, p_env: float, cfg: AdvisorConfig):
    """(g_advised, action) for one score, by the module docstring's rules."""
    if g_raw >= 0.0:
        return g_raw, Action.ACCEPT
    policy = cfg.update_policy
    drift = g_raw < 0.0 and p_env >= cfg.confidence  # a NaN score is not
    if policy is UpdatePolicy.TENSOR_ADVISED and drift:
        return abs(g_raw), Action.UPDATE_MODEL
    if policy is UpdatePolicy.THRESHOLD and g_raw >= cfg.threshold:
        return g_raw, Action.UPDATE_MODEL
    return g_raw, Action.REPORT_ANOMALY


@dataclass
class PipelineState:
    """Single-writer, event-ordered state for the streaming pipeline."""

    decomp: StreamDecomposition
    model: OcsvmModel
    snapshot: LocationSnapshot
    config: AdvisorConfig
    events_seen: int = 0
    retrain_fallbacks: int = 0
    migration_log: list = field(default_factory=list)

    def __post_init__(self):
        j_n = self.decomp.factors.b.shape[:1]
        shape = np.shape(self.snapshot.knn_scores)
        if shape != j_n:
            raise ShapeMismatchError(
                f"snapshot knn shape {shape} does not fit J = {j_n[0]}")
        check_k_neighbors(len(self.decomp.factors.b), self.config.k_neighbors)

    @classmethod
    def start(cls, decomp, model, config):
        snap = LocationSnapshot.capture(decomp.factors.b, config.k_neighbors)
        return cls(decomp, model, snap, config)


def _incorporate(state: PipelineState, c_new):
    try:
        model, events = add_sample(state.model, c_new)
        # vars() is asdict() for these flat events, at a twentieth the cost
        state.migration_log.extend(dict(vars(ev)) for ev in events)
    except ImmobileError:
        log.warning("incremental update immobile; retraining batch model")
        state.retrain_fallbacks += 1
        x = np.vstack([state.model.x, c_new[None, :]])
        model = train_batch(x, state.model.nu, state.model.kernel)
    state.model = model


def process_event(state: PipelineState, slice_ij):
    """Feed one frontal slice through the pipeline; returns (state, verdict).

    Anomalous events leave both the one-class model and the location
    snapshot untouched so they cannot poison the drift baseline. A slice
    that ``update_online`` rejects raises before any state changes, and it
    does not count as an event.
    """
    cfg = state.config
    t_idx = state.events_seen
    _, c_new = update_online(state.decomp, slice_ij)
    state.events_seen += 1
    curr = LocationSnapshot.capture(state.decomp.factors.b, cfg.k_neighbors)
    g_raw = decision_value(state.model, c_new)
    p_env = 0.0 if g_raw >= 0.0 \
        else environmental_probability(state.snapshot, curr, cfg)
    g_adv, action = decide(g_raw, p_env, cfg)
    if action is Action.UPDATE_MODEL:
        _incorporate(state, c_new)
    if action is not Action.REPORT_ANOMALY:
        state.snapshot = curr
    return state, Verdict(t_idx, g_raw, p_env, g_adv, action)


def calibrate_gamma_change(decomp: StreamDecomposition, window_slices,
                           k_neighbors: int) -> float:
    """Auto-calibrate the acceptable knn-score change.

    Replays the last ``CALIBRATION_REPLAY`` of the ``window_slices`` that
    ``decomp`` was fitted to through online updates on a throwaway copy and
    takes ``CALIBRATION_MULTIPLIER`` times the median absolute per-event
    knn-score change. Replayed slices are already absorbed by the factors,
    so that jitter underestimates what a single outlying slice induces
    across all locations (its kick also rides the momentum into the
    following events); the threshold is therefore floored at
    ``CALIBRATION_SCORE_FLOOR`` times the median knn score, a fixed
    fraction of the inter-location distance scale.
    """
    # the factors are immutable; only the optimizer state is stepped in place
    probe = StreamDecomposition(decomp.factors, copy.deepcopy(decomp.state),
                                decomp.kind, [])
    scores = [knn_score(probe.factors.b, k_neighbors)]
    for slice_ij in window_slices[-CALIBRATION_REPLAY:]:
        update_online(probe, slice_ij)
        scores.append(knn_score(probe.factors.b, k_neighbors))
    changes = np.abs(np.diff(scores, axis=0))
    med = float(np.median(changes)) if changes.size else 0.0
    floor = CALIBRATION_SCORE_FLOOR * float(np.median(scores[0]))
    return max(CALIBRATION_MULTIPLIER * med, floor, 1e-9)
