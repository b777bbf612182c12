"""Per-event orchestration: decompose, score, advise, update or report.

The advisor treats a negative one-class score as environmental drift when
the change statistic of the location factor says most locations moved
together, and as an anomaly when only a few did.
"""

import copy
import logging
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from .decomp import StreamDecomposition, update_online
from .errors import (
    ImmobileError,
    ShapeMismatchError,
    TooFewLocationsError,
    ValidationError,
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


@dataclass
class AdvisorConfig:
    k_neighbors: int = 3
    gamma_change: float = 1e-3
    confidence: float = 0.9
    update_policy: UpdatePolicy = UpdatePolicy.TENSOR_ADVISED
    threshold: float = -0.5  # used by the THRESHOLD policy only

    def __post_init__(self):
        if self.gamma_change <= 0:
            raise ValidationError("gamma_change must be > 0")
        if not 0.0 < self.confidence <= 1.0:
            raise ValidationError("confidence must be in (0, 1]")
        if self.k_neighbors < 1:
            raise ValidationError("k_neighbors must be >= 1")


@dataclass(frozen=True)
class Verdict:
    time_index: int
    g_raw: float
    p_env: float
    g_advised: float
    action: Action


@dataclass(frozen=True)
class LocationSnapshot:
    b_matrix: np.ndarray
    knn_scores: np.ndarray

    @classmethod
    def capture(cls, b_matrix, k):
        b = np.array(b_matrix, dtype=np.float64)
        return cls(b, knn_score(b, k))


def _check_k(b, k):
    j_n = b.shape[0]
    if j_n < 2:
        raise TooFewLocationsError("need at least 2 location rows")
    if k >= j_n:
        raise ValidationError(f"k_neighbors {k} must be < J = {j_n}")


def knn_score(b, k: int) -> np.ndarray:
    """Mean Euclidean distance from each row to its k nearest other rows."""
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    _check_k(b, k)
    dist = np.sqrt(sq_distances(b, b))
    np.fill_diagonal(dist, np.inf)
    nearest = np.sort(dist, axis=1)[:, :k]
    return nearest.mean(axis=1)


def environmental_probability(prev: LocationSnapshot, curr: LocationSnapshot,
                              cfg: AdvisorConfig) -> float:
    """Fraction of locations whose knn score moved beyond gamma_change."""
    if prev.knn_scores.shape != curr.knn_scores.shape \
            or prev.b_matrix.shape != curr.b_matrix.shape:
        raise ShapeMismatchError("snapshots disagree on J or R")
    change = np.abs(curr.knn_scores - prev.knn_scores)
    return float(np.mean(change > cfg.gamma_change))


def advised_decision(g_raw: float, p_env: float, cfg: AdvisorConfig) -> float:
    """Flip a negative score positive when the change looks environmental."""
    if g_raw < 0.0 and p_env >= cfg.confidence:
        return abs(g_raw)
    return g_raw


def baseline_threshold_policy(g_raw: float, threshold: float) -> Action:
    """Fixed-threshold baseline: mildly negative scores trigger updates."""
    if threshold > 0:
        raise ValidationError("threshold must be <= 0")
    if g_raw >= 0.0:
        return Action.ACCEPT
    if g_raw >= threshold:
        return Action.UPDATE_MODEL
    return Action.REPORT_ANOMALY


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

    @classmethod
    def start(cls, decomp, model, config):
        snap = LocationSnapshot.capture(decomp.factors.b, config.k_neighbors)
        return cls(decomp, model, snap, config)


def _incorporate(state: PipelineState, c_new):
    try:
        model, events = add_sample(state.model, c_new)
        state.migration_log.extend(asdict(ev) for ev in events)
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

    if g_raw >= 0.0:
        state.snapshot = curr
        return state, Verdict(t_idx, g_raw, 0.0, g_raw, Action.ACCEPT)

    p_env = environmental_probability(state.snapshot, curr, cfg)
    policy = cfg.update_policy
    if policy is UpdatePolicy.NONE:
        return state, Verdict(t_idx, g_raw, p_env, g_raw,
                              Action.REPORT_ANOMALY)
    if policy is UpdatePolicy.THRESHOLD:
        action = baseline_threshold_policy(g_raw, cfg.threshold)
        if action is Action.UPDATE_MODEL:
            _incorporate(state, c_new)
            state.snapshot = curr
        return state, Verdict(t_idx, g_raw, p_env, g_raw, action)

    g_adv = advised_decision(g_raw, p_env, cfg)
    if g_adv >= 0.0:
        _incorporate(state, c_new)
        state.snapshot = curr
        return state, Verdict(t_idx, g_raw, p_env, g_adv, Action.UPDATE_MODEL)
    return state, Verdict(t_idx, g_raw, p_env, g_adv, Action.REPORT_ANOMALY)


def calibrate_gamma_change(decomp: StreamDecomposition,
                           k_neighbors: int) -> float:
    """Auto-calibrate the acceptable knn-score change.

    Replays the last ``CALIBRATION_REPLAY`` window slices through online
    updates on a throwaway copy and takes ``CALIBRATION_MULTIPLIER`` times
    the median absolute per-event knn-score change. Replayed slices are
    already absorbed by the factors, so that jitter underestimates what a
    single outlying slice induces across all locations (its kick also rides
    the momentum into the following events); the threshold is therefore
    floored at ``CALIBRATION_SCORE_FLOOR`` times the median knn score, a
    fixed fraction of the inter-location distance scale.
    """
    replay = min(CALIBRATION_REPLAY, len(decomp.slices))
    # the factors are immutable; only the optimizer state is stepped in place
    probe = StreamDecomposition(decomp.factors, copy.deepcopy(decomp.state),
                                decomp.kind, [])
    changes = []
    base = knn_score(probe.factors.b, k_neighbors)
    prev = base
    for slice_ij in decomp.slices[-replay:]:
        update_online(probe, slice_ij)
        cur = knn_score(probe.factors.b, k_neighbors)
        changes.append(np.abs(cur - prev))
        prev = cur
    med = float(np.median(np.concatenate(changes))) if changes else 0.0
    floor = CALIBRATION_SCORE_FLOOR * float(np.median(base))
    return max(CALIBRATION_MULTIPLIER * med, floor, 1e-9)
