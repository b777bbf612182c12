"""Synthetic streaming-tensor benchmark data with optional drift injection.

Environmental drift applies the same [shift, scale] transform to every
location from a start index onward; anomalies apply it to a single
location at chosen time steps. Ground-truth labels accompany the tensor.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .tensor import DenseTensor3, KruskalFactors, kruskal_reconstruct

LABEL_HEALTHY = "healthy"
LABEL_DRIFTED = "drifted-healthy"
LABEL_ANOMALY = "anomalous"


@dataclass
class DriftSpec:
    start_k: int
    mu_shift: float = 0.0
    sigma_scale: float = 1.0
    locations: object = "ALL"  # "ALL" or list of location indices


@dataclass
class AnomalySpec:
    time_steps: list
    location: int = 0
    mu_shift: float = 2.0
    sigma_scale: float = 1.0


@dataclass
class SynthSpec:
    dims: tuple  # (I, J, K)
    rank_true: int = 2
    seed: int = 0
    noise_sigma: float = 0.0
    drift: DriftSpec = None
    anomalies: AnomalySpec = None

    def __post_init__(self):
        i_n, j_n, k_n = self.dims
        if min(i_n, j_n, k_n) < 1 or self.rank_true < 1:
            raise ValidationError("dims and rank_true must be positive")
        if not 0.0 <= self.noise_sigma < np.inf:  # NaN too
            raise ValidationError("noise_sigma must be finite and >= 0")
        if self.drift is not None:
            if not 0 <= self.drift.start_k < k_n:
                raise ValidationError("drift start_k must be < K")
            if self.drift.locations != "ALL":
                # an empty list would shift nothing yet label every step
                # from start_k anomalous
                if not len(self.drift.locations):
                    raise ValidationError("drift locations must not be empty")
                _check_indices("drift locations", self.drift.locations, j_n)
        if self.anomalies is not None:
            _check_indices("anomaly location", [self.anomalies.location], j_n)
            _check_indices("anomaly time steps", self.anomalies.time_steps, k_n)


def _check_indices(what, values, n):
    if len(set(values)) != len(values) or not all(0 <= v < n for v in values):
        raise ValidationError(f"{what} {list(values)} must be distinct and "
                              f"in 0..{n - 1}")


def generate(spec: SynthSpec):
    """Returns (tensor, labels, true_factors); labels has one entry per k."""
    rng = np.random.default_rng(spec.seed)
    i_n, j_n, k_n = spec.dims
    factors = KruskalFactors(
        rng.uniform(size=(i_n, spec.rank_true)),
        rng.uniform(size=(j_n, spec.rank_true)),
        rng.uniform(size=(k_n, spec.rank_true)),
    )
    data = np.array(kruskal_reconstruct(factors).data)
    labels = [LABEL_HEALTHY] * k_n

    if spec.drift is not None:
        d = spec.drift
        locs = list(range(j_n)) if d.locations == "ALL" else list(d.locations)
        global_drift = len(locs) == j_n
        for j in locs:
            data[:, j, d.start_k:] = (
                data[:, j, d.start_k:] + d.mu_shift) * d.sigma_scale
        for k in range(d.start_k, k_n):
            labels[k] = LABEL_DRIFTED if global_drift else LABEL_ANOMALY

    if spec.anomalies is not None:
        a = spec.anomalies
        for k in a.time_steps:
            data[:, a.location, k] = (
                data[:, a.location, k] + a.mu_shift) * a.sigma_scale
            labels[k] = LABEL_ANOMALY

    if spec.noise_sigma > 0:
        data += rng.normal(0.0, spec.noise_sigma, size=data.shape)

    return DenseTensor3(data), labels, factors
