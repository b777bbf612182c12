"""Seeded stream workloads for the pipeline benchmark.

Every workload is a ``synth.generate`` stream: a training window of
``window`` slices followed by ``events`` streamed slices, with a
single-location fault every ``FAULT_EVERY``-th event. ``drift_staircase``
adds harness-side post-processing on top of the generated tensor.

The sensor structure (the true CP factors) of a workload is fixed; the
workload seed draws the measurement noise. With the structure drawn from
the seed as well, the insert count of ``drift_staircase`` ranged 63-142
over six seeds and its event rate halved between them, so seed-to-seed
spread measured the structure, not the code. Structure seed 11 is the one
acceptance test A4 uses.
"""

import json
import sys
from dataclasses import dataclass

import numpy as np

from driftwatch import synth

FAULT_EVERY = 50
FAULT_LOCATION = 4
FAULT_MU_SHIFT = 2.0
FAULT_SIGMA_SCALE = 2.0
NOISE_SIGMA = 0.05
RANK_TRUE = 2

STRUCTURE_SEED = 11

STAIR_FIRST = 100   # events after the window before the first step
STAIR_EVERY = 400   # events between steps
STAIR_SHIFT = 0.2
STAIR_SCALE = 1.1

MIN_PASSES = 3  # an event's median time needs at least three


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    i: int
    j: int
    window: int
    events: int  # one pass; a run replays whole passes from the bundle
    pass_s: float  # nominal seconds of one pass on the reference host
    staircase: bool = False


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    "steady": WorkloadSpec("steady", 60, 12, 500, 4000, 1.6),
    "drift_staircase": WorkloadSpec("drift_staircase", 60, 12, 500, 1500,
                                    1.2, staircase=True),
    "wide": WorkloadSpec("wide", 120, 48, 500, 1000, 0.5),
}


def pass_count(spec: WorkloadSpec, seconds: float):
    """Passes a run replays: fixed by the workload and ``seconds`` alone, so
    every commit measures the same number of passes whatever its speed.
    ``pass_s`` makes a run last about ``seconds`` on the reference host
    (README.md)."""
    return max(MIN_PASSES, round(seconds / spec.pass_s))


def fault_steps(spec: WorkloadSpec):
    """Absolute time indices of the injected single-location faults."""
    return [spec.window + e
            for e in range(FAULT_EVERY - 1, spec.events, FAULT_EVERY)]


def step_starts(spec: WorkloadSpec):
    """Absolute time indices where each staircase step begins."""
    if not spec.staircase:
        return []
    first = spec.window + STAIR_FIRST
    return list(range(first, spec.window + spec.events, STAIR_EVERY))


def generate(spec: WorkloadSpec, seed: int):
    """Returns (data, labels): an (I, J, window+events) array and its labels.

    ``synth.generate`` builds the noise-free structure and faults; the seed
    then draws the noise, added as ``synth.generate`` adds it. The staircase
    multiplies the measured values, noise included, the way a sensor gain
    change would: from each step start onward every location is mapped
    x -> (x + STAIR_SHIFT) * STAIR_SCALE, and the steps compound. Non-fault
    events from the first step on are drifted-healthy.
    """
    k_n = spec.window + spec.events
    tensor, labels, _ = synth.generate(synth.SynthSpec(
        dims=(spec.i, spec.j, k_n), rank_true=RANK_TRUE, seed=STRUCTURE_SEED,
        anomalies=synth.AnomalySpec(fault_steps(spec), FAULT_LOCATION,
                                    FAULT_MU_SHIFT, FAULT_SIGMA_SCALE),
    ))
    rng = np.random.default_rng(seed)
    data = tensor.data + rng.normal(0.0, NOISE_SIGMA, size=tensor.dims)
    starts = step_starts(spec)
    for k0 in starts:
        data[:, :, k0:] = (data[:, :, k0:] + STAIR_SHIFT) * STAIR_SCALE
    if starts:
        for k in range(starts[0], k_n):
            if labels[k] == synth.LABEL_HEALTHY:
                labels[k] = synth.LABEL_DRIFTED
    return data, labels


def write_input(spec: WorkloadSpec, seed: int, prefix: str):
    """Write ``<prefix>.npy`` as (K, I, J) so each slice is contiguous, and
    ``<prefix>.labels.json``."""
    data, labels = generate(spec, seed)
    np.save(prefix + ".npy", np.ascontiguousarray(np.moveaxis(data, 2, 0)))
    with open(prefix + ".labels.json", "w") as fh:
        json.dump(labels, fh)


if __name__ == "__main__":
    # Run as a child process by run.py, so the generator's transient copies
    # of the tensor do not count towards the measured process's peak RSS.
    write_input(WorkloadSpec(**json.loads(sys.argv[1])), int(sys.argv[2]),
                sys.argv[3])
