"""Spans around the package's public functions, recorded from outside.

The wrappers replace module attributes that ``process_event`` and the
harness resolve at call time, so no source edit is needed. A wrapper
re-raises exactly what it catches: ``_incorporate`` relies on
``ImmobileError`` reaching it.
"""

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from driftwatch import advisor, cli, decomp, incremental, ocsvm

# (owner, attribute, span name); advisor.* entries are the names
# process_event calls, the rest are the harness's own calls into a layer.
SPAN_TARGETS = [
    (advisor, "process_event", "advisor.process_event"),
    (advisor, "update_online", "decomp.update_online"),
    (advisor.LocationSnapshot, "capture", "advisor.snapshot"),
    (advisor, "knn_score", "advisor.knn_score"),
    (advisor, "decision_value", "ocsvm.decision_value"),
    (advisor, "environmental_probability", "advisor.environmental_probability"),
    (advisor, "add_sample", "incremental.add_sample"),
    (advisor, "train_batch", "ocsvm.train_batch"),
    (decomp, "khatri_rao", "tensor.khatri_rao"),
    (decomp, "decompose_stream_init", "decomp.decompose_stream_init"),
    (ocsvm, "train_batch", "ocsvm.train_batch"),
    (cli, "save_bundle", "cli.save_bundle"),
    (cli, "load_bundle", "cli.load_bundle"),
]
# kernel_matrix gets no span: its entries are added to the enclosing span.
COUNT_TARGETS = [(ocsvm, "kernel_matrix"), (incremental, "kernel_matrix")]


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int          # index into Tracer.spans, -1 for a root span
    event: int           # event index within the pass, -1 outside the loop
    pass_index: int = -1
    error: str = ""      # exception type name if the call raised
    kernel_entries: int = 0


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.event = -1
        self.pass_index = -1
        self.unattributed_kernel_entries = 0

    def span(self, name, fn):
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            sp = Span(name, clock(), 0, parent, self.event, self.pass_index)
            self.spans.append(sp)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                sp.error = type(exc).__name__
                raise
            finally:
                sp.end_ns = clock()
                self._stack.pop()
        return traced

    def counter(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self._stack:
                self.spans[self._stack[-1]].kernel_entries += out.size
            else:
                self.unattributed_kernel_entries += out.size
            return out
        return counted


@contextmanager
def installed(tracer: Tracer):
    """Patch every target for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name in SPAN_TARGETS:
            raw = owner.__dict__[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.span(name,
                                                             raw.__func__)))
            else:
                setattr(owner, attr, tracer.span(name, raw))
        for owner, attr in COUNT_TARGETS:
            raw = owner.__dict__[attr]
            saved.append((owner, attr, raw))
            setattr(owner, attr, tracer.counter(raw))
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def self_times_ns(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for idx, sp in enumerate(spans):
        if sp.parent >= 0:
            children[sp.parent].append(idx)
    out = np.empty(len(spans), dtype=np.int64)
    for idx, sp in enumerate(spans):
        covered = 0
        cursor = sp.start_ns
        for c in sorted(children[idx], key=lambda i: spans[i].start_ns):
            lo = max(spans[c].start_ns, cursor)
            hi = min(spans[c].end_ns, sp.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[idx] = (sp.end_ns - sp.start_ns) - covered
    return out


@dataclass
class LayerStats:
    calls: int
    total_ns: int
    self_total_ns: int
    durations_ns: np.ndarray
    self_ns: np.ndarray
    errors: int
    kernel_entries: int

    @classmethod
    def empty(cls):
        none = np.zeros(0, dtype=np.int64)
        return cls(0, 0, 0, none, none, 0, 0)

    def pct_ms(self, q, self_time=False):
        arr = self.self_ns if self_time else self.durations_ns
        return float(np.percentile(arr, q)) / 1e6 if arr.size else 0.0


def layer_stats(spans):
    """Aggregate spans by name; names never seen get empty stats."""
    selfs = self_times_ns(spans)
    by_name = {}
    for idx, sp in enumerate(spans):
        by_name.setdefault(sp.name, []).append(idx)
    out = defaultdict(LayerStats.empty)
    for name, idxs in by_name.items():
        dur = np.array([spans[i].end_ns - spans[i].start_ns for i in idxs],
                       dtype=np.int64)
        own = selfs[idxs]
        out[name] = LayerStats(
            len(idxs), int(dur.sum()), int(own.sum()), dur, own,
            sum(1 for i in idxs if spans[i].error),
            sum(spans[i].kernel_entries for i in idxs))
    return out
