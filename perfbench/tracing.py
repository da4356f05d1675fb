"""Spans around basedlab's public functions, recorded from outside the package.

`install` replaces each layer's public entry points with wrappers that open
and close a span; the returned function puts the originals back. Spans stay
in memory until the run ends, as one flat list per column (name, start,
end, parent, op) so that recording them creates no objects for the garbage
collector to scan. A span's self time is its duration minus the durations of
its child spans.
"""

from __future__ import annotations

import functools
import math
import time
import tracemalloc

import numpy as np

from basedlab import baseconv as bc
from basedlab import feature_maps as fm
from basedlab import linear_attention as la
from basedlab import model as md
from basedlab import sliding_window as sw
from basedlab import tensor as T

_MB = float(1 << 20)


class Tracer:
    """In-memory span recorder; `op` tags new spans with a step, sequence or stream id."""

    def __init__(self, track_memory: bool):
        self.track_memory = track_memory
        self.origin = time.perf_counter()
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.stack: list[int] = []
        self.op = -1
        self.peaks_mb: dict[str, list[float]] = {}
        self.kv_state_floats = 0
        self.graph: tuple[int, int] | None = None
        self.paused = False  # set while the harness checks outputs between measured ops

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        if self.stack.pop() != index:
            raise RuntimeError(f"span {self.names[index]} closed out of order")

    def rows(self):
        return zip(self.names, self.starts, self.ends, self.parents, self.ops)

    def wrap(self, fn, name: str, peak: bool = False, before=None, after=None):
        """`fn` inside a span; `peak` records the tracemalloc high-water mark of the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if before is not None:
                before(*args)
            measure = peak and self.track_memory
            if measure:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if measure:
                self.peaks_mb.setdefault(name, []).append((tracemalloc.get_traced_memory()[1] - base) / _MB)
            if after is not None:
                after(out)
            return out

        return traced

    # -- exact counts taken at layer boundaries --------------------------------

    def _count_kv_state(self, phi_q, phi_k, v, *rest):
        # The parallel core materializes one (F x d) state per position: B*H*N*F*d floats.
        self.kv_state_floats = max(self.kv_state_floats, math.prod(phi_q.shape) * v.shape[-1])

    def _count_graph(self, out):
        if self.graph is None and out.requires_grad:
            nodes = T.Graph.from_output(out).nodes
            self.graph = (len(nodes), sum(n.data.nbytes for n in nodes))

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for name, start, end, parent, op in self.rows():
                fh.write(f"{name},{start - self.origin:.9f},{end - self.origin:.9f},{parent},{op}\n")


def install(tracer: Tracer):
    """Wrap every traced entry point; returns the function that restores them."""
    patches = [
        (md.HybridModel, "forward", dict(name="model.forward", after=tracer._count_graph)),
        (la, "parallel_forward", dict(name="linear_attention.forward", peak=True)),
        (la, "attention_core", dict(name="linear_attention.core", before=tracer._count_kv_state)),
        (fm, "apply", dict(name="feature_maps.apply")),
        (fm, "taylor_compact", dict(name="feature_maps.taylor_compact")),
        (sw, "swa_forward", dict(name="sliding_window.forward", peak=True)),
        (sw, "decode_step", dict(name="sliding_window.decode")),
        (bc, "forward_gated", dict(name="baseconv.forward")),
        (T, "cross_entropy_masked", dict(name="tensor.cross_entropy")),
        (T.Tensor, "backward", dict(name="tensor.backward")),
    ]
    saved = []
    for owner, attr, opts in patches:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, **opts))
    if tracer.track_memory:
        tracemalloc.start()

    def restore():
        if tracer.track_memory:
            tracemalloc.stop()
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


def wrap_caches(tracer: Tracer, state: md.DecodeState) -> None:
    """Trace the `step` of each linear-attention and conv cache of one decode stream."""
    names = {"L": "linear_attention.decode", "C": "baseconv.decode"}
    for layer, cache in zip(state.model.layers, state.caches):
        if layer.kind in names:
            cache.step = tracer.wrap(cache.step, names[layer.kind])


# metric -> (span name, scale, unit, inclusive). Layer metrics are median self
# time per call; model.forward and model.decode_step include their children,
# and the self time of a train step is what is left after the batch draw,
# forward, loss and backward: gradient clipping plus the Adam update.
SPAN_METRICS = {
    "linear_attention.forward_ms": ("linear_attention.forward", 1e3, "ms", False),
    "linear_attention.core_ms": ("linear_attention.core", 1e3, "ms", False),
    "feature_maps.apply_ms": ("feature_maps.apply", 1e3, "ms", False),
    "sliding_window.forward_ms": ("sliding_window.forward", 1e3, "ms", False),
    "baseconv.forward_ms": ("baseconv.forward", 1e3, "ms", False),
    "tensor.backward_ms": ("tensor.backward", 1e3, "ms", False),
    "tensor.cross_entropy_ms": ("tensor.cross_entropy", 1e3, "ms", False),
    "model.forward_ms": ("model.forward", 1e3, "ms", True),
    "model.optimizer_ms": ("model.train_step", 1e3, "ms", False),
    "mqar.generate_ms": ("mqar.generate", 1e3, "ms", False),
    "model.decode_step_us": ("model.decode_step", 1e6, "us", True),
    "linear_attention.decode_us": ("linear_attention.decode", 1e6, "us", False),
    "sliding_window.decode_us": ("sliding_window.decode", 1e6, "us", False),
    "baseconv.decode_us": ("baseconv.decode", 1e6, "us", False),
    "feature_maps.taylor_compact_us": ("feature_maps.taylor_compact", 1e6, "us", False),
}

PEAK_METRICS = {
    "linear_attention.forward_peak_mb": "linear_attention.forward",
    "sliding_window.forward_peak_mb": "sliding_window.forward",
}


def span_metrics(tracer: Tracer) -> dict[str, tuple[float, str, int]]:
    """Median per-call time of each traced span, as metric -> (value, unit, calls).

    A layer that never ran reports 0 with 0 calls.
    """
    children = [0.0] * len(tracer.names)
    for name, start, end, parent, op in tracer.rows():
        if parent >= 0:
            children[parent] += end - start
    inclusive: dict[str, list[float]] = {}
    own: dict[str, list[float]] = {}
    for (name, start, end, parent, op), child in zip(tracer.rows(), children):
        inclusive.setdefault(name, []).append(end - start)
        own.setdefault(name, []).append(end - start - child)
    out = {}
    for metric, (span, scale, unit, whole) in SPAN_METRICS.items():
        values = (inclusive if whole else own).get(span, [])
        out[metric] = (float(np.median(values)) * scale if values else 0.0, unit, len(values))
    for metric, span in PEAK_METRICS.items():
        values = tracer.peaks_mb.get(span, [])
        out[metric] = (float(np.median(values)) if values else 0.0, "MB", len(values))
    nodes, nbytes = tracer.graph or (0, 0)
    out["linear_attention.kv_state_floats"] = (float(tracer.kv_state_floats), "count", 1)
    out["tensor.graph_nodes"] = (float(nodes), "count", 1)
    out["tensor.graph_mb"] = (nbytes / _MB, "MB", 1)
    return out
