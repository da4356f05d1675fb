"""Gated convolution mixers: an elementwise gate times a causal convolution.

The minimal (theory) form is z = (u W + B) .* (K * u + B_K) with a
full-length per-channel filter and position-dependent biases. The trainable
form projects up by an expansion factor, convolves with a short filter after
the projection, applies SiLU to the convolution branch only, and projects
back down:

    y = ((u W1 + b1) .* silu(h * (u W2) + b2)) W3 + b3

`forward_gated` computes this as one graph op in tiles of CONV_TILE rows
along the sequence. The filter is the layer's only context: a tile's output
reads the taps - 1 layer-input rows before it, so each tile projects those
rows and its own through W2 in one matmul, filters them, and runs the chain
down to W3 one tile wide before the next tile starts. A call of one tile
(every N <= CONV_TILE) keeps that tile's arrays, read-only, for the
backward; a call of more tiles keeps only its inputs and output, and the
backward reruns `_tile` per tile, so memory stays one tile wide. Either way
it adds the context rows' gradient into the rows before the tile.
Decode (`ConvCache`) holds exactly that context, the last taps - 1
layer-input rows, and runs the same tile function on them plus the new row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ShapeError, integer
from .tensor import Tensor


@dataclass
class MinimalBaseConv:
    """Full-length filter variant; biases are whole (N, d) matrices."""

    w: Tensor
    b_lin: Tensor
    b_conv: Tensor
    filt: Tensor

    def __post_init__(self):
        n, d = self.b_lin.shape
        if self.w.shape != (d, d):
            raise ShapeError(f"w must be ({d}, {d}), got {self.w.shape}")
        if self.b_conv.shape != (n, d) or self.filt.shape != (n, d):
            raise ShapeError(
                f"biases and filter must all be ({n}, {d}); got {self.b_conv.shape} and {self.filt.shape}"
            )


@dataclass
class GatedBaseConv:
    """Trainable variant: expansion projections around a short causal filter."""

    w1: Tensor
    w2: Tensor
    w3: Tensor
    b1: Tensor
    b2: Tensor
    b3: Tensor
    filt: Tensor

    def __post_init__(self):
        if self.w1.ndim != 2:
            raise ShapeError(f"w1 must be 2-D, got {self.w1.shape}")
        d, wide = self.w1.shape
        if self.w2.shape != (d, wide) or self.w3.shape != (wide, d):
            raise ShapeError(f"w1 {self.w1.shape}, w2 {self.w2.shape}, w3 {self.w3.shape} disagree")
        if self.b1.shape != (wide,) or self.b2.shape != (wide,) or self.b3.shape != (d,):
            raise ShapeError("bias shapes must be (expanded,), (expanded,), (d,)")
        if self.filt.ndim != 2 or self.filt.shape[1] != wide:
            raise ShapeError(f"filter must be (taps, {wide}), got {self.filt.shape}")

    @property
    def d_model(self) -> int:
        return self.w1.shape[0]

    @property
    def expanded(self) -> int:
        return self.w1.shape[1]

    @property
    def taps(self) -> int:
        return self.filt.shape[0]


def create_gated(
    d_model: int,
    expand: int = 4,
    taps: int = 3,
    rng: np.random.Generator | None = None,
    dtype=np.float64,
) -> GatedBaseConv:
    """Fresh parameters: scaled-normal projections and filter, zero biases."""
    integer(expand, "create_gated: expand")
    integer(taps, "create_gated: taps")
    rng = rng or np.random.default_rng(0)
    wide = expand * d_model
    def b(width):
        return Tensor(np.zeros(width, dtype=dtype), requires_grad=True)
    return GatedBaseConv(
        w1=T.init_normal(rng, d_model, wide, dtype),
        w2=T.init_normal(rng, d_model, wide, dtype),
        w3=T.init_normal(rng, wide, d_model, dtype),
        b1=b(wide), b2=b(wide), b3=b(d_model),
        filt=T.init_normal(rng, taps, wide, dtype),
    )


def forward_minimal(params: MinimalBaseConv, u: Tensor) -> Tensor:
    """(u W + B) .* (K * u + B_K) with a causal full-length convolution."""
    if u.shape != params.b_lin.shape:
        raise ShapeError(f"input {u.shape} must match bias shape {params.b_lin.shape}")
    lin = T.add(T.matmul(u, params.w), params.b_lin)
    conv = T.add(T.causal_conv1d(u, params.filt), params.b_conv)
    return T.mul(lin, conv)


# -- tiled gated core --------------------------------------------------------------

CONV_TILE = 128


def _tile(p: GatedBaseConv, rows: np.ndarray, h: int, grad: bool = False):
    """Steps 1-4 of the core on one tile: `rows` (..., h + c, d) are the
    tile's c layer-input rows after the h <= taps - 1 rows before them, its
    context. Returns pre = u W2 of all h + c rows, and for the tile's own
    rows gate = u W1 + b1, sig = sigmoid(conv) and the SiLU act = conv * sig
    of conv = filter(pre) + b2. With `grad`, sig is replaced in place by
    silu'(conv) = sig + act (1 - sig), which is all the backward reads of it."""
    gate = rows[..., h:, :] @ p.w1.data
    gate += p.b1.data
    pre = rows @ p.w2.data
    conv = T.causal_conv_np(p.filt.data, pre)[..., h:, :]
    conv += p.b2.data
    sig = T.sigmoid_np(conv)
    conv *= sig
    if grad:
        sig -= conv * sig
        sig += conv
    return pre, gate, sig, conv


def forward_gated(params: GatedBaseConv, u: Tensor) -> Tensor:
    """((u W1 + b1) .* silu(h * (u W2) + b2)) W3 + b3 over the second-to-last
    axis, as one graph op in tiles of c = min(CONV_TILE, N) rows; a tile
    starting at row s also reads the h = min(taps - 1, s) layer-input rows
    before it (see the module docstring)."""
    p = params
    if u.ndim < 2 or u.shape[-1] != p.d_model:
        raise ShapeError(f"input {u.shape} does not match d_model {p.d_model}")
    weights = (p.w1, p.w2, p.w3, p.b1, p.b2, p.b3, p.filt)
    for w in weights:
        if w.dtype != u.dtype:
            raise ShapeError(f"forward_gated: mixed dtypes {u.dtype.name} and {w.dtype.name}")
    n, d, wide = u.shape[-2], p.d_model, p.expanded
    x = u.data.reshape((math.prod(u.shape[:-2]), n, d))
    c = min(CONV_TILE, max(n, 1))
    spans = [(s, min(p.taps - 1, s)) for s in range(0, n, c)]

    out = np.empty(x.shape, u.dtype)
    kept = None  # a call of one tile keeps its (pre, gate, silu', act) for the backward
    for s, h in spans:
        tile = _tile(p, x[:, s - h:s + c], h, grad=len(spans) == 1)
        _, gate, _, act = tile
        if len(spans) == 1:
            kept = tile
            for a in kept:
                a.flags.writeable = False
        gated = gate * act if kept else np.multiply(gate, act, out=gate)
        np.matmul(gated, p.w3.data, out=out[:, s:s + c])
    out += p.b3.data

    def backward(grad):
        grad = grad.reshape(x.shape)
        du = np.zeros_like(x)
        dw1, dw2, dw3 = (np.zeros_like(w.data) for w in (p.w1, p.w2, p.w3))
        db1, db2, dfilt = (np.zeros_like(w.data) for w in (p.b1, p.b2, p.filt))
        for s, h in spans:
            rows = x[:, s - h:s + c]
            pre, gate, dsilu, act = kept or _tile(p, rows, h, grad=True)
            g = grad[:, s:s + c]
            buf = gate * act
            dw3 += buf.reshape(-1, wide).T @ g.reshape(-1, d)
            dconv = g @ p.w3.data.T  # the gradient of gate * act, turned into dconv in place
            dgate = np.multiply(dconv, act, out=buf)
            dconv *= gate
            dconv *= dsilu
            dpre, dfilt_tile = T.causal_conv_grad_np(p.filt.data, pre, dconv, h)
            dfilt += dfilt_tile
            db1 += dgate.reshape(-1, wide).sum(axis=0)
            db2 += dconv.reshape(-1, wide).sum(axis=0)
            dw1 += rows[:, h:].reshape(-1, d).T @ dgate.reshape(-1, wide)
            dw2 += rows.reshape(-1, d).T @ dpre.reshape(-1, wide)
            du[:, s:s + c] += dgate @ p.w1.data.T
            du[:, s - h:s + c] += dpre @ p.w2.data.T
        db3 = grad.reshape(-1, d).sum(axis=0)
        for w, dw in zip((u,) + weights, (du.reshape(u.shape), dw1, dw2, dw3, db1, db2, db3, dfilt)):
            T.accumulate(w, dw)

    return T.from_op(out.reshape(u.shape), (u,) + weights, backward)


class ConvCache:
    """Decode cache of `forward_gated`: the last taps - 1 layer-input rows,
    oldest first, in the parameters' dtype (zeros are the causal padding).
    Each step runs the core's tile on them plus the new row."""

    def __init__(self, params: GatedBaseConv):
        self.params = params
        self.rows = np.zeros((params.taps - 1, params.d_model), params.w1.dtype)

    def scalar_count(self) -> int:
        return self.rows.size

    def step(self, x: np.ndarray) -> np.ndarray:
        """One (d_model,) layer-input row in, one output row out."""
        p = self.params
        T.check_row(x, p.w1, "ConvCache.step")
        rows = np.concatenate([self.rows, x[None, :]])
        _, gate, _, act = _tile(p, rows, len(self.rows))
        self.rows = rows[1:]
        return (gate[0] * act[0]) @ p.w3.data + p.b3.data
