"""Gated convolution mixers: an elementwise gate times a causal convolution.

The minimal (theory) form is z = (u W + B) .* (K * u + B_K) with a
full-length per-channel filter and position-dependent biases. The trainable
form projects up by an expansion factor, convolves with a short filter after
the projection, applies SiLU to the convolution branch only, and projects
back down:

    y = ((u W1 + b1) .* silu(h * (u W2) + b2)) W3 + b3

`forward_gated` computes this as one graph op, tile by tile along the
sequence. The filter is the layer's only context: a tile reads the
min(taps - 1, rows before it) layer-input rows before it, projects them and
its own rows through W2 in one matmul, filters them, and runs the chain
down to W3 before the next tile starts. That loop is `_sweep`, the only
one: the forward, the backward's recompute and the decode cache
`ConvCache` all run it. A recorded call of one tile (every N <= CONV_TILE,
outside `T.no_grad()`) keeps that tile's arrays, read-only, for the
backward; a call of more tiles keeps only its inputs and output, and the
backward reruns `_sweep`, one tile alive at a time. Either way it adds the
context rows' gradient into the rows before the tile. `ConvCache` holds
the last taps - 1 layer-input rows and counts how many are real, so its
`block` carries exactly the core's context, and its `step` is a one-row
block.
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
        for name, w in T.tensors(self):
            if w.dtype != self.w1.dtype:
                raise ShapeError(f"{name} must be in w1's dtype {self.w1.dtype.name}, got {w.dtype.name}")
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


def _tile(p: GatedBaseConv, rows: np.ndarray, h: int, grad: bool = False, row: bool = False):
    """Steps 1-4 of the core on one tile: `rows` (..., h + c, d) are the
    tile's c layer-input rows after the h <= taps - 1 rows before them, its
    context. Returns pre = u W2 of all h + c rows, and for the tile's own
    rows gate = u W1 + b1, sig = sigmoid(conv) and the SiLU act = conv * sig
    of conv = filter(pre) + b2. With `grad`, sig is replaced in place by
    silu'(conv) = sig + act (1 - sig), which is all the backward reads of it.
    With `row` (a decode step's h + 1 rows), conv is `T.causal_conv_row_np`'s."""
    gate = rows[..., h:, :] @ p.w1.data
    gate += p.b1.data
    pre = rows @ p.w2.data
    conv = T.causal_conv_row_np(p.filt.data, pre) if row else T.causal_conv_np(p.filt.data, pre)[..., h:, :]
    conv += p.b2.data
    sig = T.sigmoid_np(conv)
    conv *= sig
    if grad:
        sig -= conv * sig
        sig += conv
    return pre, gate, sig, conv


def _sweep(p: GatedBaseConv, rows: np.ndarray, h0: int, grad: bool = False):
    """The core's tile loop over the n rows of `rows` (B, h0 + n, d) after
    the h0 real rows carried in before them: tile [s, e) of
    c = min(CONV_TILE, n) rows runs `_tile` on its own rows and the
    h = min(taps - 1, h0 + s) before them. Yields each tile's span, h and
    arrays when asked for: one tile alive at a time."""
    n = rows.shape[-2] - h0
    c = min(CONV_TILE, max(n, 1))
    for s in range(0, n, c):
        h = min(p.taps - 1, h0 + s)
        yield (s, min(s + c, n)), h, _tile(p, rows[:, h0 + s - h:h0 + s + c], h, grad)


def _emit(p: GatedBaseConv, tiles, out: np.ndarray, kept: list | None = None) -> np.ndarray:
    """Write each tile's (gate .* act) W3 into out[:, s:e], then add b3 to
    all of `out`. With a `kept` list, each tile's arrays go into it,
    read-only, and the gate is left as it is; else it is overwritten."""
    for tile in tiles:
        (s, e), _, (_, gate, _, act) = tile
        if kept is not None:
            kept.append(tile)
            for a in tile[2]:
                a.flags.writeable = False
        np.matmul(gate * act if kept is not None else np.multiply(gate, act, out=gate), p.w3.data, out=out[:, s:e])
    out += p.b3.data
    return out


def forward_gated(params: GatedBaseConv, u: Tensor) -> Tensor:
    """((u W1 + b1) .* silu(h * (u W2) + b2)) W3 + b3 over the second-to-last
    axis, as one graph op whose forward is `_sweep` from no carried rows
    (see the module docstring)."""
    p = params
    weights = T.check_rows(u, p, "forward_gated")  # in field order, w1 to filt, as the backward's gradients
    n, d, wide = u.shape[-2], p.d_model, p.expanded
    x = u.data.reshape((math.prod(u.shape[:-2]), n, d))
    keep = n <= CONV_TILE and T.recording(u, *weights)
    kept = [] if keep else None  # a recorded call of one tile keeps its (pre, gate, silu', act) for the backward
    out = _emit(p, _sweep(p, x, 0, grad=keep), np.empty(x.shape, u.dtype), kept)

    def backward(grad):
        grad = grad.reshape(x.shape)
        du = np.zeros_like(x)
        dw1, dw2, dw3 = (np.zeros_like(w.data) for w in (p.w1, p.w2, p.w3))
        db1, db2, dfilt = (np.zeros_like(w.data) for w in (p.b1, p.b2, p.filt))
        for (s, e), h, (pre, gate, dsilu, act) in kept or _sweep(p, x, 0, grad=True):
            rows = x[:, s - h:e]
            g = grad[:, s:e]
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
            du[:, s:e] += dgate @ p.w1.data.T
            du[:, s - h:e] += dpre @ p.w2.data.T
        db3 = grad.reshape(-1, d).sum(axis=0)
        for w, dw in zip((u,) + weights, (du.reshape(u.shape), dw1, dw2, dw3, db1, db2, db3, dfilt)):
            T.accumulate(w, dw)

    return T.from_op(out.reshape(u.shape), (u,) + weights, backward)


class ConvCache:
    """Decode cache of `forward_gated`: the last taps - 1 layer-input rows,
    oldest first, (..., taps - 1, d_model) in the parameters' dtype, zeros
    before the first row; `t` counts the rows run. The last min(t, taps - 1)
    rows are real, the context the core carries into a tile: a step runs
    `_tile` on them plus the new row, a block runs `_sweep` from them."""

    def __init__(self, params: GatedBaseConv):
        self.params, self.tensors = params, T.tensors(params)
        self.rows = np.zeros((params.taps - 1, params.d_model), params.w1.dtype)
        self.t = 0

    def scalar_count(self) -> int:
        return self.rows.size

    def step(self, x: np.ndarray) -> np.ndarray:
        """One (d_model,) layer-input row in, one output row out: `_tile`
        filtering only the new row, bit for bit a one-row `block`."""
        p = self.params
        T.check_row(x, self.tensors, self.rows.shape[:-2], "ConvCache.step")
        rows = np.concatenate([self.rows, x[None, :]])
        h = min(self.t, len(self.rows))
        _, gate, _, act = _tile(p, rows[-1 - h:], h, row=True)
        self.rows = rows[1:]
        self.t += 1
        return (gate[0] * act) @ p.w3.data + p.b3.data

    def block(self, x: np.ndarray) -> np.ndarray:
        """Run a (..., c, d_model) block of layer-input rows through the
        layer: the core's `_sweep` from the real carried rows. Returns the
        (..., c, d_model) output rows, bit-identical to `forward_gated`'s
        when the block starts at a multiple of CONV_TILE; the rows take the
        block's leading dims."""
        p = self.params
        T.check_block(x, self.tensors, self.rows.shape[:-2], "ConvCache.block")
        n, held, h0 = x.shape[-2], p.taps - 1, min(self.t, p.taps - 1)
        lead = x.shape[:-2]
        rows = np.concatenate([np.broadcast_to(self.rows, lead + self.rows.shape[-2:]), x], axis=-2)
        rows = rows.reshape((math.prod(lead), held + n, p.d_model))
        out = _emit(p, _sweep(p, rows[:, held - h0:], h0), np.empty((len(rows), n, p.d_model), x.dtype))
        self.rows = rows[:, n:].reshape(lead + (held, p.d_model)).copy()
        self.t += n
        return out.reshape(x.shape)
