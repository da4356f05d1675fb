"""Gated convolution mixers: an elementwise gate times a causal convolution.

The minimal (theory) form is z = (u W + B) .* (K * u + B_K) with a
full-length per-channel filter and position-dependent biases. The trainable
form projects up by an expansion factor, convolves with a short filter after
the projection, applies SiLU to the convolution branch only, and projects
back down:

    y = ((u W1 + b1) .* silu(h * (u W2) + b2)) W3 + b3

`forward_gated` computes this as one graph op in tiles of CONV_TILE rows
along the sequence. A tile's filter reaches back taps - 1 rows, so each tile
also projects that many earlier rows (its halo) through W2; every other
intermediate is one tile wide, and the whole chain down to W3 runs before
the next tile starts. The backward keeps only the input, recomputes each
tile and adds the halo rows' gradient into the rows before it. Decode
(`ConvCache`) runs the same tile function on one row, with the cached last
taps - 1 projected rows as the halo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ParameterError, ShapeError
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
    if expand < 1 or taps < 1:
        raise ParameterError(f"expand and taps must be >= 1, got {expand} and {taps}")
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


def _tile(p: GatedBaseConv, rows: np.ndarray, halo: np.ndarray):
    """Steps 1-4 of the core on one tile of layer-input rows (..., c, d);
    `halo` is u W2 of the h <= taps - 1 positions before them. Returns
    pre = u W2 of the rows, gate = u W1 + b1, sig = sigmoid(conv) and the
    SiLU act = conv * sig of conv = filter(halo, pre) + b2."""
    gate = rows @ p.w1.data
    gate += p.b1.data
    pre = rows @ p.w2.data
    conv = T.causal_conv_np(p.filt.data, halo, pre)
    conv += p.b2.data
    sig = T.sigmoid_np(conv)
    conv *= sig
    return pre, gate, sig, conv


def forward_gated(params: GatedBaseConv, u: Tensor) -> Tensor:
    """((u W1 + b1) .* silu(h * (u W2) + b2)) W3 + b3 over the second-to-last
    axis, as one graph op in tiles of c = min(CONV_TILE, N) rows; a tile
    starting at row s takes u W2 of the h = min(taps - 1, s) rows before it
    as its halo (see the module docstring)."""
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
    starts = range(0, n, c)

    def halo_of(s: int) -> tuple[int, np.ndarray]:
        h = min(p.taps - 1, s)
        return h, x[:, s - h:s] @ p.w2.data

    out = np.empty(x.shape, u.dtype)
    for s in starts:
        _, gate, _, act = _tile(p, x[:, s:s + c], halo_of(s)[1])
        gate *= act
        np.matmul(gate, p.w3.data, out=out[:, s:s + c])
    out += p.b3.data

    def backward(grad):
        grad = grad.reshape(x.shape)
        du = np.zeros_like(x)
        dw1, dw2, dw3 = (np.zeros_like(w.data) for w in (p.w1, p.w2, p.w3))
        db1, db2, dfilt = (np.zeros_like(w.data) for w in (p.b1, p.b2, p.filt))
        for s in starts:
            rows = x[:, s:s + c]
            h, halo = halo_of(s)
            pre, gate, sig, act = _tile(p, rows, halo)
            g = grad[:, s:s + c]
            dw3 += (gate * act).reshape(-1, wide).T @ g.reshape(-1, d)
            dgated = g @ p.w3.data.T
            dgate = dgated * act
            dconv = dgated * gate
            sig -= act * sig  # silu'(conv) = sig + act (1 - sig)
            sig += act
            dconv *= sig
            ext = np.concatenate([halo, pre], axis=-2) if h else pre
            dext, dfilt_tile = T.causal_conv_grad_np(p.filt.data, ext, dconv, h)
            dfilt += dfilt_tile
            db1 += dgate.reshape(-1, wide).sum(axis=0)
            db2 += dconv.reshape(-1, wide).sum(axis=0)
            dw1 += rows.reshape(-1, d).T @ dgate.reshape(-1, wide)
            dw2 += x[:, s - h:s + c].reshape(-1, d).T @ dext.reshape(-1, wide)
            du[:, s:s + c] += dgate @ p.w1.data.T
            du[:, s - h:s + c] += dext @ p.w2.data.T
        db3 = grad.reshape(-1, d).sum(axis=0)
        for w, dw in zip((u,) + weights, (du.reshape(u.shape), dw1, dw2, dw3, db1, db2, db3, dfilt)):
            T.accumulate(w, dw)

    return T.from_op(out.reshape(u.shape), (u,) + weights, backward)


class ConvCache:
    """Decode cache of `forward_gated`: the last taps-1 up-projected rows,
    oldest first (zeros are the causal padding). Each step runs the core's
    tile on one row with this tail as its halo."""

    def __init__(self, params: GatedBaseConv, dtype=np.float64):
        self.params = params
        self.tail = np.zeros((params.taps - 1, params.expanded), dtype=dtype)

    def scalar_count(self) -> int:
        return self.tail.size

    def step(self, x: np.ndarray) -> np.ndarray:
        """One (d_model,) layer-input row in, one output row out."""
        p = self.params
        pre, gate, _, act = _tile(p, x[None, :], self.tail)
        if len(self.tail):
            self.tail[:-1] = self.tail[1:]
            self.tail[-1] = pre[0]
        return (gate[0] * act[0]) @ p.w3.data + p.b3.data
