"""Exact softmax attention restricted to a trailing window of positions.

Position i attends to j in [max(0, i - w + 1), i] with logits q.k / sqrt(d)
and max-subtracted softmax. Rotary position encoding uses absolute positions,
so a decode step after cache eviction still reproduces the prefill output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ParameterError, ShapeError
from .tensor import Tensor

_MASK_OFF = -1e30


@dataclass
class SwaParams:
    """Projections and window size for one sliding-window attention layer."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    window: int
    heads: int
    rotary: bool = True
    rotary_base: float = 10000.0

    def __post_init__(self):
        if self.window < 1:
            raise ParameterError(f"window must be >= 1, got {self.window}")
        if self.heads < 1:
            raise ParameterError(f"heads must be >= 1, got {self.heads}")
        if self.wq.shape != self.wk.shape or self.wq.shape[1] != self.wv.shape[1]:
            raise ShapeError("q, k, v projections must share output width")
        if self.wq.shape[1] % self.heads:
            raise ShapeError(f"projection width {self.wq.shape[1]} does not divide into {self.heads} heads")
        if self.rotary and self.head_dim % 2:
            raise ShapeError(f"rotary needs an even head dim, got {self.head_dim}")

    @property
    def d_model(self) -> int:
        return self.wq.shape[0]

    @property
    def head_dim(self) -> int:
        return self.wq.shape[1] // self.heads


def create(
    d_model: int,
    heads: int,
    window: int,
    rotary: bool = True,
    rng: np.random.Generator | None = None,
    dtype=np.float64,
) -> SwaParams:
    """Fresh parameters with scaled-normal init (std 0.02)."""
    rng = rng or np.random.default_rng(0)
    return SwaParams(
        wq=T.init_normal(rng, d_model, d_model, dtype),
        wk=T.init_normal(rng, d_model, d_model, dtype),
        wv=T.init_normal(rng, d_model, d_model, dtype),
        wo=T.init_normal(rng, d_model, d_model, dtype),
        window=window,
        heads=heads,
        rotary=rotary,
    )


def window_mask(n: int, window: int, dtype=np.float64) -> np.ndarray:
    """Additive mask: 0 inside the trailing window, a large negative outside."""
    i = np.arange(n)
    visible = (i[None, :] <= i[:, None]) & (i[None, :] > i[:, None] - window)
    return np.where(visible, 0.0, _MASK_OFF).astype(dtype)


def swa_forward(params: SwaParams, u: Tensor) -> Tensor:
    """Windowed causal attention over all positions; differentiable."""
    squeeze = u.ndim == 2
    if squeeze:
        u = T.reshape(u, (1,) + u.shape)
    if u.shape[-1] != params.d_model:
        raise ShapeError(f"input width {u.shape[-1]} does not match d_model {params.d_model}")
    b, n, _ = u.shape
    h, dh = params.heads, params.head_dim

    def heads_of(w):
        return T.transpose(T.reshape(T.matmul(u, w), (b, n, h, dh)), (0, 2, 1, 3))

    q = heads_of(params.wq)
    k = heads_of(params.wk)
    v = heads_of(params.wv)
    if params.rotary:
        positions = np.arange(n)
        q = T.rotary(q, positions, params.rotary_base)
        k = T.rotary(k, positions, params.rotary_base)
    logits = T.scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
    logits = T.add_const(logits, window_mask(n, params.window, logits.dtype))
    attn = T.softmax_last(logits)
    y = T.matmul(attn, v)
    out = T.matmul(T.reshape(T.transpose(y, (0, 2, 1, 3)), (b, n, h * dh)), params.wo)
    return T.take_axis(out, 0, 0) if squeeze else out


class WindowCache:
    """Shift buffer of the last min(t, w) rotated keys and values per head,
    oldest first, like `bc.ConvCache`'s tail; `t` is the next position."""

    def __init__(self, params: SwaParams, dtype=np.float64):
        self.params = params
        self.k = np.zeros((params.heads, 0, params.head_dim), dtype=dtype)
        self.v = np.zeros_like(self.k)
        self.t = 0

    def scalar_count(self) -> int:
        return self.k.size + self.v.size

    def step(self, x: np.ndarray) -> np.ndarray:
        """One (d_model,) layer-input row in, one output row out (`decode_step`)."""
        return decode_step(self.params, self, x)[1]


def decode_step(params: SwaParams, cache: WindowCache, x_t: np.ndarray) -> tuple[WindowCache, np.ndarray]:
    """Append one token's k, v, drop the key that left the window, and
    attend over the rest.

    `x_t` is the layer input row (d_model,); returns the cache (mutated in
    place; a cache is single-owner per decode stream) and the output row
    after the output projection.
    """
    if x_t.shape != (params.d_model,):
        raise ShapeError(f"decode_step expects a ({params.d_model},) row, got {x_t.shape}")
    h, dh = params.heads, params.head_dim
    q = (x_t @ params.wq.data).reshape(h, dh)
    k = (x_t @ params.wk.data).reshape(h, dh)
    v = (x_t @ params.wv.data).reshape(h, dh)
    if params.rotary:
        q = T.rotary_np(q, cache.t, params.rotary_base)
        k = T.rotary_np(k, cache.t, params.rotary_base)
    drop = int(cache.k.shape[1] == params.window)
    cache.k = np.concatenate([cache.k[:, drop:], k[:, None]], axis=1)
    cache.v = np.concatenate([cache.v[:, drop:], v[:, None]], axis=1)
    cache.t += 1
    logits = np.einsum("hd,hwd->hw", q, cache.k) / math.sqrt(dh)
    logits -= logits.max(axis=-1, keepdims=True)
    weights = np.exp(logits)
    weights /= weights.sum(axis=-1, keepdims=True)
    y = np.einsum("hw,hwd->hd", weights, cache.v)
    return cache, y.reshape(h * dh) @ params.wo.data
