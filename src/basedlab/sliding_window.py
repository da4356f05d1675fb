"""Exact softmax attention restricted to a trailing window of positions.

Position i attends to j in [max(0, i - w + 1), i] with logits q.k / sqrt(d)
and max-subtracted softmax. `window_core` computes it as a loop over tiles
of WINDOW_TILE queries: each tile scores only its own keys plus the w - 1
before it, the context it carries in, so a forward or backward costs
O(N (c + w)) time and memory, never N x N. Each tile runs `_attend`, and so
does a decode step, on the window `WindowCache` holds. Rotary position
encoding uses absolute positions, so a decode step after cache eviction still
reproduces the prefill output. Prefill and decode project and merge their
heads through `T.Heads`, the shell shared with the linear-attention layer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ShapeError, integer
from .tensor import Tensor


@dataclass
class SwaParams(T.Heads):
    """The `T.Heads` projections and window size for one sliding-window attention layer."""

    window: int
    rotary: bool = True

    def __post_init__(self):
        super().__post_init__()
        integer(self.window, "window")
        if self.wq.shape[1] != self.wv.shape[1]:
            raise ShapeError("q, k, v projections must share output width")
        if self.rotary and self.head_dim % 2:
            raise ShapeError(f"rotary needs an even head dim, got {self.head_dim}")


def create(
    d_model: int, heads: int, window: int, rotary: bool = True, rng: np.random.Generator | None = None, dtype=np.float64,
) -> SwaParams:
    """Fresh parameters from `T.Heads.draw`, every projection d_model wide."""
    return SwaParams.draw(rng or np.random.default_rng(0), d_model, d_model, dtype, heads=heads, window=window, rotary=rotary)


# -- tiled window core -----------------------------------------------------------

WINDOW_TILE = 64


@functools.lru_cache(maxsize=32)
def _tile_mask(rows: int, offset: int, window: int, dtype: np.dtype) -> np.ndarray:
    """Additive (rows, offset + rows) mask of a tile whose first query sits at
    key column `offset`: 0 where key r is in query i's window
    (offset + i - w < r <= offset + i), -inf elsewhere. Cached, read-only."""
    i = np.arange(offset, offset + rows)[:, None]
    r = np.arange(offset + rows)
    mask = np.where((r <= i) & (r > i - window), 0.0, -np.inf).astype(dtype)
    mask.flags.writeable = False
    return mask


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, mask, scale: float, out: np.ndarray | None = None):
    """softmax(q k^T * scale + mask) @ v over the last two axes, the output
    written into `out` when given. Returns the probabilities and the output."""
    attn = q @ np.swapaxes(k, -1, -2)
    attn *= scale
    attn += mask
    T.softmax_np(attn, out=attn)
    return attn, np.matmul(attn, v, out=out)


def window_core(q: Tensor, k: Tensor, v: Tensor, window: int) -> Tensor:
    """y_i = sum_j softmax_j(q_i.k_j / sqrt(d)) v_j over i - w < j <= i, along
    the second-to-last axis.

    A loop over tiles of c = min(WINDOW_TILE, N) queries: tile [s, e) scores
    the keys [max(0, s - w + 1), e), the last w - 1 rows before it being the
    context it carries in, under `_tile_mask`, through `_attend`.
    The backward walks the same tiles and adds into the slices of dk and dv
    they read, so nothing of size N x N is ever formed. A call of one tile
    keeps its probabilities for the backward; a call of more tiles keeps
    only its inputs and output, and the backward reruns `_attend` per tile.
    """
    if k.shape != q.shape or v.shape[:-1] != q.shape[:-1]:
        raise ShapeError(f"window_core: shapes {q.shape}, {k.shape}, {v.shape} disagree")
    integer(window, "window_core: window")
    n, dtype = q.shape[-2], q.dtype
    c = min(WINDOW_TILE, max(n, 1))
    spans = [(s, min(s + c, n), max(0, s - window + 1)) for s in range(0, n, c)]
    scale = 1.0 / math.sqrt(q.shape[-1])
    qd, kd, vd = q.data, k.data, v.data

    def attend(s, e, lo, out=None):
        """Tile [s, e)'s probabilities, its output written into `out` when given."""
        mask = _tile_mask(e - s, s - lo, window, dtype)
        return _attend(qd[..., s:e, :], kd[..., lo:e, :], vd[..., lo:e, :], mask, scale, out)[0]

    out, kept = np.empty(v.shape, dtype), []
    for s, e, lo in spans:
        attn = attend(s, e, lo, out[..., s:e, :])
        if len(spans) == 1:
            kept.append(attn)

    def backward(grad):
        dq, dk, dv = np.empty_like(qd), np.zeros_like(kd), np.zeros_like(vd)
        for s, e, lo in spans:
            attn = kept[0] if kept else attend(s, e, lo)
            g = grad[..., s:e, :]
            dlogits = g @ np.swapaxes(vd[..., lo:e, :], -1, -2)
            dlogits -= (dlogits * attn).sum(axis=-1, keepdims=True)
            dlogits *= attn
            dlogits *= scale
            np.matmul(dlogits, kd[..., lo:e, :], out=dq[..., s:e, :])
            dk[..., lo:e, :] += np.swapaxes(dlogits, -1, -2) @ qd[..., s:e, :]
            dv[..., lo:e, :] += np.swapaxes(attn, -1, -2) @ g
        T.accumulate(q, dq)
        T.accumulate(k, dk)
        T.accumulate(v, dv)

    return T.from_op(out, (q, k, v), backward)


def swa_forward(params: SwaParams, u: Tensor) -> Tensor:
    """Windowed causal attention over all positions; differentiable. Accepts
    (..., N, d_model)."""
    q, k, v = params.project(u)
    if params.rotary:
        q = T.rotary(q)
        k = T.rotary(k)
    return params.merge(window_core(q, k, v, params.window))


class WindowCache:
    """Shift buffer of the last min(t, w) rotated keys and values per head,
    oldest first, in the parameters' dtype, like `bc.ConvCache`'s rows: the
    context `window_core` carries into a tile. `t` is the next position."""

    def __init__(self, params: SwaParams):
        self.params = params
        self.k = np.zeros((params.heads, 0, params.head_dim), params.wq.dtype)
        self.v = np.zeros_like(self.k)
        self.t = 0

    def scalar_count(self) -> int:
        return self.k.size + self.v.size

    def step(self, x: np.ndarray) -> np.ndarray:
        """One (d_model,) layer-input row in, one output row out (`decode_step`)."""
        return decode_step(self.params, self, x)[1]


def decode_step(params: SwaParams, cache: WindowCache, x_t: np.ndarray) -> tuple[WindowCache, np.ndarray]:
    """Append one token's k, v, drop the key that left the window, and
    attend over the rest with the core's `_attend`, unmasked.

    `x_t` is the layer input row (d_model,); returns the cache (mutated in
    place; a cache is single-owner per decode stream) and the output row
    after the output projection.
    """
    T.check_row(x_t, params.wq, "decode_step")
    q, k, v = params.project_rows(x_t)
    if params.rotary:
        q = T.rotary_np(q, cache.t)
        k = T.rotary_np(k, cache.t)
    drop = int(cache.k.shape[1] == params.window)
    cache.k = np.concatenate([cache.k[:, drop:], k], axis=1)
    cache.v = np.concatenate([cache.v[:, drop:], v], axis=1)
    cache.t += 1
    _, y = _attend(q, cache.k, cache.v, 0.0, 1.0 / math.sqrt(params.head_dim))
    return cache, params.merge_rows(y)[0]
