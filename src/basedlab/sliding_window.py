"""Exact softmax attention restricted to a trailing window of positions.

Position i attends to j in [max(0, i - w + 1), i] with logits q.k / sqrt(d)
and max-subtracted softmax. `window_core` computes it tile by tile: each
tile of WINDOW_TILE queries scores only its own keys plus the w - 1 before
it, the context it carries in, so a forward or backward costs O(N (c + w))
time and memory, never N x N. That loop is `_sweep`, the only one: the
forward, the backward's recompute and `WindowCache.block` all run it, and a
decode step runs its kernel `_attend` on the window the cache holds.
Rotary position encoding uses absolute positions, so a decode step after
cache eviction still reproduces the prefill output. `swa_forward`, the
layer's graph op, and the cache run the same rows code around the core:
`T.Heads`' projections and merge, the shell shared with the
linear-attention layer, and rotary through `T.rotary_from`.
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


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, mask: np.ndarray | None, out: np.ndarray | None = None):
    """softmax(q k^T / sqrt(d) + mask) @ v over the last two axes, d being
    q's width (no mask when None: a decode step's query sees every held
    key), the output written into `out` when given. Returns the
    probabilities and the output."""
    attn = q @ k.mT
    attn *= 1.0 / math.sqrt(q.shape[-1])
    if mask is not None:
        attn += mask
    T.softmax_np(attn, out=attn)
    return attn, np.matmul(attn, v, out=out)


def _sweep(q: np.ndarray, k: np.ndarray, v: np.ndarray, window: int, h0: int = 0, out: np.ndarray | None = None):
    """The core's tile loop over q's n rows, c = min(WINDOW_TILE, n) queries
    a tile, after the h0 rows k and v carry in before them: tile [s, e)
    runs `_attend` on the keys [lo, h0 + e), lo = max(0, h0 + s - w + 1),
    under `_tile_mask`, into out[..., s:e, :] when given. Yields each tile's
    span, lo and probabilities when asked for: one tile alive at a time."""
    n = q.shape[-2]
    c = min(WINDOW_TILE, max(n, 1))
    for s in range(0, n, c):
        e = min(s + c, n)
        lo = max(0, h0 + s - window + 1)
        mask = _tile_mask(e - s, h0 + s - lo, window, q.dtype)
        yield (s, e), lo, _attend(q[..., s:e, :], k[..., lo:h0 + e, :], v[..., lo:h0 + e, :], mask, None if out is None else out[..., s:e, :])[0]


def window_core(q: Tensor, k: Tensor, v: Tensor, window: int) -> Tensor:
    """y_i = sum_j softmax_j(q_i.k_j / sqrt(d)) v_j over i - w < j <= i, along
    the second-to-last axis, by `_sweep`. The backward walks the same tiles
    and adds into the slices of dk and dv they read, so nothing of size
    N x N is ever formed. A call of one tile that `T.recording` keeps its
    probabilities for the backward; a call of more tiles keeps only its
    inputs and output, and the backward reruns `_sweep`."""
    if k.shape != q.shape or v.shape[:-1] != q.shape[:-1]:
        raise ShapeError(f"window_core: shapes {q.shape}, {k.shape}, {v.shape} disagree")
    integer(window, "window_core: window")
    qd, kd, vd = q.data, k.data, v.data
    out = np.empty(v.shape, q.dtype)
    keep = q.shape[-2] <= WINDOW_TILE and T.recording(q, k, v)
    kept = [tile for tile in _sweep(qd, kd, vd, window, out=out) if keep]

    def backward(grad):
        dq, dk, dv = np.empty_like(qd), np.zeros_like(kd), np.zeros_like(vd)
        for (s, e), lo, attn in kept or _sweep(qd, kd, vd, window):
            g = grad[..., s:e, :]
            dlogits = g @ np.swapaxes(vd[..., lo:e, :], -1, -2)
            dlogits -= (dlogits * attn).sum(axis=-1, keepdims=True)
            dlogits *= attn
            dlogits *= 1.0 / math.sqrt(qd.shape[-1])
            np.matmul(dlogits, kd[..., lo:e, :], out=dq[..., s:e, :])
            dk[..., lo:e, :] += np.swapaxes(dlogits, -1, -2) @ qd[..., s:e, :]
            dv[..., lo:e, :] += np.swapaxes(attn, -1, -2) @ g
        T.accumulate(q, dq)
        T.accumulate(k, dk)
        T.accumulate(v, dv)

    return T.from_op(out, (q, k, v), backward)


def swa_forward(params: SwaParams, u: Tensor) -> Tensor:
    """Windowed causal attention over all positions of (..., N, d_model)
    rows as one graph op over `WindowCache.block`'s rows code: `project_rows`,
    rotary from position 0, `window_core` on leaf q, k, v, `merge_rows`."""
    weights = T.check_rows(u, params, "swa_forward")
    q, k, v = params.project_rows(u.data)
    if params.rotary:  # q and k joined, so one pass reads their turns, forward and backward
        q, k = T.rotary_from(np.stack((q, k)), 0)
    q, k, v = (T.leaf(a, T.recording(u, *weights)) for a in (q, k, v))
    y = window_core(q, k, v, params.window)

    def backward(g):
        grads = T.vjp(y, params.merge_rows_vjp(y.data, g), q, k, v)
        if params.rotary:
            grads[:2] = T.rotary_from_vjp(np.stack(grads[:2]), 0)
        T.accumulate(u, params.project_rows_vjp(u.data, grads))

    return T.from_op(params.merge_rows(y.data), (u,) + weights, backward)


class WindowCache:
    """Shift buffer of the last min(t, w) rotated keys and values per head,
    oldest first, (..., heads, min(t, w), head_dim) in the parameters' dtype,
    like `bc.ConvCache`'s rows: the context `window_core` carries into a
    tile. `t` is the next position."""

    def __init__(self, params: SwaParams):
        self.params, self.tensors = params, T.tensors(params)
        self.k = np.zeros((params.heads, 0, params.head_dim), params.wq.dtype)
        self.v = np.zeros_like(self.k)
        self.t = 0

    def scalar_count(self) -> int:
        return self.k.size + self.v.size

    def step(self, x: np.ndarray) -> np.ndarray:
        """One (d_model,) layer-input row in, one output row out (`decode_step`)."""
        return decode_step(self.params, self, x)[1]

    def block(self, x: np.ndarray) -> np.ndarray:
        """Run a (..., c, d_model) block of layer-input rows, at positions
        t..t+c-1, through the layer: the core's `_sweep` over [carried keys |
        block keys]. Returns the (..., c, d_model) output rows, bit-identical
        to `swa_forward`'s when the block starts at a multiple of
        WINDOW_TILE; the buffers take the block's leading dims."""
        p = self.params
        T.check_block(x, self.tensors, self.k.shape[:-3], "WindowCache.block")
        n, t = x.shape[-2], self.t
        q, k, v = p.project_rows(x)
        if p.rotary:
            q, k = T.rotary_from(q, t), T.rotary_from(k, t)
        lead = x.shape[:-2]
        keys, vals = (np.concatenate([np.broadcast_to(old, lead + old.shape[-3:]), new], axis=-2) for old, new in ((self.k, k), (self.v, v)))
        y = np.empty(v.shape, v.dtype)
        for _ in _sweep(q, keys, vals, p.window, self.k.shape[-2], y):
            pass
        held = min(t + n, p.window)
        self.k, self.v = (a[..., a.shape[-2] - held:, :].copy() for a in (keys, vals))
        self.t = t + n
        return p.merge_rows(y)


def decode_step(params: SwaParams, cache: WindowCache, x_t: np.ndarray) -> tuple[WindowCache, np.ndarray]:
    """Append one token's k, v, drop the key that left the window, and
    attend over the rest with the core's `_attend`, unmasked: bit for bit a
    one-row `WindowCache.block`. `x_t` is the (d_model,) layer-input row;
    returns the cache, mutated in place (one owner per decode stream), and the
    output row. The cache must be one built for `params`."""
    if cache.params is not params:
        raise ShapeError("decode_step: the cache was built for another layer's parameters")
    T.check_row(x_t, cache.tensors, cache.k.shape[:-3], "decode_step")
    q, k, v = params.project_rows(x_t)
    if params.rotary:  # q and k joined along the heads, so their turns are computed once
        q, k = T.rotary_np(np.concatenate([q, k]), cache.t).reshape(2, params.heads, 1, -1)
    drop = int(cache.k.shape[1] == params.window)
    cache.k = np.concatenate([cache.k[:, drop:], k], axis=1)
    cache.v = np.concatenate([cache.v[:, drop:], v], axis=1)
    cache.t += 1
    _, y = _attend(q, cache.k, cache.v, None)
    return cache, params.merge_rows(y)[0]
