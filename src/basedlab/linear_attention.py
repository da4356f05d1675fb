"""Causal linear attention in three equivalent views.

Per head, with feature map phi and value sequence v:

    y_i = phi(q_i) . s_i / max(phi(q_i) . z_i, EPS)
    s_i = sum_{j<=i} phi(k_j)^T v_j        (D x d KV state)
    z_i = sum_{j<=i} phi(k_j)              (D   normalizer state)

`attention_core` runs every head and decay as one loop over tiles of
CORE_TILE positions, `_sweep`: an exact causal quadratic form inside each
tile plus the block S = [s | z] (z as its last column) carried from tile to
tile, forward and backward. It takes the raw d'-wide q and k: the
intra-tile scores come from `fm.tile_scores`, and phi is formed per tile,
only for S. The three views are `parallel_forward`, the layer's graph op;
`chunked_forward`, the same core at tiles of `chunk` rows, run without a
graph and counting the slices each tile reads and writes; and
`recurrent_forward`, a rollout through the decode cache `LinAttnState`,
which holds S: its `step` folds one token in with the core's `_fold` and
reads it out with its `_read`, and its `block` runs `_sweep` from the S it
carries. They agree to roundoff; optional per-head decay multiplies the
state by gamma each step. Every view uses the Taylor map's unique-monomial layout, so the
state width D is 1 + d' + d'(d'+1)/2, and runs the same rows code around
the core: `T.Heads`' projections and merge, and `_combine_heads_numpy`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import feature_maps as fm
from . import tensor as T
from .errors import ParameterError, ShapeError, integer
from .tensor import Tensor


@dataclass
class DecayConfig:
    """Per-head state decay; optional learned head-mixing weights."""

    gamma: np.ndarray
    w_mix: Tensor | None = None

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=np.float64)
        if self.gamma.ndim != 1 or not ((self.gamma > 0) & (self.gamma <= 1)).all():
            raise ParameterError("decay gammas must form a 1-D vector in (0, 1]")


def default_decay_gammas(heads: int) -> np.ndarray:
    """Geometric ladder 1 - 2^-(h+3): slowest head near 1, fastest 0.875."""
    return 1.0 - 2.0 ** -(np.arange(heads, dtype=np.float64) + 3.0)


@dataclass
class LinAttnParams(T.Heads):
    """The `T.Heads` projections plus feature-map choice for one linear-attention
    layer, its `kind` stored with the layer's d' (the per-head q/k width)."""

    kind: fm.FeatureMapKind
    decay: DecayConfig | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.kind.d_prime not in (None, self.d_prime):
            raise ShapeError(f"feature map {self.kind.tag} reads d_prime {self.kind.d_prime}, but q and k are {self.d_prime} wide per head")
        self.kind = fm.FeatureMapKind(self.kind.tag, self.d_prime)
        if self.decay is not None and self.decay.gamma.shape != (self.heads,):
            raise ParameterError(f"decay needs one gamma per head, got {self.decay.gamma.shape}")
        if self.w_mix is not None and self.w_mix.shape != (self.d_model, self.heads):
            raise ShapeError(f"w_mix must be (d_model, heads) = ({self.d_model}, {self.heads}), got {self.w_mix.shape}")

    @property
    def w_mix(self) -> Tensor | None:  # the head-mixing weights, if any
        return None if self.decay is None else self.decay.w_mix

    @property
    def d_prime(self) -> int:
        return self.wq.shape[1] // self.heads

    @property
    def feature_width(self) -> int:
        return fm.feature_dim(self.kind)


def create(
    d_model: int, heads: int, d_prime: int, kind: fm.FeatureMapKind | None = None,
    decay: DecayConfig | None = None, rng: np.random.Generator | None = None, dtype=np.float64,
) -> LinAttnParams:
    """Fresh parameters from `T.Heads.draw`, q and k d_prime wide per head."""
    return LinAttnParams.draw(
        rng or np.random.default_rng(0), d_model, heads * d_prime, dtype,
        heads=heads, kind=kind or fm.taylor_exp2(d_prime), decay=decay,
    )


# -- tiled causal core -----------------------------------------------------------

CORE_TILE = 64
EPS = 1e-12  # the normalizer's floor: y = num / max(den, EPS)
IDENTITY = fm.FeatureMapKind("Identity")


@functools.lru_cache(maxsize=32)
def _tile_decay(gamma: float | tuple[float, ...], c: int, dtype: np.dtype) -> tuple[np.ndarray, ...]:
    """Causal mask gamma^(i-j), carry-in gamma^(i+1), lift gamma^(c-1-j) and
    fold gamma^c of a c-position tile (carry and lift as (c, 1) columns), with
    one leading axis per gamma when `gamma` is a tuple. Cached, read-only."""
    g = np.asarray(gamma, dtype=np.float64)[..., None, None]
    i = np.arange(c)
    expo = i[:, None] - i[None, :]
    mask = np.where(expo >= 0, g ** np.maximum(expo, 0), 0.0).astype(dtype)
    carry = (g ** (i[:, None] + 1)).astype(dtype)
    lift = (g ** (c - 1 - i[:, None])).astype(dtype)
    fold = (g ** c).astype(dtype)
    for a in (mask, carry, lift, fold):
        a.flags.writeable = False
    return mask, carry, lift, fold


def _fold(state, decay, keys: np.ndarray, v1: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The [s | z] block S after a tile, decay * S + keys^T [V | 1] (S unscaled
    when `decay` is None), with `keys` the tile's phi(K) lifted by
    gamma^(c-1-j); written into `out` when given. A one-row tile's product
    is an outer product, formed by broadcasting: a k = 1 matmul has no sum to
    reorder, so the two agree bit for bit."""
    kv = keys[..., 0, :, None] * v1 if keys.shape[-2] == 1 else np.swapaxes(keys, -1, -2) @ v1
    return np.add(state if decay is None else decay * state, kv, out=out)


def _read(nd: np.ndarray, eps: float, out: np.ndarray | None = None) -> np.ndarray:
    """y = num / max(den, eps) of [num | den] rows, den their last column,
    written into `out` when given."""
    return np.divide(nd[..., :-1], np.maximum(nd[..., -1:], eps), out=out)


def _sweep(q: np.ndarray, k: np.ndarray, v: np.ndarray, kind: fm.FeatureMapKind, g: float | tuple[float, ...], tile: int,
           each=None, state: np.ndarray | None = None, fold_last: bool = False, out: np.ndarray | None = None, eps: float = EPS):
    """The core's tile loop over the second-to-last axis, after `fm.check`
    of q and k, in tiles of c = min(tile, N) rows, from the carried [s | z]
    block `state` (None: nothing carried). Each tile takes its exact
    quadratic form, `fm.tile_scores` (1 + a + a^2/2 of the raw q.k for the
    Taylor map) under the causal mask, plus carry * (phi(Q) S) of the S it
    carries in; its [num | den] rows are read out into out[..., s:e, :] when
    `out` is given (`_read`), and `each`, if any, gets its span, that S, its
    scores, [num | den] and [V | 1] rows. Then the tile's keys fold into S,
    S <- gamma^m S + (lift phi(K))^T [V | 1] for m rows, the ones column
    carrying z; after the last tile only with `fold_last`. `g` is the
    `_gammas` key of the decay. Returns the last S."""
    for x in (q, k):
        fm.check(kind, x)
    n, dtype = q.shape[-2], q.dtype
    c = min(tile, max(n, 1))
    mask, carry, lift, fold = _tile_decay(g, c, dtype)
    ones = np.ones(v.shape[:-2] + (c, 1), dtype)
    for s in range(0, n, c):
        e = min(s + c, n)
        m = e - s
        qt, kt = q[..., s:e, :], k[..., s:e, :]
        vt = np.concatenate([v[..., s:e, :], ones[..., :m, :]], axis=-1)
        sc = fm.tile_scores(kind, qt, kt, mask[..., :m, :m])
        ndt = sc @ vt
        if state is not None:
            ndt += carry[..., :m, :] * (fm.phi(kind, qt) @ state)
        if out is not None:
            _read(ndt, eps, out[..., s:e, :])
        if each is not None:
            each(((s, e), state, sc, ndt, vt))
        if e < n or fold_last:  # an m-row tile's lift is lift[c - m:], gamma^(m-1-j), and its fold that of an m-position tile
            decay = fold if m == c else _tile_decay(g, m, dtype)[3]
            state = _fold(0.0 if state is None else state, decay, fm.phi(kind, kt) * lift[..., c - m:, :], vt)
    return state


def _gammas(gamma) -> float | tuple[float, ...]:
    """The float64 decay of a core call as a `_tile_decay` key: a float, or one per head."""
    g = np.asarray(gamma, dtype=np.float64)
    return tuple(g.ravel().tolist()) if g.size > 1 else float(g.reshape(()))


def attention_core(
    q: Tensor, k: Tensor, v: Tensor, eps: float, gamma: float | np.ndarray = 1.0, kind: fm.FeatureMapKind = IDENTITY,
    tile: int = CORE_TILE, counter: dict | None = None,
) -> Tensor:
    """y_i = phi(q_i).s_i / max(phi(q_i).z_i, eps) over the second-to-last axis.

    `kind` is phi, applied inside the core (the default Identity takes
    featurized inputs); `gamma` is a scalar or one decay per head (the
    third-to-last axis). The forward is `_sweep`, a loop over tiles of
    c = min(tile, N) positions, each writing its output rows from its
    [num | den]. phi(Q) is formed from the second tile on and phi(K) up to
    the second-to-last, so never at N <= tile. An optional `counter` dict
    adds up the sizes of the q, k, v slices each tile reads and the y slice
    it writes (keys q_read, k_read, v_read, y_write). The backward walks the
    tiles in reverse carrying dS. A call of one tile that `T.recording`
    keeps that tile's arrays for the backward; a call of more tiles keeps
    only its inputs and output, and the backward reruns `_sweep`, so nothing
    of size N x F is ever stored.
    """
    n = q.shape[-2]
    if k.shape != q.shape or v.shape[:-1] != q.shape[:-1]:
        raise ShapeError(f"attention_core: shapes {q.shape}, {k.shape}, {v.shape} disagree")
    integer(tile, "attention_core: tile")
    g = _gammas(gamma)
    if isinstance(g, tuple) and (q.ndim < 3 or q.shape[-3] != len(g)):
        raise ShapeError(f"attention_core: {len(g)} gammas for inputs of shape {q.shape}")
    qd, kd, vd = q.data, k.data, v.data
    d = v.shape[-1]
    mask, carry, lift, fold = _tile_decay(g, min(tile, max(n, 1)), q.dtype)

    out, kept = np.empty(v.shape, q.dtype), []
    keep = 0 < n <= tile and T.recording(q, k, v)

    def each(arrays):
        (s, e), _, _, _, vt = arrays
        if counter is not None:
            for key, a in (("q_read", qd[..., s:e, :]), ("k_read", kd[..., s:e, :]), ("v_read", vt[..., :d]), ("y_write", out[..., s:e, :])):
                counter[key] = counter.get(key, 0) + a.size
        if keep:
            kept.append(arrays)

    _sweep(qd, kd, vd, kind, g, tile, each, out=out, eps=eps)

    def backward(grad):
        tiles = kept or []
        if not tiles:
            _sweep(qd, kd, vd, kind, g, tile, tiles.append)
        dq, dk, dv = np.empty_like(qd), np.empty_like(kd), np.empty_like(vd)
        dstate = 0.0  # gradient of the state the later tiles read
        for (s, e), state, sc, ndt, vt in reversed(tiles):
            qt, kt, gy = qd[..., s:e, :], kd[..., s:e, :], grad[..., s:e, :]
            num, den = ndt[..., :d], ndt[..., d]
            floored = np.maximum(den, eps)
            dden = -(gy * num).sum(axis=-1) / (floored * floored)
            gt = np.concatenate([gy / floored[..., None], np.where(den > eps, dden, 0.0)[..., None]], axis=-1)
            dq[..., s:e, :], dk[..., s:e, :] = fm.tile_scores_vjp(
                kind, qt, kt, mask[..., :e - s, :e - s], gt @ np.swapaxes(vt, -1, -2)
            )
            dvt = np.swapaxes(sc, -1, -2) @ gt
            if e < n:
                dk[..., s:e, :] += fm.phi_vjp(kind, kt, lift * (vt @ np.swapaxes(dstate, -1, -2)))
                dvt += (fm.phi(kind, kt) * lift) @ dstate
            dv[..., s:e, :] = dvt[..., :d]
            if s:
                gt = carry[..., :e - s, :] * gt
                dq[..., s:e, :] += fm.phi_vjp(kind, qt, gt @ np.swapaxes(state, -1, -2))
                dstate = fold * dstate + np.swapaxes(fm.phi(kind, qt), -1, -2) @ gt
        T.accumulate(q, dq)
        T.accumulate(k, dk)
        T.accumulate(v, dv)

    return T.from_op(out, (q, k, v), backward)


# -- the three views ------------------------------------------------------------


def parallel_forward(params: LinAttnParams, u: Tensor) -> Tensor:
    """All positions of (..., N, d_model) rows as one graph op over
    `LinAttnState.block`'s rows code: `project_rows`, `attention_core` on
    leaf q, k, v, then `_combine_heads_numpy`. The backward adds u's
    gradient terms in the order head mixing, v, k, q."""
    mix = params.w_mix
    weights = T.check_rows(u, params, "parallel_forward")
    un, grad = u.data, T.recording(u, *weights)
    q, k, v = (T.leaf(a, grad) for a in params.project_rows(un))
    core = attention_core(q, k, v, EPS, 1.0 if params.decay is None else params.decay.gamma, params.kind)

    def backward(g):
        y, du = core.data, None
        if mix is None:
            gy = params.merge_rows_vjp(y, g)
        else:  # merge_rows ran on y * s, s = probs = softmax(un @ w_mix) as a column per head
            probs = _head_weights(params, un)
            s = np.ascontiguousarray(np.swapaxes(probs, -1, -2))[..., None]
            gy = params.merge_rows_vjp(y * s, g)
            gw = np.swapaxes((gy * y).sum(axis=-1), -1, -2)
            du, gy = T.linear_vjp(un, mix, (gw - (gw * probs).sum(axis=-1, keepdims=True)) * probs), gy * s
        T.accumulate(u, params.project_rows_vjp(un, T.vjp(core, gy, q, k, v), du))

    return T.from_op(_combine_heads_numpy(params, un, core.data), (u,) + weights, backward)


class LinAttnState:
    """The layer's constant-memory decode cache: per head, s = [s | z] of
    shape (..., heads, D, head_dim + 1) in the parameters' dtype, the KV
    state with the normalizer z as its last column, the block
    `attention_core` carries between tiles. `t` counts the rows folded in.
    `step` is the core's tile at N = 1 in the other order: fold, then read."""

    def __init__(self, params: LinAttnParams):
        self.params, self.tensors = params, T.tensors(params)
        self.s = np.zeros((params.heads, params.feature_width, params.head_dim + 1), params.wq.dtype)
        self.decay = None if params.decay is None else params.decay.gamma.astype(self.s.dtype)[:, None, None]
        self.t = 0

    def scalar_count(self) -> int:
        return self.s.size

    def step(self, x: np.ndarray) -> np.ndarray:
        """Project one (d_model,) row, advance the state, and return the output row."""
        p = self.params
        T.check_row(x, self.tensors, self.s.shape[:-3], "LinAttnState.step")
        q, k, v = p.project_rows(x)
        phi_q, phi_k = fm.apply_numpy(p.kind, np.concatenate([q, k])).reshape(2, p.heads, 1, -1)  # one call for q and k
        v1 = np.concatenate([v, np.ones((p.heads, 1, 1), v.dtype)], axis=-1)
        _fold(self.s, self.decay, phi_k, v1, out=self.s)
        self.t += 1
        return _combine_heads_numpy(p, x[None], _read(phi_q @ self.s, EPS))[0]

    def block(self, x: np.ndarray) -> np.ndarray:
        """Run a (..., c, d_model) block of layer-input rows through the
        layer: `_sweep` at CORE_TILE rows, started from the carried block
        and with the last tile's fold done. Returns the (..., c, d_model)
        output rows, bit-identical to `parallel_forward`'s when the block
        starts at a multiple of CORE_TILE; the state takes the block's
        leading dims."""
        p = self.params
        T.check_block(x, self.tensors, self.s.shape[:-3], "LinAttnState.block")
        q, k, v = p.project_rows(x)
        y = np.empty(v.shape, v.dtype)
        gamma = _gammas(1.0 if p.decay is None else p.decay.gamma)
        self.s = _sweep(q, k, v, p.kind, gamma, CORE_TILE, state=self.s if self.t else None, fold_last=True, out=y)
        self.t += x.shape[-2]
        return _combine_heads_numpy(p, x, y)


def _rows(params: LinAttnParams, u: Tensor | np.ndarray, view: str) -> np.ndarray:
    """The (N, d_model) array of `u`; the graph-free views take no other shape."""
    un = u.data if isinstance(u, Tensor) else np.asarray(u)
    if un.ndim != 2 or un.shape[1] != params.d_model:
        raise ShapeError(f"{view}: expected an (N, {params.d_model}) input, got {un.shape}")
    T.check_rows(un, params, view)
    return un


def recurrent_forward(params: LinAttnParams, u: Tensor | np.ndarray) -> Tensor:
    """Token-by-token rollout of the full layer through the decode step,
    graph-free like chunked_forward: equality with the parallel view is the
    point, not trainability."""
    un = _rows(params, u, "recurrent_forward")
    state = LinAttnState(params)
    rows = [state.step(row) for row in un]
    return Tensor(np.stack(rows) if rows else np.empty((0, params.d_model), un.dtype))


def _head_weights(params: LinAttnParams, un: np.ndarray) -> np.ndarray | None:
    """softmax(un @ w_mix), one weight per row and head, or None for a layer without head mixing."""
    return None if params.w_mix is None else T.softmax_np(un @ params.w_mix.data)


def _combine_heads_numpy(params: LinAttnParams, un: np.ndarray, per_head_y: np.ndarray) -> np.ndarray:
    """per_head_y is (..., heads, N, head_dim): each head's rows weighed by
    `_head_weights`, then `merge_rows`."""
    weights = _head_weights(params, un)
    if weights is not None:
        per_head_y = per_head_y * np.swapaxes(weights, -1, -2)[..., None]
    return params.merge_rows(per_head_y)


def chunked_forward(params: LinAttnParams, u: Tensor | np.ndarray, chunk: int = 16, counter: dict | None = None) -> Tensor:
    """`parallel_forward`'s rows code with `attention_core` at tiles of
    `chunk` rows, run without a graph (train through `parallel_forward`).
    The optional `counter` dict takes the core's transfer totals, the sizes
    of the q, k, v slices each tile reads and of the y slice it writes."""
    un = _rows(params, u, "chunked_forward")
    q, k, v = (Tensor(a) for a in params.project_rows(un))
    gamma = 1.0 if params.decay is None else params.decay.gamma
    y = attention_core(q, k, v, EPS, gamma, params.kind, chunk, counter)
    return Tensor(_combine_heads_numpy(params, un, y.data))
