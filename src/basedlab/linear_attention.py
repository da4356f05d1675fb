"""Causal linear attention in three equivalent views.

Per head, with feature map phi and value sequence v:

    y_i = phi(q_i) . s_i / max(phi(q_i) . z_i, eps)
    s_i = sum_{j<=i} phi(k_j)^T v_j        (D x d KV state)
    z_i = sum_{j<=i} phi(k_j)              (D   normalizer state)

`parallel_forward` runs every head and decay through one core, a loop over
tiles of CORE_TILE positions: an exact causal quadratic form inside each tile
plus the block S = [s | z] (z as its last column) carried from tile to tile,
forward and backward. It takes the raw d'-wide q and k: the intra-tile
scores come from `fm.tile_scores`, and phi is formed per tile, only for S.
A call of one tile keeps that tile's arrays for the backward; a call of more
tiles keeps only its inputs and output, and the backward recomputes each
tile with the forward's own tile code.
`chunked_forward` is the same core at tiles of `chunk` rows, run without a
graph and counting the slices each tile reads and writes. `LinAttnState`, the
decode cache, holds that block, so a cache is exactly the context the core
carries between tiles; its `step` folds one token in with the core's own
`_fold` and then reads it. The views agree to roundoff; optional per-head
decay multiplies the state by gamma each step. Every view uses the Taylor
map's unique-monomial layout, so the state width D is 1 + d' + d'(d'+1)/2.
Every view projects and merges its heads through `T.Heads`, the shell it
shares with the sliding-window layer.
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
    """The `T.Heads` projections plus feature-map choice for one linear-attention layer."""

    kind: fm.FeatureMapKind
    eps: float = 1e-12
    decay: DecayConfig | None = None

    def __post_init__(self):
        super().__post_init__()
        if not (np.isfinite(self.eps) and self.eps > 0):
            raise ParameterError(f"eps must be finite and > 0, got {self.eps}")
        if self.kind.d_prime is not None and self.kind.d_prime != self.d_prime:
            raise ShapeError(f"feature map {self.kind.tag} reads d_prime {self.kind.d_prime}, but q and k are {self.d_prime} wide per head")
        if self.decay is not None and self.decay.gamma.shape != (self.heads,):
            raise ParameterError(f"decay needs one gamma per head, got {self.decay.gamma.shape}")
        w_mix = None if self.decay is None else self.decay.w_mix
        if w_mix is not None and (w_mix.shape != (self.d_model, self.heads) or w_mix.dtype != self.wq.dtype):
            raise ShapeError(f"w_mix must be (d_model, heads) = ({self.d_model}, {self.heads}) in wq's dtype, got {w_mix.shape} {w_mix.dtype.name}")

    @property
    def d_prime(self) -> int:
        return self.wq.shape[1] // self.heads

    @property
    def feature_width(self) -> int:
        return fm.feature_dim(self.kind)


def create(
    d_model: int, heads: int, d_prime: int, kind: fm.FeatureMapKind | None = None, eps: float = 1e-12,
    decay: DecayConfig | None = None, rng: np.random.Generator | None = None, dtype=np.float64,
) -> LinAttnParams:
    """Fresh parameters from `T.Heads.draw`, q and k d_prime wide per head."""
    return LinAttnParams.draw(
        rng or np.random.default_rng(0), d_model, heads * d_prime, dtype,
        heads=heads, kind=kind or fm.taylor_exp2(d_prime), eps=eps, decay=decay,
    )


# -- tiled causal core -----------------------------------------------------------

CORE_TILE = 64
IDENTITY = fm.FeatureMapKind("Identity")


@functools.lru_cache(maxsize=32)
def _tile_decay(gamma: float | tuple[float, ...], c: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Causal mask gamma^(i-j), carry-in gamma^(i+1) and lift gamma^(c-1-j) of a
    c-position tile (the last two as (c, 1) columns), with one leading axis
    per gamma when `gamma` is a tuple. Cached, read-only."""
    g = np.asarray(gamma, dtype=np.float64)[..., None, None]
    i = np.arange(c)
    expo = i[:, None] - i[None, :]
    mask = np.where(expo >= 0, g ** np.maximum(expo, 0), 0.0).astype(dtype)
    carry = (g ** (i[:, None] + 1)).astype(dtype)
    lift = (g ** (c - 1 - i[:, None])).astype(dtype)
    for a in (mask, carry, lift):
        a.flags.writeable = False
    return mask, carry, lift


def _fold(state, decay, keys: np.ndarray, v1: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The [s | z] block S after a tile, decay * S + keys^T [V | 1] (S unscaled
    when `decay` is None), with `keys` the tile's phi(K) lifted by
    gamma^(c-1-j); written into `out` when given."""
    return np.add(state if decay is None else decay * state, np.swapaxes(keys, -1, -2) @ v1, out=out)


def attention_core(
    q: Tensor, k: Tensor, v: Tensor, eps: float, gamma: float | np.ndarray = 1.0, kind: fm.FeatureMapKind = IDENTITY,
    tile: int = CORE_TILE, counter: dict | None = None,
) -> Tensor:
    """y_i = phi(q_i).s_i / max(phi(q_i).z_i, eps) over the second-to-last axis.

    `kind` is phi, applied inside the core (the default Identity takes
    featurized inputs); `gamma` is a scalar or one decay per head (the
    third-to-last axis). A loop over tiles of c = min(tile, N) positions:
    each tile takes its exact quadratic form, `fm.tile_scores` (1 + a + a^2/2
    of the raw q.k for the Taylor map) under the causal mask, plus
    carry * (phi(Q) S) of the state S it carries in, writes its output rows,
    then folds its keys into S, S <- gamma^c S + (lift phi(K))^T [V | 1]; the
    ones column carries z as the last column of S. phi(Q) is formed from the
    second tile on and phi(K) up to the second-to-last, so never at N <= tile.
    An optional `counter` dict adds up the sizes of the q, k, v slices each
    tile reads and the y slice it writes (keys q_read, k_read, v_read,
    y_write). The backward walks the tiles in reverse carrying dS. A call of
    one tile keeps that tile's arrays for the backward; a call of more tiles
    keeps only its inputs and output, and the backward reruns `sweep`, the
    forward's own tile loop, so nothing of size N x F is ever stored.
    """
    n = q.shape[-2]
    if k.shape != q.shape or v.shape[:-1] != q.shape[:-1]:
        raise ShapeError(f"attention_core: shapes {q.shape}, {k.shape}, {v.shape} disagree")
    integer(tile, "attention_core: tile")
    g = np.asarray(gamma, dtype=np.float64)
    if g.size > 1 and (q.ndim < 3 or q.shape[-3] != g.size):
        raise ShapeError(f"attention_core: {g.size} gammas for inputs of shape {q.shape}")
    g = g.reshape(-1 if g.size > 1 else ())
    qd, kd, vd = q.data, k.data, v.data
    for x in (qd, kd):
        fm.check(kind, x)
    d, dtype = v.shape[-1], q.dtype
    c = min(tile, max(n, 1))
    spans = [(s, min(s + c, n)) for s in range(0, n, c)]
    mask, carry, lift = _tile_decay(tuple(g.tolist()) if g.ndim else float(g), c, dtype)
    fold = (g ** c).astype(dtype)[..., None, None]
    ones = np.ones(v.shape[:-2] + (c, 1), dtype)

    def sweep():
        """Per tile in order: its span, the S it carries in, its scores, [num | den] and [V | 1] rows."""
        state = 0.0
        for s, e in spans:
            qt, kt = qd[..., s:e, :], kd[..., s:e, :]
            vt = np.concatenate([vd[..., s:e, :], ones[..., :e - s, :]], axis=-1)
            sc = fm.tile_scores(kind, qt, kt, mask[..., :e - s, :e - s])
            ndt = sc @ vt
            if s:
                ndt += carry[..., :e - s, :] * (fm.phi(kind, qt) @ state)
            yield (s, e), state, sc, ndt, vt
            if e < n:  # the last tile's fold would go unused
                state = _fold(state, fold, fm.phi(kind, kt) * lift, vt)

    out, kept = np.empty(v.shape, dtype), []
    for arrays in sweep():
        (s, e), _, _, ndt, vt = arrays
        yt = np.divide(ndt[..., :d], np.maximum(ndt[..., d:], eps), out=out[..., s:e, :])
        if counter is not None:
            for key, a in (("q_read", qd[..., s:e, :]), ("k_read", kd[..., s:e, :]), ("v_read", vt[..., :d]), ("y_write", yt)):
                counter[key] = counter.get(key, 0) + a.size
        if len(spans) == 1:
            kept.append(arrays)

    def backward(grad):
        dq, dk, dv = np.empty_like(qd), np.empty_like(kd), np.empty_like(vd)
        dstate = 0.0  # gradient of the state the later tiles read
        for (s, e), state, sc, ndt, vt in reversed(kept or list(sweep())):
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
    """All positions at once; differentiable. Accepts (..., N, d_model)."""
    q, k, v = params.project(u)
    y = attention_core(q, k, v, params.eps, 1.0 if params.decay is None else params.decay.gamma, params.kind)
    if params.decay is not None and params.decay.w_mix is not None:
        # weigh each head's output by softmax(u @ w_mix) before the projection
        weights = T.softmax_last(T.matmul(u, params.decay.w_mix))
        y = T.mul_rowscale(y, T.transpose(weights, (*range(u.ndim - 2), u.ndim - 1, u.ndim - 2)))
    return params.merge(y)


class LinAttnState:
    """Running state per head, s = [s | z] of shape (heads, D, head_dim + 1)
    in the parameters' dtype: the KV state with the normalizer z as its last
    column, the block `attention_core` carries between tiles.

    It is also the layer's constant-memory decode cache: `step` runs one
    layer-input row through the whole layer, folding it into s in place with
    `_fold` and then reading s, the core's tile at N = 1 in the other order.
    """

    def __init__(self, params: LinAttnParams):
        self.params = params
        self.s = np.zeros((params.heads, params.feature_width, params.head_dim + 1), params.wq.dtype)
        self.decay = None if params.decay is None else params.decay.gamma.astype(self.s.dtype)[:, None, None]

    def scalar_count(self) -> int:
        return self.s.size

    def step(self, x: np.ndarray) -> np.ndarray:
        """Project one (d_model,) row, advance the state, and return the output row."""
        p = self.params
        T.check_row(x, p.wq, "LinAttnState.step")
        q, k, v = p.project_rows(x)
        v1 = np.concatenate([v, np.ones((p.heads, 1, 1), v.dtype)], axis=-1)
        _fold(self.s, self.decay, fm.apply_numpy(p.kind, k), v1, out=self.s)
        nd = fm.apply_numpy(p.kind, q) @ self.s
        return _combine_heads_numpy(p, x[None], nd[..., :-1] / np.maximum(nd[..., -1:], p.eps))[0]


def _rows(params: LinAttnParams, u: Tensor | np.ndarray, view: str) -> np.ndarray:
    """The (N, d_model) array of `u`; the graph-free views take no other shape."""
    un = u.data if isinstance(u, Tensor) else np.asarray(u)
    if un.ndim != 2 or un.shape[1] != params.d_model:
        raise ShapeError(f"{view}: expected an (N, {params.d_model}) input, got {un.shape}")
    if un.dtype != params.wq.dtype:
        raise ShapeError(f"{view}: mixed dtypes {un.dtype.name} and {params.wq.dtype.name}")
    return un


def recurrent_forward(params: LinAttnParams, u: Tensor | np.ndarray) -> Tensor:
    """Token-by-token rollout of the full layer through the decode step.

    Graph-free like chunked_forward; equality with the parallel view is the
    point, not trainability.
    """
    un = _rows(params, u, "recurrent_forward")
    state = LinAttnState(params)
    rows = [state.step(row) for row in un]
    return Tensor(np.stack(rows) if rows else np.empty((0, params.d_model), un.dtype))


def _combine_heads_numpy(params: LinAttnParams, un: np.ndarray, per_head_y: np.ndarray) -> np.ndarray:
    """per_head_y is (heads, N, head_dim); parallel_forward's head mixing, then `merge_rows`, without the graph."""
    if params.decay is not None and params.decay.w_mix is not None:
        weights = T.softmax_np(un @ params.decay.w_mix.data)
        per_head_y = per_head_y * np.swapaxes(weights, 0, 1)[:, :, None]
    return params.merge_rows(per_head_y)


def chunked_forward(
    params: LinAttnParams, u: Tensor | np.ndarray, chunk: int = 16, counter: dict | None = None
) -> Tensor:
    """`attention_core` at tiles of `chunk` rows, run without a graph: the
    returned tensor carries no gradients, train through parallel_forward.
    The optional `counter` dict takes the core's transfer totals, the sizes
    of the q, k, v slices each tile reads and of the y slice it writes.
    """
    un = _rows(params, u, "chunked_forward")
    q, k, v = (Tensor(a) for a in params.project_rows(un))
    gamma = 1.0 if params.decay is None else params.decay.gamma
    y = attention_core(q, k, v, params.eps, gamma, params.kind, chunk, counter)
    return Tensor(_combine_heads_numpy(params, un, y.data))
