"""Causal linear attention in three equivalent views.

Per head, with feature map phi and value sequence v:

    y_i = phi(q_i) . s_i / max(phi(q_i) . z_i, eps)
    s_i = sum_{j<=i} phi(k_j)^T v_j        (D x d KV state)
    z_i = sum_{j<=i} phi(k_j)              (D   normalizer state)

`parallel_forward` materializes the running sums with sequential cumulative
sums, `recurrent_step` carries (s, z) one token at a time, and
`chunked_forward` runs the tiled schedule that featurizes each tile in fast
memory. The three agree to roundoff; optional per-head decay multiplies both
states by gamma each step. Every view uses the Taylor map's unique-monomial
layout, so the state width D is 1 + d' + d'(d'+1)/2, and the recurrent state
doubles as the decode cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import feature_maps as fm
from . import tensor as T
from .errors import ParameterError, ShapeError
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
class LinAttnParams:
    """Projections plus feature-map choice for one linear-attention layer."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    kind: fm.FeatureMapKind
    heads: int
    eps: float = 1e-12
    decay: DecayConfig | None = None

    def __post_init__(self):
        if self.heads < 1:
            raise ParameterError(f"heads must be >= 1, got {self.heads}")
        if self.eps <= 0:
            raise ParameterError(f"eps must be > 0, got {self.eps}")
        for name, t, width in (("wq", self.wq, None), ("wk", self.wk, None), ("wv", self.wv, None)):
            if t.ndim != 2:
                raise ShapeError(f"{name} must be 2-D, got {t.shape}")
        if self.wq.shape != self.wk.shape:
            raise ShapeError(f"wq {self.wq.shape} and wk {self.wk.shape} must match")
        if self.wq.shape[1] % self.heads or self.wv.shape[1] % self.heads:
            raise ShapeError("projection widths must divide evenly into heads")
        if self.wo.shape[0] != self.wv.shape[1]:
            raise ShapeError(f"wo {self.wo.shape} does not accept {self.heads} heads of width {self.head_dim}")
        if self.decay is not None and self.decay.gamma.shape != (self.heads,):
            raise ParameterError(f"decay needs one gamma per head, got {self.decay.gamma.shape}")

    @property
    def d_model(self) -> int:
        return self.wq.shape[0]

    @property
    def d_prime(self) -> int:
        return self.wq.shape[1] // self.heads

    @property
    def head_dim(self) -> int:
        return self.wv.shape[1] // self.heads

    @property
    def feature_width(self) -> int:
        return fm.feature_dim(self.kind)


def create(
    d_model: int,
    heads: int,
    d_prime: int,
    head_dim: int | None = None,
    kind: fm.FeatureMapKind | None = None,
    eps: float = 1e-12,
    decay: DecayConfig | None = None,
    rng: np.random.Generator | None = None,
    dtype=np.float64,
) -> LinAttnParams:
    """Fresh parameters with scaled-normal init (std 0.02)."""
    rng = rng or np.random.default_rng(0)
    if head_dim is None:
        if d_model % heads != 0:
            raise ShapeError(
                f"d_model={d_model} is not divisible by heads={heads}; pass head_dim explicitly"
            )
        head_dim = d_model // heads
    kind = kind or fm.taylor_exp2(d_prime)
    return LinAttnParams(
        wq=T.init_normal(rng, d_model, heads * d_prime, dtype),
        wk=T.init_normal(rng, d_model, heads * d_prime, dtype),
        wv=T.init_normal(rng, d_model, heads * head_dim, dtype),
        wo=T.init_normal(rng, heads * head_dim, d_model, dtype),
        kind=kind,
        heads=heads,
        eps=eps,
        decay=decay,
    )


# -- fused causal core ---------------------------------------------------------


def _decay_mask(n: int, gamma: float, dtype) -> np.ndarray:
    if gamma == 1.0:
        return np.tril(np.ones((n, n), dtype=dtype))
    i = np.arange(n)
    expo = i[:, None] - i[None, :]
    return np.where(expo >= 0, gamma ** np.maximum(expo, 0), 0.0).astype(dtype)


def attention_core(phi_q: Tensor, phi_k: Tensor, v: Tensor, eps: float, gamma: float = 1.0) -> Tensor:
    """y_i = phi(q_i).s_i / max(phi(q_i).z_i, eps) over the second-to-last axis.

    Forward accumulates states with sequential cumulative sums (one
    multiply-add per position); backward uses the closed-form quadratic view.
    """
    n, width = phi_q.shape[-2], phi_q.shape[-1]
    if phi_k.shape != phi_q.shape or v.shape[:-1] != phi_q.shape[:-1]:
        raise ShapeError(f"attention_core: shapes {phi_q.shape}, {phi_k.shape}, {v.shape} disagree")
    if gamma == 1.0:
        kv = phi_k.data[..., :, :, None] * v.data[..., :, None, :]
        np.cumsum(kv, axis=-3, out=kv)
        num = np.einsum("...nf,...nfd->...nd", phi_q.data, kv)
        den = np.einsum("...nf,...nf->...n", phi_q.data, np.cumsum(phi_k.data, axis=-2))
    else:
        s = np.zeros(phi_q.shape[:-2] + (width, v.shape[-1]), dtype=phi_q.dtype)
        z = np.zeros(phi_q.shape[:-2] + (width,), dtype=phi_q.dtype)
        num = np.empty_like(v.data)
        den = np.empty(phi_q.shape[:-1], dtype=phi_q.dtype)
        for i in range(n):
            s = gamma * s + phi_k.data[..., i, :, None] * v.data[..., i, None, :]
            z = gamma * z + phi_k.data[..., i, :]
            num[..., i, :] = np.einsum("...f,...fd->...d", phi_q.data[..., i, :], s)
            den[..., i] = np.einsum("...f,...f->...", phi_q.data[..., i, :], z)
    floored = np.maximum(den, eps)
    out = num / floored[..., None]

    def backward(g):
        dnum = g / floored[..., None]
        dden = -(g * num).sum(axis=-1) / (floored * floored)
        dden = np.where(den > eps, dden, 0.0)
        pair = dnum @ np.swapaxes(v.data, -1, -2) + dden[..., :, None]
        pair = pair * _decay_mask(n, gamma, phi_q.dtype)
        if phi_q.requires_grad:
            T.accumulate(phi_q, pair @ phi_k.data)
        if phi_k.requires_grad:
            T.accumulate(phi_k, np.swapaxes(pair, -1, -2) @ phi_q.data)
        if v.requires_grad:
            scores = (phi_q.data @ np.swapaxes(phi_k.data, -1, -2)) * _decay_mask(n, gamma, phi_q.dtype)
            T.accumulate(v, np.swapaxes(scores, -1, -2) @ dnum)

    return T.from_op(out, (phi_q, phi_k, v), backward)


# -- the three views ------------------------------------------------------------


def _split_heads(x: Tensor, heads: int) -> Tensor:
    b, n, hw = x.shape
    x = T.reshape(x, (b, n, heads, hw // heads))
    return T.transpose(x, (0, 2, 1, 3))


def _merge_heads(y: Tensor) -> Tensor:
    b, h, n, d = y.shape
    return T.reshape(T.transpose(y, (0, 2, 1, 3)), (b, n, h * d))


def parallel_forward(params: LinAttnParams, u: Tensor) -> Tensor:
    """All positions at once; differentiable. Accepts (N, d_model) or batched."""
    squeeze = u.ndim == 2
    if squeeze:
        u = T.reshape(u, (1,) + u.shape)
    if u.shape[-1] != params.d_model:
        raise ShapeError(f"input width {u.shape[-1]} does not match d_model {params.d_model}")
    q = _split_heads(T.matmul(u, params.wq), params.heads)
    k = _split_heads(T.matmul(u, params.wk), params.heads)
    v = _split_heads(T.matmul(u, params.wv), params.heads)
    phi_q = fm.apply(params.kind, q)
    phi_k = fm.apply(params.kind, k)
    if params.decay is None:
        y = attention_core(phi_q, phi_k, v, params.eps)
        out = T.matmul(_merge_heads(y), params.wo)
    else:
        per_head = [
            attention_core(
                T.take_axis(phi_q, 1, h),
                T.take_axis(phi_k, 1, h),
                T.take_axis(v, 1, h),
                params.eps,
                float(params.decay.gamma[h]),
            )
            for h in range(params.heads)
        ]
        out = mix_heads(params.decay, u, per_head, params.wo)
    return T.take_axis(out, 0, 0) if squeeze else out


def mix_heads(decay: DecayConfig, u: Tensor, per_head_y: list[Tensor], wo: Tensor) -> Tensor:
    """Weigh each head's output by softmax(u @ w_mix) before the projection.

    Without mixing weights the heads are concatenated unscaled, which is
    exactly the no-decay combination.
    """
    if decay.w_mix is None:
        return T.matmul(T.concat_last(per_head_y), wo)
    weights = T.softmax_last(T.matmul(u, decay.w_mix))
    scaled = [T.mul_rowscale(y, T.take_axis(weights, -1, h)) for h, y in enumerate(per_head_y)]
    return T.matmul(T.concat_last(scaled), wo)


@dataclass
class LinAttnState:
    """Running (s, z) pair per head; s is (heads, D, head_dim), z is (heads, D).

    It is also the layer's constant-memory decode cache: `step` runs one
    layer-input row through the whole layer.
    """

    params: LinAttnParams
    s: np.ndarray
    z: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, params: LinAttnParams, dtype=np.float64) -> "LinAttnState":
        width = params.feature_width
        return cls(
            params,
            s=np.zeros((params.heads, width, params.head_dim), dtype=dtype),
            z=np.zeros((params.heads, width), dtype=dtype),
        )

    def scalar_count(self) -> int:
        return self.s.size + self.z.size

    def step(self, x: np.ndarray) -> np.ndarray:
        """Project one (d_model,) row, advance the state, and return the output row."""
        p = self.params
        q = (x @ p.wq.data).reshape(p.heads, p.d_prime)
        k = (x @ p.wk.data).reshape(p.heads, p.d_prime)
        v = (x @ p.wv.data).reshape(p.heads, p.head_dim)
        _, y = recurrent_step(p, self, q, k, v)
        return _combine_heads_numpy(p, x[None], y[:, None])[0]


def recurrent_step(
    params: LinAttnParams, state: LinAttnState, q_t: np.ndarray, k_t: np.ndarray, v_t: np.ndarray
) -> tuple[LinAttnState, np.ndarray]:
    """Advance one token. Inputs are per-head rows: q_t, k_t (heads, d'),
    v_t (heads, head_dim). Returns the state (updated in place; a state is
    single-owner) and y_t (heads, head_dim)."""
    if q_t.shape != (params.heads, params.d_prime) or v_t.shape != (params.heads, params.head_dim):
        raise ShapeError(
            f"recurrent_step: expected q {(params.heads, params.d_prime)} and v "
            f"{(params.heads, params.head_dim)}, got {q_t.shape} and {v_t.shape}"
        )
    phi_q = fm.apply_numpy(params.kind, q_t)
    phi_k = fm.apply_numpy(params.kind, k_t)
    if params.decay is not None:
        gamma = params.decay.gamma.astype(state.s.dtype)
        state.s = gamma[:, None, None] * state.s + phi_k[:, :, None] * v_t[:, None, :]
        state.z = gamma[:, None] * state.z + phi_k
    else:
        state.s = state.s + phi_k[:, :, None] * v_t[:, None, :]
        state.z = state.z + phi_k
    state.t += 1
    num = np.einsum("hf,hfd->hd", phi_q, state.s)
    den = np.maximum(np.einsum("hf,hf->h", phi_q, state.z), params.eps)
    return state, num / den[:, None]


def recurrent_forward(params: LinAttnParams, u: Tensor | np.ndarray) -> Tensor:
    """Token-by-token rollout of the full layer through the decode step.

    Graph-free like chunked_forward; equality with the parallel view is the
    point, not trainability.
    """
    un = u.data if isinstance(u, Tensor) else np.asarray(u)
    state = LinAttnState.zeros(params, dtype=un.dtype)
    return Tensor(np.stack([state.step(row) for row in un]))


def _combine_heads_numpy(params: LinAttnParams, un: np.ndarray, per_head_y: np.ndarray) -> np.ndarray:
    """per_head_y is (heads, N, head_dim); mirrors mix_heads without the graph."""
    if params.decay is not None and params.decay.w_mix is not None:
        logits = un @ params.decay.w_mix.data
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        weights = e / e.sum(axis=-1, keepdims=True)
        per_head_y = per_head_y * np.swapaxes(weights, 0, 1)[:, :, None]
    stacked = np.swapaxes(per_head_y, 0, 1).reshape(un.shape[0], -1)
    return stacked @ params.wo.data


def chunked_forward(
    params: LinAttnParams, u: Tensor | np.ndarray, chunk: int = 16, counter: dict | None = None
) -> Tensor:
    """Tiled schedule: exact intra-tile causal product plus carried KV state.

    Raw q, k tiles are read at width d' and featurized in fast memory; the
    optional `counter` dict accumulates element-transfer totals under the
    keys q_read / k_read / v_read / y_write. Graph-free reference path: the
    returned tensor carries no gradients, train through parallel_forward.
    """
    if not isinstance(chunk, int) or chunk < 1:
        raise ParameterError(f"chunk must be a positive integer, got {chunk}")
    un = u.data if isinstance(u, Tensor) else np.asarray(u)
    n = un.shape[0]
    chunk = min(chunk, n)
    dp, dh = params.d_prime, params.head_dim
    q = (un @ params.wq.data).reshape(n, params.heads, dp)
    k = (un @ params.wk.data).reshape(n, params.heads, dp)
    v = (un @ params.wv.data).reshape(n, params.heads, dh)
    taylor = params.kind.tag == "TaylorExp2"
    width = params.feature_width
    ys = np.empty((params.heads, n, dh), dtype=un.dtype)
    for h in range(params.heads):
        gamma = float(params.decay.gamma[h]) if params.decay is not None else 1.0
        s = np.zeros((width, dh), dtype=un.dtype)
        z = np.zeros(width, dtype=un.dtype)
        for base in range(0, n, chunk):
            qc = q[base:base + chunk, h]
            kc = k[base:base + chunk, h]
            vc = v[base:base + chunk, h]
            c = qc.shape[0]
            if counter is not None:
                counter["q_read"] = counter.get("q_read", 0) + c * dp
                counter["k_read"] = counter.get("k_read", 0) + c * dp
                counter["v_read"] = counter.get("v_read", 0) + c * dh
            phi_qc = fm.apply_numpy(params.kind, qc)
            phi_kc = fm.apply_numpy(params.kind, kc)
            if taylor:
                sc = (qc @ kc.T) / math.sqrt(dp)
                scores = 1.0 + sc + 0.5 * sc * sc
            else:
                scores = phi_qc @ phi_kc.T
            scores = scores * _decay_mask(c, gamma, un.dtype)
            num = scores @ vc
            den = scores.sum(axis=1)
            if gamma == 1.0:
                num += phi_qc @ s
                den += phi_qc @ z
            else:
                carry = gamma ** np.arange(1, c + 1)
                num += carry[:, None] * (phi_qc @ s)
                den += carry * (phi_qc @ z)
            ys[h, base:base + c] = num / np.maximum(den, params.eps)[:, None]
            if counter is not None:
                counter["y_write"] = counter.get("y_write", 0) + c * dh
            if gamma == 1.0:
                s = s + phi_kc.T @ vc
                z = z + phi_kc.sum(axis=0)
            else:
                lift = gamma ** np.arange(c - 1, -1, -1)
                s = gamma ** c * s + (phi_kc * lift[:, None]).T @ vc
                z = gamma ** c * z + (phi_kc * lift[:, None]).sum(axis=0)
    return Tensor(_combine_heads_numpy(params, un, ys))
