"""Dense tensors with a small reverse-mode autodiff op set.

Arrays are row-major numpy buffers (float64 by default, float32 on request).
Every op returns a fresh tensor; tensors are never mutated once created, so
the recorded graph stays valid. `backward` replays the graph in reverse
execution order with plain sequential accumulation, which makes gradients
bit-reproducible across runs. `Heads` is the one shell of the two attention
layers: their four projections, checks and init, and the head split and
merge, with and without the graph.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterError, ShapeError, integer

_FLOATS = (np.dtype(np.float64), np.dtype(np.float32))
ROTARY_BASE = 10000.0
_node_counter = itertools.count()


class Tensor:
    """Dense array plus an optional gradient slot of the same shape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_seq")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is None:
            arr = np.asarray(data)
            if arr.dtype not in _FLOATS:
                arr = arr.astype(np.float64)
        else:
            arr = np.asarray(data, dtype=dtype)
            if arr.dtype not in _FLOATS:
                raise ParameterError(f"unsupported dtype {arr.dtype}; use float64 or float32")
        self.data = np.array(arr, copy=True)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._seq = next(_node_counter)

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, grad={'yes' if self.grad is not None else 'no'})"

    # -- autodiff ------------------------------------------------------------

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable leaf."""
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar output, got shape {self.shape}")
        if not self.requires_grad:
            return
        self.grad = np.ones_like(self.data)
        for node in reversed(Graph.from_output(self).nodes):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


class Graph:
    """Topologically ordered record of the ops reaching one output.

    Creation order is a valid topological order because tensors are
    immutable: a node's parents always carry smaller sequence numbers.
    """

    def __init__(self, nodes: list[Tensor]):
        self.nodes = nodes

    @classmethod
    def from_output(cls, out: Tensor) -> "Graph":
        seen: set[int] = set()
        nodes: list[Tensor] = []
        stack = [out]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
        nodes.sort(key=lambda t: t._seq)
        return cls(nodes)


def from_op(data: np.ndarray, parents: Sequence[Tensor], backward: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap an op result, recording the graph edge only when gradients flow.

    `backward` receives the upstream gradient and must call `accumulate`
    on each parent that requires grad. Ops whose parents are all constant
    produce a plain tensor with no graph attached.
    """
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._seq = next(_node_counter)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add an upstream contribution into a parent's gradient slot."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype, copy=True)
    else:
        t.grad = t.grad + g


def _check_same_dtype(a: Tensor | np.ndarray, b: Tensor, op: str) -> None:
    if a.dtype != b.dtype:
        raise ShapeError(f"{op}: mixed dtypes {a.dtype.name} and {b.dtype.name}")


def check_row(x: np.ndarray, w: Tensor, where: str) -> None:
    """ShapeError unless a decode step's input x is one row in the dtype of the input projection w."""
    if not isinstance(x, np.ndarray) or x.shape != (w.shape[0],):
        raise ShapeError(f"{where} expects a ({w.shape[0]},) row, got {type(x).__name__} of shape {np.shape(x)}")
    _check_same_dtype(x, w, where)


# -- elementwise and affine ops ----------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a trailing-axis bias vector for `b`."""
    _check_same_dtype(a, b, "add")
    if a.shape == b.shape:
        def backward(g):
            accumulate(a, g)
            accumulate(b, g)
    elif b.ndim == 1 and a.ndim >= 1 and a.shape[-1] == b.shape[0]:
        def backward(g):
            accumulate(a, g)
            accumulate(b, g.reshape(-1, b.shape[0]).sum(axis=0))
    else:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    return from_op(a.data + b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b, "mul")
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    def backward(g):
        accumulate(a, g * b.data)
        accumulate(b, g * a.data)
    return from_op(a.data * b.data, (a, b), backward)


def sigmoid_np(x: np.ndarray) -> np.ndarray:
    """Sigmoid on a plain array as 0.5 + 0.5 tanh(x / 2), in place on one copy
    (shared with decode paths). tanh saturates to +-1, so no input overflows,
    and the result keeps the input's float dtype."""
    out = np.array(x, dtype=np.result_type(x, 0.5))
    out *= 0.5
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def silu_np(x: np.ndarray) -> np.ndarray:
    """x * sigmoid(x) on a plain array (the decode paths' SiLU)."""
    return x * sigmoid_np(x)


def _complex_pairs(x: np.ndarray, where: str) -> np.ndarray:
    """A float array's feature pairs read as the complex numbers
    x[..., 2m] + i x[..., 2m + 1] (a view of x, or of a contiguous copy)."""
    if x.ndim == 0 or x.shape[-1] % 2:
        raise ShapeError(f"{where}: feature width must be even, got shape {x.shape}")
    x = np.ascontiguousarray(x, dtype=np.result_type(x, np.float32))
    return x.view(np.result_type(x, np.complex64))


@functools.lru_cache(maxsize=32)
def _freqs(d: int) -> np.ndarray:
    """ROTARY_BASE^(-2m/d) for the pairs m < d/2. Cached, read-only."""
    freqs = ROTARY_BASE ** (-2.0 * np.arange(d // 2) / d)
    freqs.flags.writeable = False
    return freqs


def _turns(positions, d: int, dtype: np.dtype) -> np.ndarray:
    """exp(i p ROTARY_BASE^(-2m/d)) per position p and pair m < d/2, from
    float64 cos and sin, as complex `dtype`."""
    theta = np.asarray(positions, dtype=np.float64)[..., None] * _freqs(d)
    turns = np.empty(theta.shape, np.complex128)
    np.cos(theta, out=turns.real)
    np.sin(theta, out=turns.imag)
    return turns.astype(dtype, copy=False)


@functools.lru_cache(maxsize=32)
def _turn_table(n: int, d: int, dtype: np.dtype) -> np.ndarray:
    """`_turns` of positions 0..n-1, shape (n, d/2). Cached, read-only."""
    table = _turns(np.arange(n), d, dtype)
    table.flags.writeable = False
    return table


def rotary_np(x: np.ndarray, positions) -> np.ndarray:
    """Rotary position encoding on a plain array: pair m of a width-d row at
    position p, read as x[2m] + i x[2m + 1], times exp(i p ROTARY_BASE^(-2m/d)).
    `positions` broadcasts against the rows x.shape[:-1]; only their turns
    are computed, and row p is bit-identical to row p of `rotary`."""
    pairs = _complex_pairs(x, "rotary_np")
    out = pairs * _turns(positions, x.shape[-1], pairs.dtype)
    return out.view(out.real.dtype)


def softmax_np(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Max-subtracted softmax over the trailing axis of a plain array, written
    into `out` when given (`out=x` works in place)."""
    out = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def causal_conv_np(filt: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Depthwise causal filter over the rows of `x` (second-to-last axis):
    out[i] = sum_t filt[t] * x[i - t], rows before row 0 zero."""
    c = x.shape[-2]
    out = filt[0] * x
    for t in range(1, min(filt.shape[0], c)):
        out[..., t:, :] += filt[t] * x[..., :c - t, :]
    return out


def causal_conv_grad_np(filt: np.ndarray, x: np.ndarray, g: np.ndarray, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Backward of `causal_conv_np(filt, x)[:, h:]` for the output gradient
    g, both (B, rows, C): returns (dx, dfilt). Each tap's filt[t] * g is
    written into one scratch array shared by all taps."""
    n = x.shape[1]
    dx, dfilt, scratch = np.zeros_like(x), np.zeros_like(filt), np.empty_like(g)
    for t in range(min(filt.shape[0], n)):
        lo = max(t - h, 0)  # first output row whose lag-t input exists
        src = slice(h + lo - t, n - t)
        dfilt[t] = np.einsum("bic,bic->c", g[:, lo:], x[:, src])
        dx[:, src] += np.multiply(filt[t], g[:, lo:], out=scratch[:, lo:])
    return dx, dfilt


def init_normal(rng: np.random.Generator, rows: int, cols: int, dtype) -> Tensor:
    """Trainable (rows, cols) weight drawn from N(0, 0.02^2): the one parameter init."""
    for name, n in (("rows", rows), ("cols", cols)):
        integer(n, f"init_normal: weight shape ({rows!r}, {cols!r}) must be two integers; {name}", 0)
    return Tensor(rng.normal(0.0, 0.02, (rows, cols)).astype(dtype), requires_grad=True)


def silu(a: Tensor) -> Tensor:
    s = sigmoid_np(a.data)
    def backward(g):
        accumulate(a, g * s * (1.0 + a.data * (1.0 - s)))
    return from_op(a.data * s, (a,), backward)


# -- matmul --------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. Supports 2-D x 2-D, batched x 2-D weight, and
    batched x batched with identical leading dims."""
    _check_same_dtype(a, b, "matmul")
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims disagree for {a.shape} and {b.shape}")
    if b.ndim == 2:
        k, m = b.shape
        def backward(g):
            accumulate(a, g @ b.data.T)
            accumulate(b, a.data.reshape(-1, k).T @ g.reshape(-1, m))
        return from_op(a.data @ b.data, (a, b), backward)
    if a.shape[:-2] == b.shape[:-2]:
        def backward(g):
            accumulate(a, g @ np.swapaxes(b.data, -1, -2))
            accumulate(b, np.swapaxes(a.data, -1, -2) @ g)
        return from_op(a.data @ b.data, (a, b), backward)
    raise ShapeError(f"matmul: unsupported batching for {a.shape} and {b.shape}")


# -- shape plumbing -------------------------------------------------------------


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    def backward(g):
        accumulate(a, g.reshape(a.shape))
    return from_op(a.data.reshape(shape), (a,), backward)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    def backward(g):
        accumulate(a, g.transpose(inverse))
    return from_op(np.ascontiguousarray(a.data.transpose(axes)), (a,), backward)


def split_heads(x: Tensor, heads: int) -> Tensor:
    """(..., N, heads * w) -> (..., heads, N, w), the attention layers' head layout."""
    *lead, n, width = x.shape
    k = len(lead)
    return transpose(reshape(x, (*lead, n, heads, width // heads)), (*range(k), k + 1, k, k + 2))


def merge_heads(y: Tensor) -> Tensor:
    """(..., heads, N, w) -> (..., N, heads * w), the inverse of `split_heads`."""
    *lead, heads, n, width = y.shape
    k = len(lead)
    return reshape(transpose(y, (*range(k), k + 1, k, k + 2)), (*lead, n, heads * width))


@dataclass
class Heads:
    """The shell of an attention layer: wq, wk, wv project d_model-wide rows
    to per-head queries, keys and values in the `split_heads` layout, and wo
    maps the merged heads back to d_model. The L and S layers extend it with
    the settings of their cores."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    heads: int

    def __post_init__(self):
        integer(self.heads, "heads")
        for name, w in (("wq", self.wq), ("wk", self.wk), ("wv", self.wv), ("wo", self.wo)):
            if w.ndim != 2 or w.dtype != self.wq.dtype:
                raise ShapeError(f"{name} must be 2-D in wq's dtype {self.wq.dtype.name}, got {w.shape} {w.dtype.name}")
        if self.wk.shape != self.wq.shape or self.wv.shape[0] != self.d_model:
            raise ShapeError(f"wq {self.wq.shape} and wk {self.wk.shape} must match, and wv {self.wv.shape} read d_model rows")
        if self.wq.shape[1] % self.heads or self.wv.shape[1] % self.heads:
            raise ShapeError("projection widths must divide evenly into heads")
        if self.wo.shape != (self.wv.shape[1], self.d_model):
            raise ShapeError(f"wo {self.wo.shape} does not map {self.heads} heads of width {self.head_dim} to d_model")

    @classmethod
    def draw(cls, rng: np.random.Generator, d_model: int, qk_width: int, dtype, **fields):
        """A layer of fresh `init_normal` projections, drawn wq, wk, wv, wo:
        q and k `qk_width` wide, v and the merged heads d_model wide."""
        shapes = ((d_model, qk_width), (d_model, qk_width), (d_model, d_model), (d_model, d_model))
        return cls(*(init_normal(rng, rows, cols, dtype) for rows, cols in shapes), **fields)

    @property
    def d_model(self) -> int:
        return self.wq.shape[0]

    @property
    def head_dim(self) -> int:
        return self.wv.shape[1] // self.heads

    def project(self, u: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """(..., N, d_model) rows to (..., heads, N, width) queries, keys and values."""
        if u.shape[-1] != self.d_model:
            raise ShapeError(f"input width {u.shape[-1]} does not match d_model {self.d_model}")
        return tuple(split_heads(matmul(u, w), self.heads) for w in (self.wq, self.wk, self.wv))

    def merge(self, y: Tensor) -> Tensor:
        """(..., heads, N, head_dim) outputs to (..., N, d_model) rows through wo."""
        return matmul(merge_heads(y), self.wo)

    def project_rows(self, un: np.ndarray) -> list[np.ndarray]:
        """`project` without the graph or its check: (N, d_model) rows, or one
        (d_model,) row as N = 1, to (heads, N, width) arrays."""
        h = self.heads
        if un.ndim == 1:  # a decode step's row: one reshape, as decode is bound by per-call overhead
            return [(un @ w.data).reshape(h, 1, -1) for w in (self.wq, self.wk, self.wv)]
        return [np.swapaxes((un @ w.data).reshape(len(un), h, w.shape[1] // h), 0, 1) for w in (self.wq, self.wk, self.wv)]

    def merge_rows(self, y: np.ndarray) -> np.ndarray:
        """`merge` without the graph: (heads, N, head_dim) to (N, d_model)."""
        n = y.shape[1]  # at N = 1 (decode) one reshape merges the heads, no transpose needed
        return (y.reshape(1, -1) if n == 1 else np.swapaxes(y, 0, 1).reshape(n, self.wo.shape[0])) @ self.wo.data


def mul_rowscale(x: Tensor, s: Tensor) -> Tensor:
    """Scale trailing-axis rows of `x` by matching scalars `s`."""
    _check_same_dtype(x, s, "mul_rowscale")
    if s.shape != x.shape[:-1]:
        raise ShapeError(f"mul_rowscale: scale {s.shape} does not match rows of {x.shape}")
    def backward(g):
        accumulate(x, g * s.data[..., None])
        accumulate(s, (g * x.data).sum(axis=-1))
    return from_op(x.data * s.data[..., None], (x, s), backward)


def take_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of a 2-D table; gradient scatter-adds by row id."""
    if table.ndim != 2:
        raise ShapeError(f"take_rows: table must be 2-D, got {table.shape}")
    ids = np.asarray(ids)
    d = table.shape[1]
    def backward(g):
        if table.requires_grad:
            acc = np.zeros_like(table.data)
            np.add.at(acc, ids.ravel(), g.reshape(-1, d))
            accumulate(table, acc)
    return from_op(table.data[ids], (table,), backward)


# -- reductions -----------------------------------------------------------------


def sum_all(a: Tensor) -> Tensor:
    def backward(g):
        accumulate(a, np.full_like(a.data, float(g)))
    return from_op(a.data.sum(dtype=a.dtype).reshape(()), (a,), backward)


# -- structured ops ---------------------------------------------------------------


def softmax_last(a: Tensor) -> Tensor:
    """Stable softmax over the trailing axis (`softmax_np`)."""
    out = softmax_np(a.data)
    def backward(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        accumulate(a, (g - inner) * out)
    return from_op(out, (a,), backward)


def causal_conv1d(u: Tensor, f: Tensor) -> Tensor:
    """Depthwise causal convolution along the second-to-last axis.

    out[..., i, c] = sum_{t <= min(i, F-1)} f[t, c] * u[..., i - t, c]
    """
    _check_same_dtype(u, f, "causal_conv1d")
    if f.ndim != 2:
        raise ShapeError(f"causal_conv1d: filter must be 2-D (F, channels), got {f.shape}")
    if u.ndim < 2 or u.shape[-1] != f.shape[-1]:
        raise ShapeError(f"causal_conv1d: channel mismatch for input {u.shape} and filter {f.shape}")
    if f.shape[0] < 1:
        raise ParameterError(f"causal_conv1d: filter length {f.shape[0]} invalid")
    x = u.data.reshape((math.prod(u.shape[:-2]),) + u.shape[-2:])
    def backward(g):
        dx, df = causal_conv_grad_np(f.data, x, g.reshape(x.shape), 0)
        accumulate(u, dx.reshape(u.shape))
        accumulate(f, df)
    return from_op(causal_conv_np(f.data, x).reshape(u.shape), (u, f), backward)


def rms_norm(x: Tensor, w: Tensor, eps: float = 1e-6) -> Tensor:
    """Root-mean-square normalization over the trailing axis, scaled by w."""
    _check_same_dtype(x, w, "rms_norm")
    if w.ndim != 1 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"rms_norm: weight {w.shape} does not match input {x.shape}")
    ms = (x.data * x.data).mean(axis=-1, keepdims=True)
    r = np.sqrt(ms + eps)
    xhat = x.data / r
    def backward(g):
        if x.requires_grad:
            gw = g * w.data
            inner = (gw * xhat).mean(axis=-1, keepdims=True)
            accumulate(x, (gw - xhat * inner) / r)
        if w.requires_grad:
            accumulate(w, (g * xhat).reshape(-1, w.shape[0]).sum(axis=0))
    return from_op(xhat * w.data, (x, w), backward)


def rotary(x: Tensor) -> Tensor:
    """`rotary_np` of (..., N, d) rows at positions 0..N-1, through one cached
    (N, d/2) table of turns; the backward multiplies by their conjugates."""
    pairs = _complex_pairs(x.data, "rotary")
    table = _turn_table(x.shape[-2], x.shape[-1], pairs.dtype)
    def backward(g):
        accumulate(x, (_complex_pairs(g, "rotary") * table.conj()).view(x.dtype))
    return from_op((pairs * table).view(x.dtype), (x,), backward)


def cross_entropy_masked(logits: Tensor, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean cross-entropy over masked positions (stable log-softmax inside)."""
    targets = np.asarray(targets)
    mask = np.asarray(mask, dtype=bool)
    if logits.shape[:-1] != targets.shape or targets.shape != mask.shape:
        raise ShapeError(
            f"cross_entropy_masked: logits {logits.shape}, targets {targets.shape}, mask {mask.shape} disagree"
        )
    n = int(mask.sum())
    if n == 0:
        raise ParameterError("cross_entropy_masked: mask selects no positions")
    c = logits.shape[-1]
    masked_t = targets[mask]
    if masked_t.size and (masked_t.min() < 0 or masked_t.max() >= c):
        raise ShapeError(f"cross_entropy_masked: masked target outside [0, {c})")
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    logp = z - lse
    flat_logp = logp.reshape(-1, logits.shape[-1])
    flat_t = targets.ravel()
    flat_m = mask.ravel()
    picked = flat_logp[np.arange(flat_t.size), np.clip(flat_t, 0, logits.shape[-1] - 1)]
    loss = -(picked * flat_m).sum() / n
    def backward(g):
        if logits.requires_grad:
            p = np.exp(flat_logp)
            rows = np.nonzero(flat_m)[0]
            d = np.zeros_like(p)
            d[rows] = p[rows]
            d[rows, flat_t[rows]] -= 1.0
            accumulate(logits, (float(g) / n) * d.reshape(logits.shape))
    return from_op(np.asarray(loss, dtype=logits.dtype).reshape(()), (logits,), backward)


# -- finite-difference audit -------------------------------------------------------


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between reverse-mode and central-difference gradients.

    `f` must map a tensor to a scalar tensor. The relative error for each
    component uses max(|analytic|, |numeric|, 1e-3) as the denominator so
    near-zero gradients are judged on absolute error.
    """
    probe = Tensor(x.data, requires_grad=True)
    out = f(probe)
    if not isinstance(out, Tensor) or out.data.size != 1:
        raise ShapeError("grad_check: function must return a scalar tensor")
    out.backward()
    analytic = probe.grad if probe.grad is not None else np.zeros_like(probe.data)
    numeric = np.zeros_like(probe.data)
    flat = numeric.reshape(-1)
    base = x.data.astype(np.float64).copy()
    for idx in range(base.size):
        bumped = base.copy()
        bumped.reshape(-1)[idx] += h
        hi = f(Tensor(bumped.reshape(x.shape), dtype=x.dtype)).item()
        bumped.reshape(-1)[idx] -= 2 * h
        lo = f(Tensor(bumped.reshape(x.shape), dtype=x.dtype)).item()
        flat[idx] = (hi - lo) / (2.0 * h)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
    return float((np.abs(analytic - numeric) / denom).max())
