"""Dense tensors with a small reverse-mode autodiff op set.

Arrays are row-major numpy buffers (float64 by default, float32 on request).
Every op returns a fresh tensor; tensors are never mutated once created, so
the recorded graph stays valid. `backward` replays the graph in reverse
execution order with plain sequential accumulation, which makes gradients
bit-reproducible across runs. Inside `no_grad()` no op records a graph on
that thread; `recording` is the one test of whether an op records. An op may
run other ops in its forward on `leaf` inputs and reach their gradients in
its backward through `vjp`. `tensors` walks a layer's weights for its checks.
`Heads` is the one shell of the two attention layers: their four projections
and init, the head split and merge of their rows, and the backward of both.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import threading
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterError, ShapeError, integer

_FLOATS = (np.dtype(np.float64), np.dtype(np.float32))
ROTARY_BASE = 10000.0
_node_counter = itertools.count()


class _GradMode(threading.local):
    enabled = True  # each thread starts recording; cleared inside `no_grad()`, read by `recording`


_mode = _GradMode()


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
        backprop(self, np.ones_like(self.data))


def backprop(out: Tensor, grad: np.ndarray) -> None:
    """Accumulate the gradients of `out`, seeded with `grad` (an ndarray of
    its shape and dtype), into every reachable leaf. Only leaves keep a
    gradient: each inner node's, the seeded output's included, is freed once
    its op has passed it on, after every consumer has run. Inner nodes start
    from no gradient, so a second call adds the same gradients again; a leaf
    output takes `grad` as one more contribution, copied, like any leaf."""
    if not isinstance(grad, np.ndarray) or grad.shape != out.shape:
        raise ShapeError(f"backprop: {type(grad).__name__} seed of shape {np.shape(grad)} for an output of shape {out.shape}")
    _check_same_dtype(grad, out, "backprop")
    if out._backward is None:
        accumulate(out, grad)
        return
    nodes = Graph.from_output(out).nodes
    for node in nodes:
        if node._backward is not None:
            node.grad = None
    out.grad = grad
    for node in reversed(nodes):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None


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


@contextlib.contextmanager
def _grad_mode(enabled: bool):
    saved, _mode.enabled = _mode.enabled, enabled
    try:
        yield
    finally:
        _mode.enabled = saved


def no_grad():
    """Context in which no op records a graph. The mode is per thread: other
    threads keep recording. It nests, and restores the mode it found on
    exit, an exception included."""
    return _grad_mode(False)


def enable_grad():
    """Context in which ops record a graph again, even inside `no_grad()`."""
    return _grad_mode(True)


def recording(*parents: Tensor) -> bool:
    """Whether an op on `parents` records a graph: outside `no_grad()` on
    this thread, and when one of them requires grad."""
    return _mode.enabled and any(p.requires_grad for p in parents)


def from_op(data: np.ndarray, parents: Sequence[Tensor], backward: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap an op result, recording the graph edge only when the op is
    `recording`; else a plain tensor. `backward` receives the upstream
    gradient and must `accumulate` into each parent that requires grad."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._seq = next(_node_counter)
    if recording(*parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def leaf(data: np.ndarray, requires_grad: bool) -> Tensor:
    """A leaf on `data` itself, not a copy: the input of an op that another
    op runs in its forward, whose backward takes the gradient off it (`vjp`)."""
    out = from_op(data, (), None)
    out.requires_grad = requires_grad
    return out


def vjp(out: Tensor, grad: np.ndarray, *leaves: Tensor) -> list[np.ndarray | None]:
    """`backprop(out, grad)`, then the gradients of `leaves`, each taken off
    its leaf (None where none arrived)."""
    backprop(out, grad)
    grads = [t.grad for t in leaves]
    for t in leaves:
        t.grad = None
    return grads


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


def tensors(params, prefix: str = "") -> list[tuple[str, Tensor]]:
    """The one walk over a layer's weights: the Tensor fields of a parameter
    dataclass and of the dataclasses it holds, in field order, each named
    prefix.field (the field's name alone without a prefix)."""
    out = []
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, Tensor):
            out.append((f"{prefix}.{f.name}" if prefix else f.name, value))
        elif is_dataclass(value):
            out += tensors(value, prefix)
    return out


def check_rows(u: Tensor | np.ndarray, params, where: str) -> tuple[Tensor, ...]:
    """The weights of a layer's parameter dataclass `params` (`tensors`),
    after a ShapeError unless its input u is (..., N, d) rows, d the rows of
    its first weight, in the dtype of each."""
    ws = tuple(w for _, w in tensors(params))
    if u.ndim < 2 or u.shape[-1] != ws[0].shape[0]:
        raise ShapeError(f"{where}: input {u.shape} does not match d_model {ws[0].shape[0]}")
    for w in ws:
        _check_same_dtype(u, w, where)
    return ws


def check_row(x: np.ndarray, named: list[tuple[str, Tensor]], lead: tuple[int, ...], where: str) -> None:
    """ShapeError unless a decode step's input x is one row in the dtype of
    each of a layer's `tensors`, `named`, for a cache that holds no batch
    (its leading dims `lead` are ())."""
    d = named[0][1].shape[0]
    if not isinstance(x, np.ndarray) or x.shape != (d,):
        raise ShapeError(f"{where} expects a ({d},) row, got {type(x).__name__} of shape {np.shape(x)}")
    if lead:
        raise ShapeError(f"{where}: one row for a cache that holds a batch of leading dims {lead}")
    for _, w in named:  # compared here, not by `_check_same_dtype`: a decode step is bound by per-call overhead
        if w.data.dtype != x.dtype:
            raise ShapeError(f"{where}: mixed dtypes {x.dtype.name} and {w.dtype.name}")


def check_block(x: np.ndarray, named: list[tuple[str, Tensor]], lead: tuple[int, ...], where: str) -> None:
    """ShapeError unless a decode cache's block x is (..., c, d_model) rows,
    c >= 1, in the dtype of each of a layer's `tensors`, `named`, with the
    leading dims `lead` of a cache that already holds a batch (none when
    `lead` is ())."""
    d = named[0][1].shape[0]
    if not isinstance(x, np.ndarray) or x.ndim < 2 or x.shape[-1] != d or not x.shape[-2]:
        raise ShapeError(f"{where} expects (..., c, {d}) rows with c >= 1, got {type(x).__name__} of shape {np.shape(x)}")
    if lead and x.shape[:-2] != lead:
        raise ShapeError(f"{where}: a block of leading dims {x.shape[:-2]} for a cache of {lead}")
    for _, w in named:
        _check_same_dtype(x, w, where)


# -- elementwise and affine ops ----------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b, "add")
    if a.shape != b.shape:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    def backward(g):
        accumulate(a, g)
        accumulate(b, g)
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


def _turn_rows(start: int, end: int, d: int, dtype: np.dtype) -> np.ndarray:
    """Rows start..end-1 of the cached `_turn_table` of the power of two at
    or above `end` rows, so all sequence lengths share a few tables (a row
    does not depend on the table's length)."""
    return _turn_table(1 << max(end - 1, 0).bit_length(), d, dtype)[start:end]


def rotary_np(x: np.ndarray, positions) -> np.ndarray:
    """Rotary position encoding on a plain array: pair m of a width-d row at
    position p, read as x[2m] + i x[2m + 1], times exp(i p ROTARY_BASE^(-2m/d)).
    `positions` broadcasts against the rows x.shape[:-1]; only their turns
    are computed, and row p is bit-identical to row p of `rotary_from`."""
    pairs = _complex_pairs(x, "rotary_np")
    out = pairs * _turns(positions, x.shape[-1], pairs.dtype)
    return out.view(out.real.dtype)


def rotary_from(x: np.ndarray, start: int) -> np.ndarray:
    """`rotary_np` of (..., c, d) rows at positions start..start+c-1, through
    rows of a cached table of turns (`_turn_rows`)."""
    pairs = _complex_pairs(x, "rotary_from")
    return (pairs * _turn_rows(start, start + x.shape[-2], x.shape[-1], pairs.dtype)).view(x.dtype)


def rotary_from_vjp(g: np.ndarray, start: int) -> np.ndarray:
    """The backward of `rotary_from(x, start)`: the pairs of the gradient g
    times the conjugates of the same turns, the inverse rotation."""
    pairs = _complex_pairs(g, "rotary_from_vjp")
    return (pairs * _turn_rows(start, start + g.shape[-2], g.shape[-1], pairs.dtype).conj()).view(g.dtype)


def rms_np(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """x / r over the trailing axis of a plain array, and r = sqrt(mean(x^2) + eps)
    (keepdims): the model's RMS norm before its weight. The sum over d, then
    / d, equals `mean` bit for bit."""
    r = np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1] + eps)
    return x / r, r


def linear_vjp(x: np.ndarray, w: Tensor, g: np.ndarray) -> np.ndarray:
    """The backward of x @ w.data, (..., k) rows times a (k, m) weight, for
    the output gradient g: adds w's gradient and returns x's."""
    accumulate(w, x.reshape(-1, w.shape[0]).T @ g.reshape(-1, w.shape[1]))
    return g @ w.data.T


def rms_vjp(g: np.ndarray, xhat: np.ndarray, r: np.ndarray, w: Tensor) -> np.ndarray:
    """The backward of xhat * w.data, for (xhat, r) = `rms_np(x, eps)` and
    the output gradient g: adds w's gradient and returns x's."""
    accumulate(w, (g * xhat).reshape(-1, w.shape[0]).sum(axis=0))
    gw = g * w.data
    return (gw - xhat * (gw * xhat).mean(axis=-1, keepdims=True)) / r


def rms_row_np(x: np.ndarray, w: np.ndarray, eps: float) -> np.ndarray:
    """`rms_np(x, eps)[0] * w` of one (d,) row, bit for bit, in four numpy calls
    (decode is bound by per-call overhead): r in scalar math, where a float32
    r is the float64 root rounded once more, i.e. the float32 root."""
    out = x * x
    return np.multiply(np.divide(x, math.sqrt(np.add.reduce(out) / x.shape[-1] + eps), out=out), w, out=out)


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


def causal_conv_row_np(filt: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The last row of `causal_conv_np(filt, x)` for x of at most taps rows,
    bit for bit: the first len(x) taps, summed by a reduction over the first
    axis, which adds them in the kernel's order."""
    return np.add.reduce(filt[:len(x)] * x[::-1], axis=0)


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
        return from_op(a.data @ b.data, (a, b), lambda g: accumulate(a, linear_vjp(a.data, b, g)))
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


@dataclass
class Heads:
    """The shell of an attention layer: wq, wk, wv project d_model-wide rows
    to per-head queries, keys and values in the (..., heads, N, width)
    layout, and wo maps the merged heads back to d_model. The L and S layers
    extend it with the settings of their cores; each layer's graph op runs
    `project_rows` and `merge_rows` forward and their vjps backward."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    heads: int

    def __post_init__(self):
        integer(self.heads, "heads")
        for name, w in tensors(self):
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

    def project_rows(self, un: np.ndarray) -> list[np.ndarray]:
        """(..., N, d_model) rows, or one (d_model,) row as N = 1, to contiguous
        (..., heads, N, width) queries, keys and values."""
        h = self.heads
        if un.ndim == 1:  # a decode step's row, bound by per-call overhead: one reshape, and `dot` (the same gemv) skips matmul's set-up
            return [un.dot(w.data).reshape(h, 1, -1) for w in (self.wq, self.wk, self.wv)]
        return [np.ascontiguousarray(np.swapaxes((un @ w.data).reshape(*un.shape[:-1], h, w.shape[1] // h), -2, -3)) for w in (self.wq, self.wk, self.wv)]

    def merge_rows(self, y: np.ndarray) -> np.ndarray:
        """(..., heads, N, head_dim) outputs to (..., N, d_model) rows through wo."""
        if y.ndim == 3 and y.shape[1] == 1:  # a decode step: one reshape merges the heads, no transpose needed
            return y.reshape(1, -1).dot(self.wo.data)
        return self._merged(y) @ self.wo.data

    def _merged(self, y: np.ndarray) -> np.ndarray:
        return np.swapaxes(y, -3, -2).reshape(*y.shape[:-3], y.shape[-2], self.wo.shape[0])

    def project_rows_vjp(self, un: np.ndarray, grads, du: np.ndarray | None = None) -> np.ndarray:
        """The backward of `project_rows(un)` for (..., N, d_model) rows: adds
        the gradients of wq, wk and wv for those of the queries, keys and
        values `grads`, and returns un's. Its terms are added after `du` (an
        earlier one, if any) in the order v, k, q."""
        for w, g in zip((self.wv, self.wk, self.wq), reversed(grads)):
            term = linear_vjp(un, w, np.swapaxes(g, -3, -2).reshape(*un.shape[:-1], w.shape[1]))
            du = term if du is None else du + term
        return du

    def merge_rows_vjp(self, y: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The backward of `merge_rows(y)` for the output gradient g: adds wo's
        gradient and returns y's, (..., heads, N, head_dim)."""
        gm = linear_vjp(self._merged(y), self.wo, g)
        return np.swapaxes(gm.reshape(*gm.shape[:-1], self.heads, self.head_dim), -3, -2)


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
