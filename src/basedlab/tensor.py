"""Dense tensors with a small reverse-mode autodiff op set.

Arrays are row-major numpy buffers (float64 by default, float32 on request).
Every op returns a fresh tensor; tensors are never mutated once created, so
the recorded graph stays valid. `backward` replays the graph in reverse
execution order with plain sequential accumulation, which makes gradients
bit-reproducible across runs.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ParameterError, ShapeError

_FLOATS = (np.dtype(np.float64), np.dtype(np.float32))
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

    def numpy(self) -> np.ndarray:
        """Read-only view of the underlying buffer."""
        view = self.data.view()
        view.flags.writeable = False
        return view

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

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

    # -- operator sugar --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return _shift(self, float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return add(self, scale(other, -1.0))
        return _shift(self, -float(other))

    def __rsub__(self, other):
        return _shift(scale(self, -1.0), float(other))

    def __neg__(self):
        return scale(self, -1.0)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return div(self, other)
        return scale(self, 1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, other)


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


def _check_same_dtype(a: Tensor, b: Tensor, op: str) -> None:
    if a.dtype != b.dtype:
        raise ShapeError(f"{op}: mixed dtypes {a.dtype.name} and {b.dtype.name}")


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


def _shift(a: Tensor, c: float) -> Tensor:
    def backward(g):
        accumulate(a, g)
    return from_op(a.data + c, (a,), backward)


def add_const(a: Tensor, c: np.ndarray) -> Tensor:
    """Add a constant array (numpy broadcasting allowed; no gradient for it)."""
    out = a.data + c
    if out.shape != a.shape:
        raise ShapeError(f"add_const: constant of shape {np.shape(c)} changes operand shape {a.shape}")
    def backward(g):
        accumulate(a, g)
    return from_op(out, (a,), backward)


def scale(a: Tensor, s: float) -> Tensor:
    def backward(g):
        accumulate(a, g * s)
    return from_op(a.data * s, (a,), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b, "mul")
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    def backward(g):
        accumulate(a, g * b.data)
        accumulate(b, g * a.data)
    return from_op(a.data * b.data, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b, "div")
    if a.shape != b.shape:
        raise ShapeError(f"div: incompatible shapes {a.shape} and {b.shape}")
    def backward(g):
        accumulate(a, g / b.data)
        accumulate(b, -g * a.data / (b.data * b.data))
    return from_op(a.data / b.data, (a, b), backward)


def maximum_const(a: Tensor, c: float) -> Tensor:
    """Elementwise max with a scalar; gradient is zero on the clamped side."""
    keep = a.data > c
    def backward(g):
        accumulate(a, g * keep)
    return from_op(np.maximum(a.data, c), (a,), backward)


def relu(a: Tensor) -> Tensor:
    keep = a.data > 0
    def backward(g):
        accumulate(a, g * keep)
    return from_op(a.data * keep, (a,), backward)


def sigmoid_np(x: np.ndarray) -> np.ndarray:
    """Numerically stable sigmoid on a plain array (shared with decode paths)."""
    x = np.asarray(x)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def rotary_np(x: np.ndarray, positions, base: float = 10000.0) -> np.ndarray:
    """Rotary position encoding on a plain array (shared with decode paths).

    Pair m of a width-d row at position p turns by theta = p * base^(-2m/d);
    `positions` broadcasts against the rows x.shape[:-1]. The map is
    orthogonal, so inner products depend only on position offsets, and
    negated positions undo it.
    """
    d = x.shape[-1]
    freqs = base ** (-2.0 * np.arange(d // 2) / d)
    theta = np.asarray(positions, dtype=np.float64)[..., None] * freqs
    cos = np.cos(theta).astype(x.dtype)
    sin = np.sin(theta).astype(x.dtype)
    even = x[..., 0::2]
    odd = x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def init_normal(rng: np.random.Generator, rows: int, cols: int, dtype) -> Tensor:
    """Trainable (rows, cols) weight drawn from N(0, 0.02^2): the one parameter init."""
    return Tensor(rng.normal(0.0, 0.02, (rows, cols)).astype(dtype), requires_grad=True)


def silu(a: Tensor) -> Tensor:
    s = sigmoid_np(a.data)
    def backward(g):
        accumulate(a, g * s * (1.0 + a.data * (1.0 - s)))
    return from_op(a.data * s, (a,), backward)


def pos_elu(a: Tensor) -> Tensor:
    """elu(x) + 1: strictly positive, smooth at zero."""
    pos = a.data > 0
    ex = np.exp(np.where(pos, 0.0, a.data))
    out = np.where(pos, a.data + 1.0, ex)
    deriv = np.where(pos, 1.0, ex)
    def backward(g):
        accumulate(a, g * deriv)
    return from_op(out.astype(a.dtype), (a,), backward)


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


def concat_last(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the trailing axis."""
    parts = list(parts)
    lead = parts[0].shape[:-1]
    for p in parts[1:]:
        if p.shape[:-1] != lead:
            raise ShapeError(f"concat_last: leading dims disagree: {parts[0].shape} vs {p.shape}")
        _check_same_dtype(parts[0], p, "concat_last")
    widths = [p.shape[-1] for p in parts]
    offsets = np.cumsum([0] + widths)
    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            accumulate(p, g[..., lo:hi])
    return from_op(np.concatenate([p.data for p in parts], axis=-1), tuple(parts), backward)


def take_axis(a: Tensor, axis: int, index: int) -> Tensor:
    """Select one index along an axis, dropping that axis."""
    axis = axis % a.ndim
    sel = [slice(None)] * a.ndim
    sel[axis] = index
    sel = tuple(sel)
    def backward(g):
        if a.requires_grad:
            acc = np.zeros_like(a.data)
            acc[sel] = g
            accumulate(a, acc)
    return from_op(np.ascontiguousarray(a.data[sel]), (a,), backward)


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


def mean_all(a: Tensor) -> Tensor:
    n = a.size
    def backward(g):
        accumulate(a, np.full_like(a.data, float(g) / n))
    return from_op((a.data.sum(dtype=a.dtype) / n).reshape(()), (a,), backward)


# -- structured ops ---------------------------------------------------------------


def softmax_last(a: Tensor) -> Tensor:
    """Stable softmax over the trailing axis (max subtraction)."""
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=-1, keepdims=True)
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
    n = u.shape[-2]
    if f.shape[0] < 1:
        raise ParameterError(f"causal_conv1d: filter length {f.shape[0]} invalid")
    taps = min(f.shape[0], n)  # filters longer than the sequence see implicit left padding
    out = np.zeros_like(u.data)
    for t in range(taps):
        if t == 0:
            out += f.data[0] * u.data
        else:
            out[..., t:, :] += f.data[t] * u.data[..., :n - t, :]
    def backward(g):
        if u.requires_grad:
            du = np.zeros_like(u.data)
            for t in range(taps):
                if t == 0:
                    du += f.data[0] * g
                else:
                    du[..., :n - t, :] += f.data[t] * g[..., t:, :]
            accumulate(u, du)
        if f.requires_grad:
            df = np.zeros_like(f.data)
            flat_axes = tuple(range(g.ndim - 1))
            for t in range(taps):
                if t == 0:
                    df[0] = (g * u.data).sum(axis=flat_axes)
                else:
                    df[t] = (g[..., t:, :] * u.data[..., :n - t, :]).sum(axis=flat_axes)
            accumulate(f, df)
    return from_op(out, (u, f), backward)


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


def rotary(x: Tensor, positions: np.ndarray, base: float = 10000.0) -> Tensor:
    """Rotate consecutive feature pairs by position-dependent angles (`rotary_np`)."""
    d = x.shape[-1]
    if d % 2 != 0:
        raise ShapeError(f"rotary: feature width must be even, got {d}")
    n = x.shape[-2]
    positions = np.asarray(positions, dtype=np.float64)
    if positions.shape != (n,):
        raise ShapeError(f"rotary: positions {positions.shape} do not match sequence length {n}")
    def backward(g):
        accumulate(x, rotary_np(g, -positions, base))
    return from_op(rotary_np(x.data, positions, base), (x,), backward)


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
