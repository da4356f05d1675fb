"""Gated convolution mixers: an elementwise gate times a causal convolution.

The minimal (theory) form is z = (u W + B) .* (K * u + B_K) with a
full-length per-channel filter and position-dependent biases. The trainable
form projects up by an expansion factor, convolves with a short filter after
the projection, applies SiLU to the convolution branch only, and projects
back down:

    y = ((u W1 + b1) .* silu(h * (u W2) + b2)) W3 + b3
"""

from __future__ import annotations

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


def forward_gated(params: GatedBaseConv, u: Tensor) -> Tensor:
    """Gate times SiLU'd convolution branch, then the down projection."""
    if u.shape[-1] != params.d_model:
        raise ShapeError(f"input width {u.shape[-1]} does not match d_model {params.d_model}")
    gate = T.add(T.matmul(u, params.w1), params.b1)
    conv = T.add(T.causal_conv1d(T.matmul(u, params.w2), params.filt), params.b2)
    return T.add(T.matmul(T.mul(gate, T.silu(conv)), params.w3), params.b3)
