"""Feature maps for linear attention, including the 2nd-order Taylor map.

The Taylor map approximates exp(q.k / sqrt(d')) with its quadratic Taylor
expansion. It keeps one feature per distinct monomial,

    phi(x) = [1 | x_i / d'^(1/4) | x_i x_j * c_ij for i <= j]

with c_ii = 1/(sqrt2 * sqrt d') and c_ij = 1/sqrt(d') off the diagonal, so
that phi(q).phi(k) = 1 + a + a^2/2 for a = q.k / sqrt(d'), which is bounded
below by 1/2. That is 1 + d' + d'(d'+1)/2 features; the paper's baseline
materializes all 1 + d' + d'^2 products instead, a width `dims` still reports
for the IO formulas but no code path computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import NumericError, ParameterError, ShapeError
from .tensor import Tensor

TAGS = ("TaylorExp2", "PosELU", "ReLU", "Square", "Identity")


@dataclass(frozen=True)
class FeatureMapKind:
    """Which map to apply; `d_prime` is the expected input width (Taylor only)."""

    tag: str
    d_prime: int | None = None

    def __post_init__(self):
        if self.tag not in TAGS:
            raise ParameterError(f"unknown feature map tag {self.tag!r}; expected one of {TAGS}")
        if self.tag == "TaylorExp2":
            if self.d_prime is None or self.d_prime < 1:
                raise ParameterError(f"TaylorExp2 requires d_prime >= 1, got {self.d_prime}")


def taylor_exp2(d_prime: int) -> FeatureMapKind:
    return FeatureMapKind("TaylorExp2", d_prime)


@dataclass(frozen=True)
class DimReport:
    """Feature counts: the paper's materialized baseline, unique, and tile-padded.

    `materialized` (1 + d' + d'^2 for Taylor) is the width the featurized
    baseline writes to HBM; only the IO formulas use it, and `padded` rounds
    it up to the tile.
    """

    materialized: int
    unique: int
    padded: int


def unique_dim(d_prime: int) -> int:
    """Distinct monomials of the Taylor map: 1 + d' + d'(d'+1)/2."""
    return 1 + d_prime + d_prime * (d_prime + 1) // 2


def feature_dim(kind: FeatureMapKind) -> int:
    """Output width of `apply` for this kind."""
    if kind.tag == "TaylorExp2":
        return unique_dim(kind.d_prime)
    if kind.d_prime is None:
        raise ParameterError(f"{kind.tag} needs d_prime to state its width")
    return kind.d_prime


def dims(kind: FeatureMapKind, tile: int = 1) -> DimReport:
    """Materialized / unique / padded widths; padding rounds up to `tile`."""
    if tile < 1:
        raise ParameterError(f"tile must be >= 1, got {tile}")
    unique = feature_dim(kind)
    materialized = 1 + kind.d_prime + kind.d_prime * kind.d_prime if kind.tag == "TaylorExp2" else unique
    padded = ((materialized + tile - 1) // tile) * tile
    return DimReport(materialized, unique, padded)


def _pairs(d: int, dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row and column of each i <= j monomial, and its coefficient c_ij."""
    iu, ju = np.triu_indices(d)
    rd = math.sqrt(d)
    coeff = np.where(iu == ju, 1.0 / (math.sqrt(2.0) * rd), 1.0 / rd).astype(dtype)
    return iu, ju, coeff


def taylor_compact(x: np.ndarray) -> np.ndarray:
    """The Taylor map on the trailing axis, one entry per distinct monomial."""
    x = np.asarray(x)
    d = x.shape[-1]
    iu, ju, coeff = _pairs(d, x.dtype)
    parts = [
        np.ones(x.shape[:-1] + (1,), dtype=x.dtype),
        x / math.sqrt(math.sqrt(d)),
        x[..., iu] * x[..., ju] * coeff,
    ]
    return np.concatenate(parts, axis=-1)


def _taylor_features(x: Tensor) -> Tensor:
    """Graph op over `taylor_compact`.

    The pair gradients fill the upper triangle of a symmetric d' x d' matrix
    G[iu, ju] = g_pair * c_ij, so dx = g_lin / d'^(1/4) + (G + G^T) x.
    """
    d = x.shape[-1]

    def backward(g):
        if not x.requires_grad:
            return
        iu, ju, coeff = _pairs(d, x.dtype)
        pair = np.zeros(g.shape[:-1] + (d, d), dtype=g.dtype)
        pair[..., iu, ju] = g[..., 1 + d:] * coeff
        sym = pair + np.swapaxes(pair, -1, -2)
        dx = g[..., 1:1 + d] / math.sqrt(math.sqrt(d)) + np.einsum("...ij,...j->...i", sym, x.data)
        T.accumulate(x, dx)

    return T.from_op(taylor_compact(x.data), (x,), backward)


def apply(kind: FeatureMapKind, x: Tensor) -> Tensor:
    """Apply the map along the trailing axis of `x`.

    Raises on non-finite input and, for the Taylor map, on a trailing-axis
    width other than d'.
    """
    if not np.isfinite(x.data).all():
        raise NumericError(f"{kind.tag}: non-finite input")
    if kind.tag == "TaylorExp2":
        if x.shape[-1] != kind.d_prime:
            raise ShapeError(f"TaylorExp2 expects width {kind.d_prime}, got input shape {x.shape}")
        return _taylor_features(x)
    if kind.tag == "PosELU":
        return T.pos_elu(x)
    if kind.tag == "ReLU":
        return T.relu(x)
    if kind.tag == "Square":
        return T.mul(x, x)
    return x  # Identity


def apply_numpy(kind: FeatureMapKind, x: np.ndarray) -> np.ndarray:
    """Graph-free twin of `apply` for decode-time code paths."""
    if kind.tag == "TaylorExp2":
        if x.shape[-1] != kind.d_prime:
            raise ShapeError(f"TaylorExp2 expects width {kind.d_prime}, got input shape {x.shape}")
        return taylor_compact(x)
    if kind.tag == "PosELU":
        return np.where(x > 0, x + 1.0, np.exp(np.minimum(x, 0.0)))
    if kind.tag == "ReLU":
        return np.maximum(x, 0.0)
    if kind.tag == "Square":
        return x * x
    return x
