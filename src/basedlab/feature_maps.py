"""Feature maps for linear attention, including the 2nd-order Taylor map.

The Taylor map approximates exp(q.k / sqrt(d')) with its quadratic Taylor
expansion. It keeps one feature per distinct monomial,

    phi(x) = [1 | x_i / d'^(1/4) | x_i x_j * c_ij for i <= j]

with c_ii = 1/(sqrt2 * sqrt d') and c_ij = 1/sqrt(d') off the diagonal, so
that phi(q).phi(k) = 1 + a + a^2/2 for a = q.k / sqrt(d'), which is bounded
below by 1/2. That is 1 + d' + d'(d'+1)/2 features; the paper's baseline
materializes all 1 + d' + d'^2 products instead, a width `dims` still reports
for the IO formulas but no code path computes. `tile_scores` uses the
identity to take a tile's pairwise kernel from the d'-wide q.k, so the tiled
linear-attention views form phi only for their carried state.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=32)
def _pairs(d: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and coefficient c_ij of each i <= j monomial; cached, read-only."""
    iu, ju = np.triu_indices(d)
    rd = math.sqrt(d)
    coeff = np.where(iu == ju, 1.0 / (math.sqrt(2.0) * rd), 1.0 / rd).astype(dtype)
    for a in (iu, ju, coeff):
        a.flags.writeable = False
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


def check(kind: FeatureMapKind, x: np.ndarray) -> None:
    """Raise on non-finite input and, for the Taylor map, on a trailing-axis
    width other than d'."""
    if not np.isfinite(x).all():
        raise NumericError(f"{kind.tag}: non-finite input")
    if kind.tag == "TaylorExp2" and x.shape[-1] != kind.d_prime:
        raise ShapeError(f"TaylorExp2 expects width {kind.d_prime}, got input shape {x.shape}")


def phi(kind: FeatureMapKind, x: np.ndarray) -> np.ndarray:
    """The map along the trailing axis of an input that passed `check`."""
    if kind.tag == "TaylorExp2":
        return taylor_compact(x)
    if kind.tag == "PosELU":
        return np.where(x > 0, x + 1.0, np.exp(np.minimum(x, 0.0)))
    if kind.tag == "ReLU":
        return np.maximum(x, 0.0)
    if kind.tag == "Square":
        return x * x
    return x


def phi_vjp(kind: FeatureMapKind, x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of x given the gradient g of phi(x).

    The Taylor VJP fills the upper triangle of a symmetric d' x d' matrix
    G[iu, ju] = g_pair * c_ij with the pair gradients, so
    dx = g_lin / d'^(1/4) + (G + G^T) x.
    """
    if kind.tag == "TaylorExp2":
        d = x.shape[-1]
        iu, ju, coeff = _pairs(d, x.dtype)
        pair = np.zeros(g.shape[:-1] + (d, d), dtype=g.dtype)
        pair[..., iu, ju] = g[..., 1 + d:] * coeff
        sym = pair + np.swapaxes(pair, -1, -2)
        return g[..., 1:1 + d] / math.sqrt(math.sqrt(d)) + np.einsum("...ij,...j->...i", sym, x)
    if kind.tag == "PosELU":
        return g * np.where(x > 0, 1.0, np.exp(np.minimum(x, 0.0)))
    if kind.tag == "ReLU":
        return g * (x > 0)
    if kind.tag == "Square":
        return 2.0 * g * x
    return g


def tile_scores(kind: FeatureMapKind, q: np.ndarray, k: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """(phi(q) phi(k)^T) * mask over the last two axes.

    For the Taylor map that is (1 + a + a^2/2) * mask with a = q k^T / sqrt(d'),
    taken from the d'-wide inputs without forming phi and evaluated in place
    as 1 + a (1 + a/2).
    """
    if kind.tag == "TaylorExp2":
        a = q @ np.swapaxes(k, -1, -2)
        a *= 1.0 / math.sqrt(kind.d_prime)
        sc = a * 0.5
        sc += 1.0
        sc *= a
        sc += 1.0
        sc *= mask
        return sc
    return (phi(kind, q) @ np.swapaxes(phi(kind, k), -1, -2)) * mask


def tile_scores_vjp(
    kind: FeatureMapKind, q: np.ndarray, k: np.ndarray, mask: np.ndarray, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of q and k given the gradient g of `tile_scores`.

    For the Taylor map dA = g * mask * (1 + a) / sqrt(d'), so dq = dA k and
    dk = dA^T q; for the others the pair gradient goes through `phi_vjp`.
    """
    if kind.tag == "TaylorExp2":
        rd = math.sqrt(kind.d_prime)
        da = q @ np.swapaxes(k, -1, -2)
        da *= 1.0 / rd
        da += 1.0
        da *= g
        da *= mask
        da *= 1.0 / rd
        return da @ k, np.swapaxes(da, -1, -2) @ q
    pair = g * mask
    pq, pk = phi(kind, q), phi(kind, k)
    return phi_vjp(kind, q, pair @ pk), phi_vjp(kind, k, np.swapaxes(pair, -1, -2) @ pq)


def apply_numpy(kind: FeatureMapKind, x: np.ndarray) -> np.ndarray:
    """Apply the map along the trailing axis of a plain array, after `check`."""
    check(kind, x)
    return phi(kind, x)


def apply(kind: FeatureMapKind, x: Tensor) -> Tensor:
    """Graph op over `apply_numpy`, with `phi_vjp` as its backward."""
    return T.from_op(apply_numpy(kind, x.data), (x,), lambda g: T.accumulate(x, phi_vjp(kind, x.data, g)))
