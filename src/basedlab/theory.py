"""Exact Boolean-circuit views of associative recall.

Three constructions, all over {0,1} with integer arithmetic so claims can be
checked exactly: the per-pair recall polynomial, the p-hot token encoding
with its block-exclusive equality polynomial, and a one-attention-layer +
two-MLP network that solves recall outright. Each polynomial's one kernel
runs on int bits and on a tiny integer `Polynomial` type held in object
arrays, so the degree audits read the polynomial the code computes.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import EncodingError, InputError, ParameterError, integer


class Polynomial:
    """Multivariate polynomial with integer coefficients.

    Monomials are tuples of (variable, exponent) pairs sorted by variable;
    variables are arbitrary hashable labels. Exact by construction, which is
    the point: degree claims are statements about integers, not floats.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff != 0:
                    self.terms[mono] = coeff

    @classmethod
    def const(cls, c: int) -> "Polynomial":
        if not isinstance(c, numbers.Integral):  # any sign, so not the size rule of `errors.integer`
            raise ParameterError(f"Polynomial coefficients must be integers, got {c!r}")
        return cls({(): int(c)})

    @classmethod
    def variable(cls, name) -> "Polynomial":
        return cls({((name, 1),): 1})

    def __add__(self, other) -> "Polynomial":
        other = other if isinstance(other, Polynomial) else Polynomial.const(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, 0) + coeff
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return Polynomial.const(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        other = other if isinstance(other, Polynomial) else Polynomial.const(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                exps: dict = {}
                for var, e in m1 + m2:
                    exps[var] = exps.get(var, 0) + e
                mono = tuple(sorted(exps.items()))
                out[mono] = out.get(mono, 0) + c1 * c2
        return Polynomial(out)

    __rmul__ = __mul__

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e for _, e in mono) for mono in self.terms)

    def is_multilinear(self) -> bool:
        return all(e == 1 for mono in self.terms for _, e in mono)

    def is_block_exclusive(self, block_of: dict) -> bool:
        """No monomial may touch one block twice (squares count as twice)."""
        for mono in self.terms:
            blocks = [block_of[var] for var, e in mono for _ in range(e)]
            if len(blocks) != len(set(blocks)):
                return False
        return True

    def evaluate(self, assignment: dict) -> int:
        total = 0
        for mono, coeff in self.terms.items():
            value = coeff
            for var, e in mono:
                value *= assignment[var] ** e
            total += value
        return total

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "Polynomial(0)"
        parts = []
        for mono, coeff in sorted(self.terms.items()):
            vars_part = "*".join(f"{v}^{e}" if e > 1 else str(v) for v, e in mono)
            parts.append(f"{coeff}" if not mono else f"{coeff}*{vars_part}")
        return f"Polynomial({' + '.join(parts)})"


def _as_bits(u, name: str = "u") -> np.ndarray:
    arr = np.asarray(u)
    if not np.isin(arr, (0, 1)).all():
        raise InputError(f"{name} must contain only 0/1 entries")
    return arr.astype(np.int64)


def _symbols(name: str, *shape: int) -> np.ndarray:
    """Object array of formal variables labelled (name, *index)."""
    return np.array([Polynomial.variable((name, *idx)) for idx in np.ndindex(*shape)], dtype=object).reshape(shape)


# -- recall polynomial --------------------------------------------------------


def _recall_gate(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v * prod_c [q_c k_c + (1 - q_c)(1 - k_c)], on int bits or Polynomial
    entries alike (array operands first: a Polynomial takes no array)."""
    return v * np.prod(q * k + (1 - q) * (1 - k))


def mqar_poly(u, i: int, j: int) -> np.ndarray:
    """Value row j+1 if rows i and j agree bitwise, else the zero vector.

    The gate is the XNOR product prod_k [u_ik u_jk + (1-u_ik)(1-u_jk)]; one
    disagreeing bit zeroes it.
    """
    mat = _as_bits(u)
    if mat.ndim != 2:
        raise InputError(f"u must be 2-D, got shape {mat.shape}")
    n = mat.shape[0]
    for name, row in (("i", i), ("j", j), ("j+1", j + 1)):
        if not 0 <= row < n:
            raise IndexError(f"row {name}={row} out of range for {n} rows")
    if i <= j:
        raise ParameterError(f"query row i={i} must follow key row j={j}")
    return _recall_gate(mat[i], mat[j], mat[j + 1])


def mqar_poly_symbolic(d: int) -> list[Polynomial]:
    """The recall polynomial over formal bits, one polynomial per output bit:
    `mqar_poly`'s gate run on symbols.

    Variables: ("k", c) key bits, ("v", c) value bits, ("q", c) query bits.
    Each output bit is multilinear of degree 2d + 1.
    """
    integer(d, "mqar_poly_symbolic: d")
    return list(_recall_gate(_symbols("q", d), _symbols("k", d), _symbols("v", d)))


# -- p-hot encoding -----------------------------------------------------------


def _phot_base(p: int, c: int) -> int:
    integer(p, "p-hot: p")
    integer(c, "p-hot: c")
    base = round(c ** (1.0 / p))
    for candidate in (base - 1, base, base + 1):
        if candidate >= 1 and candidate**p == c:
            return candidate
    raise ParameterError(f"c={c} is not a perfect {p}-th power")


def phot_encode(t: int, p: int, c: int) -> np.ndarray:
    """Encode token t as p concatenated one-hot blocks of its base-c^(1/p)
    digits, most significant digit first."""
    base = _phot_base(p, c)
    if integer(t, "phot_encode: token", 0) >= c:
        raise ParameterError(f"token {t} outside [0, {c})")
    out = np.zeros(p * base, dtype=np.int64)
    rest = t
    for block in range(p - 1, -1, -1):
        rest, digit = divmod(rest, base)
        out[block * base + digit] = 1
    return out


def phot_decode(vec, p: int, c: int) -> int:
    base = _phot_base(p, c)
    bits = _as_bits(vec, "encoding")
    if bits.shape != (p * base,):
        raise EncodingError(f"expected length {p * base}, got shape {bits.shape}")
    t = 0
    for block in range(p):
        chunk = bits[block * base : (block + 1) * base]
        if chunk.sum() != 1:
            raise EncodingError(f"block {block} has {int(chunk.sum())} ones, expected exactly 1")
        t = t * base + int(np.argmax(chunk))
    return t


def _block_product(a: np.ndarray, b: np.ndarray):
    """prod_j [a_j . b_j + (1 - sum a_j)(1 - sum b_j)] over the rows (blocks)
    of two (p, base) arrays, on int bits or Polynomial entries alike."""
    return np.prod((a * b).sum(axis=1) + (1 - a.sum(axis=1)) * (1 - b.sum(axis=1)))


def eq_phot_poly(u1, u2, p: int) -> int:
    """1 iff the two encodings agree in every block.

    Accepts p-hot and almost-p-hot inputs (a block may be all zeros); a block
    with two or more ones is malformed.
    """
    integer(p, "eq_phot_poly: p")
    a = _as_bits(u1, "u1")
    b = _as_bits(u2, "u2")
    if a.shape != b.shape or a.ndim != 1:
        raise EncodingError(f"encodings must be equal-length vectors, got {a.shape} and {b.shape}")
    if a.shape[0] % p != 0:
        raise EncodingError(f"length {a.shape[0]} is not divisible by p={p}")
    a, b = a.reshape(p, -1), b.reshape(p, -1)
    crowded = np.flatnonzero((a.sum(axis=1) > 1) | (b.sum(axis=1) > 1))
    if crowded.size:
        raise EncodingError(f"block {crowded[0]} has more than one set bit")
    return int(_block_product(a, b))


def eq_phot_poly_symbolic(p: int, base: int) -> Polynomial:
    """The block-product equality polynomial over formal bits: `eq_phot_poly`'s
    product run on symbols.

    Variables ("a", j, k) and ("b", j, k); block labels pair the side with
    the block index, so block-exclusivity means no monomial reads the same
    side of the same block twice. Degree is exactly 2p.
    """
    integer(p, "eq_phot_poly_symbolic: p")
    integer(base, "eq_phot_poly_symbolic: base", 2)
    return _block_product(_symbols("a", p, base), _symbols("b", p, base))


def phot_blocks(p: int, base: int) -> dict:
    """Variable -> block label map matching eq_phot_poly_symbolic."""
    blocks = {}
    for j in range(p):
        for k in range(base):
            blocks[("a", j, k)] = ("a", j)
            blocks[("b", j, k)] = ("b", j)
    return blocks


# -- exact attention construction ----------------------------------------------


def exact_attention_mqar(u, with_match_matrix: bool = False):
    """Solve recall with one masked-attention layer and two linear+ReLU maps.

    Input rows come in (key, value, query) triples. Keys and queries are
    remapped to +/-1 so the biased inner product w_q . w_k - (d - 1) is 1 on
    equal rows and <= -1 otherwise; after ReLU and the causal mask that is
    the exact match indicator Z. A suffix-sum matrix, a subtract-first-column
    + 1 + ReLU stage, and an adjacent-difference matrix turn each Z row into
    a first-match one-hot. The selector carries one extra column backed by an
    appended zero value row, where queries with no match land.
    """
    mat = _as_bits(u)
    if mat.ndim != 2 or mat.shape[0] % 3 != 0 or mat.shape[0] == 0:
        raise InputError(f"expected (3N, d) bit rows, got shape {mat.shape}")
    n = mat.shape[0] // 3
    d = mat.shape[1]
    w = 2 * mat - 1
    q, k = w[2::3], w[0::3]
    values = mat[1::3]

    scores = q @ k.T - (d - 1)
    mask = np.tril(np.ones((n, n), dtype=np.int64))
    z = np.maximum(scores, 0) * mask

    w1 = np.tril(np.ones((n, n + 1), dtype=np.int64))  # suffix sums, plus a sink column
    counts = z @ w1
    kept = np.maximum(counts - counts[:, :1] + 1, 0)
    w3 = np.eye(n + 1, dtype=np.int64) - np.eye(n + 1, k=-1, dtype=np.int64)
    selector = kept @ w3
    v_ext = np.concatenate([values, np.zeros((1, d), dtype=np.int64)])
    out = selector @ v_ext
    return (out, z) if with_match_matrix else out


# -- exhaustive verification -----------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    instances: int


def all_bit_matrices(rows: int, cols: int) -> Iterator[np.ndarray]:
    """Every {0,1} matrix of the given shape, in counting order."""
    bits = rows * cols
    for code in range(2**bits):
        flat = (code >> np.arange(bits, dtype=np.int64)) & 1
        yield flat.reshape(rows, cols)


def _mqar_poly_cases() -> Iterator[bool]:
    rows, d = 6, 2
    pairs = [(i, j) for j in range(rows - 1) for i in range(j + 1, rows)]
    for mat in all_bit_matrices(rows, d):
        for i, j in pairs:
            want = mat[j + 1] if np.array_equal(mat[i], mat[j]) else np.zeros(d, dtype=np.int64)
            yield np.array_equal(mqar_poly(mat, i, j), want)


def _mqar_degree_cases() -> Iterator[bool]:
    for d in (1, 2, 3):
        for poly in mqar_poly_symbolic(d):
            yield poly.degree() == 2 * d + 1 and poly.is_multilinear()


def _phot_roundtrip_cases() -> Iterator[bool]:
    yield phot_encode(3, 2, 4).tolist() == [0, 1, 0, 1]
    for p, c in ((1, 7), (2, 16), (3, 27)):
        for t in range(c):
            vec = phot_encode(t, p, c)
            yield int(vec.sum()) == p and phot_decode(vec, p, c) == t


def _eq_phot_cases() -> Iterator[bool]:
    for c in (9, 81):
        codes = [phot_encode(t, 2, c) for t in range(c)]
        for t1 in range(c):
            for t2 in range(c):
                yield eq_phot_poly(codes[t1], codes[t2], 2) == int(t1 == t2)
    almost = _almost_phot(2, 3)
    for v1 in almost:
        for v2 in almost:
            yield eq_phot_poly(v1, v2, 2) == int(np.array_equal(v1, v2))


def _almost_phot(p: int, base: int) -> list[np.ndarray]:
    """Every almost-p-hot encoding: each block one-hot or all zeros."""
    choices = [np.zeros(base, dtype=np.int64)] + list(np.eye(base, dtype=np.int64))
    return [np.concatenate(blocks) for blocks in itertools.product(choices, repeat=p)]


def _eq_phot_degree_cases() -> Iterator[bool]:
    for p in (1, 2, 3):
        base = 3 if p < 3 else 2
        poly = eq_phot_poly_symbolic(p, base)
        yield poly.degree() == 2 * p and poly.is_block_exclusive(phot_blocks(p, base))


def _first_match_oracle(mat: np.ndarray) -> np.ndarray:
    n, d = mat.shape[0] // 3, mat.shape[1]
    out = np.zeros((n, d), dtype=np.int64)
    for t in range(n):
        for s in range(t + 1):
            if np.array_equal(mat[3 * s], mat[3 * t + 2]):
                out[t] = mat[3 * s + 1]
                break
    return out


def _exact_attention_cases() -> Iterator[bool]:
    n, d = 2, 2
    for mat in all_bit_matrices(3 * n, d):
        got, z = exact_attention_mqar(mat, with_match_matrix=True)
        want_z = [[int(s <= t and np.array_equal(mat[3 * t + 2], mat[3 * s])) for s in range(n)] for t in range(n)]
        yield np.array_equal(got, _first_match_oracle(mat)) and z.tolist() == want_z


_CHECKS = (
    ("mqar_poly exhaustive", _mqar_poly_cases),
    ("mqar_poly degree audit", _mqar_degree_cases),
    ("p-hot round trip", _phot_roundtrip_cases),
    ("eq_phot_poly exhaustive", _eq_phot_cases),
    ("eq_phot_poly degree audit", _eq_phot_degree_cases),
    ("exact attention recall", _exact_attention_cases),
)


def run_all_checks() -> list[CheckResult]:
    """Every exhaustive oracle and degree audit; all should pass. Each check
    in `_CHECKS` yields one pass/fail per instance, and `instances` counts
    the passes before the first failure."""
    results = []
    for name, cases in _CHECKS:
        instances, passed = 0, True
        for ok in cases():
            if not ok:
                passed = False
                break
            instances += 1
        results.append(CheckResult(name, passed, instances))
    return results
