"""Exact circuit views: the polynomial type, encodings, and their audits."""

from fractions import Fraction

import numpy as np
import pytest

from basedlab import theory as th
from basedlab.errors import EncodingError, InputError, ParameterError
from basedlab.theory import Polynomial


def test_polynomial_arithmetic():
    x = Polynomial.variable("x")
    y = Polynomial.variable("y")
    assert (x + 1) * (x - 1) == x * x - 1
    assert (x + y) * (x + y) == x * x + 2 * x * y + y * y
    assert x - x == Polynomial.const(0)
    assert 2 * x == x + x
    assert 1 - x == Polynomial.const(1) - x
    assert -(x + 1) == -1 - x


@pytest.mark.parametrize(
    "op",
    [lambda x: x * 1.5, lambda x: x + 0.5, lambda x: 0.5 - x, lambda x: x * Fraction(1, 2)],
    ids=["x*1.5", "x+0.5", "0.5-x", "x*Fraction(1,2)"],
)
def test_polynomial_rejects_non_integer_coefficients(op):
    # truncating 1.5 to 1 would make a degree audit read the wrong polynomial
    with pytest.raises(ParameterError, match="integers"):
        op(Polynomial.variable("x"))


def test_polynomial_takes_numpy_integer_coefficients():
    x = Polynomial.variable("x")
    assert x * np.int64(2) == 2 * x
    assert repr(x * np.int64(2)) == repr(2 * x)


def test_polynomial_degree_and_flags():
    x = Polynomial.variable("x")
    y = Polynomial.variable("y")
    assert Polynomial.const(0).degree() == 0
    assert Polynomial.const(5).degree() == 0
    assert (x * y + 1).degree() == 2
    assert (x * x * y).degree() == 3
    assert (x * y).is_multilinear()
    assert not (x * x).is_multilinear()
    blocks = {"x": 0, "y": 1}
    assert (x * y).is_block_exclusive(blocks)
    assert not (x * x).is_block_exclusive(blocks)  # squares touch a block twice
    assert not (x * y).is_block_exclusive({"x": 0, "y": 0})


def test_polynomial_evaluate_matches_terms():
    rng = np.random.default_rng(0)
    x = Polynomial.variable("x")
    y = Polynomial.variable("y")
    p = 3 * x * x * y - 2 * y + 7
    for _ in range(20):
        a, b = int(rng.integers(-5, 6)), int(rng.integers(-5, 6))
        assert p.evaluate({"x": a, "y": b}) == 3 * a * a * b - 2 * b + 7


def test_mqar_poly_targeted_cases():
    u = np.array([
        [1, 0],  # key 0
        [0, 1],  # value after key 0
        [1, 1],
        [1, 0],  # row 3 equals row 0
        [0, 0],
    ])
    assert th.mqar_poly(u, 3, 0).tolist() == [0, 1]  # match: value row 1
    assert th.mqar_poly(u, 4, 0).tolist() == [0, 0]  # [0,0] vs [1,0]: gate dies
    assert th.mqar_poly(u, 2, 1).tolist() == [0, 0]


def test_mqar_poly_validation():
    u = np.zeros((4, 2), dtype=np.int64)
    with pytest.raises(ParameterError):
        th.mqar_poly(u, 1, 1)  # query must follow key
    with pytest.raises(InputError, match="row j\\+1=4 out of range"):
        th.mqar_poly(u, 2, 3)  # value row j+1 = 4 is out of range
    with pytest.raises(InputError, match="row i=5 out of range"):
        th.mqar_poly(u, 5, 0)
    with pytest.raises(InputError, match="must be an integer >= 0"):
        th.mqar_poly(u, 2.5, 0)
    with pytest.raises(InputError):
        th.mqar_poly(np.array([[0, 2]]), 0, 0)
    with pytest.raises(InputError):
        th.mqar_poly(np.zeros(4), 1, 0)


def test_mqar_symbolic_structure():
    polys = th.mqar_poly_symbolic(2)
    assert len(polys) == 2
    for c, poly in enumerate(polys):
        assert poly.degree() == 5  # 2d + 1
        assert poly.is_multilinear()
        # matching assignment recovers the value bit
        assign = {("q", 0): 1, ("q", 1): 0, ("k", 0): 1, ("k", 1): 0, ("v", 0): 0, ("v", 1): 1}
        assert poly.evaluate(assign) == assign[("v", c)]
        assign[("k", 0)] = 0  # one mismatched bit kills the gate
        assert poly.evaluate(assign) == 0
    with pytest.raises(ParameterError):
        th.mqar_poly_symbolic(0)


@pytest.mark.parametrize("d", [1, 2])
def test_mqar_symbolic_evaluates_to_mqar_poly_on_every_assignment(d):
    polys = th.mqar_poly_symbolic(d)
    for code in range(2 ** (3 * d)):
        bits = [(code >> b) & 1 for b in range(3 * d)]
        k, v, q = bits[:d], bits[d:2 * d], bits[2 * d:]
        want = th.mqar_poly(np.array([k, v, q]), 2, 0)  # key row 0, value row 1, query row 2
        assign = {(name, c): row[c] for name, row in (("k", k), ("v", v), ("q", q)) for c in range(d)}
        assert [poly.evaluate(assign) for poly in polys] == want.tolist()


@pytest.mark.parametrize("p,base", [(1, 3), (2, 3)])
def test_eq_phot_symbolic_evaluates_to_eq_phot_poly_on_every_pair(p, base):
    poly = th.eq_phot_poly_symbolic(p, base)
    encodings = th._almost_phot(p, base)
    assert len(encodings) == (base + 1) ** p
    for v1 in encodings:
        for v2 in encodings:
            assign = {}
            for j in range(p):
                for k in range(base):
                    assign[("a", j, k)] = int(v1[j * base + k])
                    assign[("b", j, k)] = int(v2[j * base + k])
            assert poly.evaluate(assign) == th.eq_phot_poly(v1, v2, p)


def test_degree_audit_catches_a_gate_right_only_on_bits(monkeypatch):
    def squared_gate(q, k, v):  # 1 - (q - k)^2 is XNOR on bits but squares each variable
        diff = q - k
        return v * np.prod(1 - diff * diff)

    monkeypatch.setattr(th, "_recall_gate", squared_gate)
    results = {r.name: r for r in th.run_all_checks()}
    assert results["mqar_poly exhaustive"].passed
    assert not results["mqar_poly degree audit"].passed


def test_phot_encode_examples():
    assert th.phot_encode(3, 2, 4).tolist() == [0, 1, 0, 1]  # digits (1, 1) base 2
    assert th.phot_encode(0, 2, 4).tolist() == [1, 0, 1, 0]
    assert th.phot_encode(6, 2, 9).tolist() == [0, 0, 1, 1, 0, 0]  # digits (2, 0) base 3
    assert th.phot_encode(5, 1, 7).tolist() == [0, 0, 0, 0, 0, 1, 0]


def test_phot_round_trip_and_width():
    for p, c in ((1, 5), (2, 9), (3, 8)):
        base = round(c ** (1 / p))
        for t in range(c):
            vec = th.phot_encode(t, p, c)
            assert vec.shape == (p * base,)
            assert int(vec.sum()) == p
            assert th.phot_decode(vec, p, c) == t


def test_phot_validation():
    with pytest.raises(ParameterError):
        th.phot_encode(0, 2, 10)  # 10 is not a square
    with pytest.raises(ParameterError):
        th.phot_encode(9, 2, 9)  # token out of range
    with pytest.raises(ParameterError):
        th.phot_encode(0, 0, 4)
    with pytest.raises(EncodingError):
        th.phot_decode(np.array([1, 1, 0, 1, 0, 0]), 2, 9)  # wrong length
    with pytest.raises(EncodingError):
        th.phot_decode(np.array([1, 1, 0, 0, 1, 0]), 2, 9)  # double-hot block
    with pytest.raises(InputError):
        th.phot_decode(np.array([2, 0, 0, 1, 0, 0]), 2, 9)


def test_eq_phot_agreement_and_zero_blocks():
    a = th.phot_encode(4, 2, 9)
    b = th.phot_encode(7, 2, 9)
    assert th.eq_phot_poly(a, a, 2) == 1
    assert th.eq_phot_poly(a, b, 2) == 0
    empty = np.zeros(6, dtype=np.int64)
    assert th.eq_phot_poly(empty, empty, 2) == 1  # matching empty blocks agree
    assert th.eq_phot_poly(a, empty, 2) == 0
    with pytest.raises(EncodingError):
        th.eq_phot_poly(np.array([1, 1, 0, 0, 0, 0]), a, 2)
    with pytest.raises(EncodingError):
        th.eq_phot_poly(a[:4], b[:4], 3)  # length not divisible by p
    with pytest.raises(EncodingError):
        th.eq_phot_poly(a, b[:3], 2)
    for p in (0, -2):  # no block count below 1 (0 divided by zero, -2 returned 1)
        with pytest.raises(ParameterError):
            th.eq_phot_poly(a, b, p)


def test_eq_phot_symbolic_degree_and_blocks():
    for p, base in ((1, 3), (2, 3), (3, 2)):
        poly = th.eq_phot_poly_symbolic(p, base)
        assert poly.degree() == 2 * p
        assert poly.is_block_exclusive(th.phot_blocks(p, base))
    with pytest.raises(ParameterError):
        th.eq_phot_poly_symbolic(2, 1)


def test_exact_attention_worked_example():
    # two (key, value, query) triples; the second query hits the first key
    u = np.array([
        [1, 0],  # key 0
        [1, 1],  # value 0
        [1, 0],  # query 0 -> matches key 0
        [0, 1],  # key 1
        [0, 0],  # value 1
        [1, 0],  # query 1 -> first match is still key 0
    ])
    out, z = th.exact_attention_mqar(u, with_match_matrix=True)
    assert out.tolist() == [[1, 1], [1, 1]]
    assert z.tolist() == [[1, 0], [1, 0]]


def test_exact_attention_no_match_is_zero_row():
    u = np.array([
        [1, 0],
        [1, 1],
        [0, 1],  # query matches nothing
        [1, 1],
        [0, 1],
        [0, 0],  # query matches nothing (keys are [1,0] and [1,1])
    ])
    out = th.exact_attention_mqar(u)
    assert out.tolist() == [[0, 0], [0, 0]]


def test_exact_attention_prefers_first_match():
    u = np.array([
        [1],  # key 0
        [1],  # value 0 = 1
        [0],
        [1],  # key 1, same as key 0
        [0],  # value 1 = 0
        [1],  # query: both keys match, must pick value 0
    ])
    out = th.exact_attention_mqar(u)
    assert out.tolist() == [[0], [1]]


def test_exact_attention_random_against_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        d = int(rng.integers(1, 4))
        mat = rng.integers(0, 2, size=(3 * n, d))
        got = th.exact_attention_mqar(mat)
        assert np.array_equal(got, th._first_match_oracle(mat))


def test_exact_attention_validation():
    with pytest.raises(InputError):
        th.exact_attention_mqar(np.zeros((4, 2), dtype=np.int64))  # not 3N rows
    with pytest.raises(InputError):
        th.exact_attention_mqar(np.zeros((0, 2), dtype=np.int64))
    with pytest.raises(InputError):
        th.exact_attention_mqar(np.full((3, 2), 2))


def test_all_bit_matrices_enumeration():
    mats = list(th.all_bit_matrices(2, 2))
    assert len(mats) == 16
    assert mats[0].tolist() == [[0, 0], [0, 0]]
    assert mats[1].tolist() == [[1, 0], [0, 0]]  # lowest bit first
    as_tuples = {tuple(m.reshape(-1)) for m in mats}
    assert len(as_tuples) == 16


def test_run_all_checks_passes():
    results = th.run_all_checks()
    assert len(results) == 6
    for r in results:
        assert r.passed, r.name
        assert r.instances > 0
    by_name = {r.name: r.instances for r in results}
    assert by_name["mqar_poly exhaustive"] == 4096 * 15
    assert by_name["eq_phot_poly exhaustive"] == 81 + 6561 + 256
    assert by_name["exact attention recall"] == 4096
