"""Feature maps: the quadratic-kernel identity, width bookkeeping, variants."""

import numpy as np
import pytest

from basedlab import feature_maps as fm
from basedlab.errors import NumericError, ParameterError, ShapeError
from basedlab.tensor import Tensor


def test_identity_at_known_dot_product():
    # q.k = 4 with d' = 16 gives a = 1, so phi(q).phi(k) = 1 + 1 + 1/2
    kind = fm.taylor_exp2(16)
    q = np.zeros(16)
    k = np.zeros(16)
    q[0] = 2.0
    k[0] = 2.0
    pq = fm.apply_numpy(kind, q[None])[0]
    pk = fm.apply_numpy(kind, k[None])[0]
    assert np.isclose(pq @ pk, 2.5, atol=1e-12)


@pytest.mark.parametrize("d_prime", [4, 8, 16])
def test_identity_over_random_pairs(d_prime):
    kind = fm.taylor_exp2(d_prime)
    rng = np.random.default_rng(d_prime)
    q = rng.normal(size=(1000, d_prime))
    k = rng.normal(size=(1000, d_prime))
    pq = fm.apply_numpy(kind, q)
    pk = fm.apply_numpy(kind, k)
    a = (q * k).sum(axis=1) / np.sqrt(d_prime)
    err = np.abs((pq * pk).sum(axis=1) - (1 + a + 0.5 * a * a))
    assert err.max() < 1e-9


def test_kernel_is_bounded_below():
    # 1 + a + a^2/2 = ((1 + a)^2 + 1) / 2 >= 1/2 for every real a
    kind = fm.taylor_exp2(8)
    rng = np.random.default_rng(5)
    q = rng.normal(size=(500, 8)) * 3
    k = rng.normal(size=(500, 8)) * 3
    prod = (fm.apply_numpy(kind, q) * fm.apply_numpy(kind, k)).sum(axis=1)
    assert (prod >= 0.5 - 1e-12).all()


@pytest.mark.parametrize("d_prime,unique", [(8, 45), (16, 153), (24, 325), (32, 561)])
def test_unique_dims_table(d_prime, unique):
    assert fm.unique_dim(d_prime) == unique
    assert fm.dims(fm.taylor_exp2(d_prime)).unique == unique


def test_materialized_and_padded_dims():
    report = fm.dims(fm.taylor_exp2(16), tile=64)
    assert report.materialized == 273
    assert report.padded == 320
    assert fm.dims(fm.taylor_exp2(16)).padded == 273  # tile 1 pads nothing


def test_compact_layout_preserves_dot_products():
    rng = np.random.default_rng(6)
    q = rng.normal(size=(50, 12))
    k = rng.normal(size=(50, 12))
    a = (q * k).sum(axis=1) / np.sqrt(12)
    compact = (fm.taylor_compact(q) * fm.taylor_compact(k)).sum(axis=1)
    assert np.abs((1 + a + 0.5 * a * a) - compact).max() < 1e-12
    assert fm.taylor_compact(q).shape[1] == fm.unique_dim(12)


def test_apply_matches_apply_numpy():
    rng = np.random.default_rng(7)
    for tag, d_prime in (("TaylorExp2", 6), ("PosELU", 5), ("ReLU", 5), ("Square", 5), ("Identity", 5)):
        kind = fm.FeatureMapKind(tag, d_prime)
        x = rng.normal(size=(9, d_prime))
        with_graph = fm.apply(kind, Tensor(x)).data
        assert np.array_equal(with_graph, fm.apply_numpy(kind, x))


def test_non_taylor_values():
    x = np.array([[-1.0, 0.0, 2.0]])
    assert np.isclose(fm.apply_numpy(fm.FeatureMapKind("PosELU", 3), x)[0, 0], np.exp(-1.0))
    assert np.array_equal(fm.apply_numpy(fm.FeatureMapKind("ReLU", 3), x), [[0.0, 0.0, 2.0]])
    assert np.array_equal(fm.apply_numpy(fm.FeatureMapKind("Square", 3), x), [[1.0, 0.0, 4.0]])
    assert np.array_equal(fm.apply_numpy(fm.FeatureMapKind("Identity", 3), x), x)


def test_feature_widths():
    assert fm.feature_dim(fm.taylor_exp2(16)) == 153
    assert fm.feature_dim(fm.FeatureMapKind("Identity", 7)) == 7
    assert fm.feature_dim(fm.FeatureMapKind("Square", 7)) == 7


def test_taylor_gradient():
    from basedlab import tensor as T
    from basedlab.tensor import grad_check

    kind = fm.taylor_exp2(5)
    rng = np.random.default_rng(8)
    w = Tensor(rng.normal(size=(fm.feature_dim(kind),)))

    def f(t):
        return T.sum_all(T.mul(fm.apply(kind, t), Tensor(np.tile(w.data, (4, 1)))))

    assert grad_check(f, Tensor(rng.normal(size=(4, 5)))) < 1e-6


def test_errors():
    with pytest.raises(ParameterError):
        fm.FeatureMapKind("Fourier", 4)
    with pytest.raises(ParameterError):
        fm.taylor_exp2(0)
    with pytest.raises(ShapeError):
        fm.apply(fm.taylor_exp2(4), Tensor(np.ones((2, 5))))
    with pytest.raises(NumericError):
        fm.apply(fm.taylor_exp2(4), Tensor(np.array([[np.inf, 0.0, 0.0, 0.0]])))
    with pytest.raises(NumericError):
        fm.apply_numpy(fm.FeatureMapKind("ReLU", 4), np.array([[np.nan, 0.0, 0.0, 0.0]]))
    with pytest.raises(ParameterError):
        fm.dims(fm.taylor_exp2(4), tile=0)


def test_batched_input_shapes():
    kind = fm.taylor_exp2(4)
    x = np.random.default_rng(9).normal(size=(2, 3, 7, 4))
    out = fm.apply_numpy(kind, x)
    assert out.shape == (2, 3, 7, fm.feature_dim(kind))
    assert np.allclose(out[..., 0], 1.0)
