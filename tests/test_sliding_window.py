"""Sliding-window attention: masking, rotary positions, the decode ring buffer."""

import math

import numpy as np
import pytest

from basedlab import sliding_window as sw
from basedlab import tensor as T
from basedlab.errors import ParameterError, ShapeError
from basedlab.tensor import Tensor, grad_check


def identity_params(d=4, window=2, heads=1, rotary=False):
    eye = lambda: Tensor(np.eye(d), requires_grad=True)
    return sw.SwaParams(wq=eye(), wk=eye(), wv=eye(), wo=eye(), window=window, heads=heads, rotary=rotary)


def random_params(d_model=8, heads=2, window=3, rotary=True, seed=0):
    return sw.create(d_model=d_model, heads=heads, window=window, rotary=rotary, rng=np.random.default_rng(seed))


def test_window_one_passes_value_through():
    # a single visible position gets softmax weight exactly 1
    params = identity_params(window=1)
    u = np.random.default_rng(0).normal(size=(6, 4))
    y = sw.swa_forward(params, Tensor(u))
    assert np.abs(y.data - u).max() < 1e-12


def test_window_mask_shape_and_entries():
    mask = sw.window_mask(5, 2)
    for i in range(5):
        for j in range(5):
            visible = j <= i and j > i - 2
            assert mask[i, j] == (0.0 if visible else sw._MASK_OFF)


def test_full_window_matches_plain_causal_attention():
    d, n = 6, 9
    params = identity_params(d=d, window=n)
    u = np.random.default_rng(1).normal(size=(n, d))
    y = sw.swa_forward(params, Tensor(u)).data
    # oracle: unwindowed causal softmax attention with the same projections
    logits = u @ u.T / math.sqrt(d)
    want = np.empty_like(u)
    for i in range(n):
        row = logits[i, : i + 1]
        w = np.exp(row - row.max())
        w /= w.sum()
        want[i] = w @ u[: i + 1]
    assert np.abs(y - want).max() < 1e-12


def test_positions_outside_window_are_ignored():
    # making an out-of-window row huge must not move the output
    params = identity_params(d=4, window=2)
    rng = np.random.default_rng(2)
    u = rng.normal(size=(7, 4))
    y1 = sw.swa_forward(params, Tensor(u)).data
    u2 = u.copy()
    u2[0] *= 1e6  # position 0 is invisible to rows >= 2
    y2 = sw.swa_forward(params, Tensor(u2)).data
    assert np.abs(y1[2:] - y2[2:]).max() < 1e-9


def test_rotary_dot_products_depend_only_on_offset():
    rng = np.random.default_rng(3)
    q = rng.normal(size=(8,))
    k = rng.normal(size=(8,))
    base = 10000.0
    for i, j, shift in [(5, 2, 7), (9, 9, 3), (4, 0, 100)]:
        a = T.rotary_np(q, i, base) @ T.rotary_np(k, j, base)
        b = T.rotary_np(q, i + shift, base) @ T.rotary_np(k, j + shift, base)
        assert abs(a - b) < 1e-9


def test_rotary_preserves_norm():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 10))
    for pos in [0, 1, 17, 512]:
        r = T.rotary_np(x, pos, 10000.0)
        assert np.abs(np.linalg.norm(r, axis=-1) - np.linalg.norm(x, axis=-1)).max() < 1e-12


def test_batched_matches_per_sequence():
    params = random_params()
    u = np.random.default_rng(5).normal(size=(3, 11, 8))
    yb = sw.swa_forward(params, Tensor(u)).data
    for b in range(3):
        ys = sw.swa_forward(params, Tensor(u[b])).data
        assert np.abs(yb[b] - ys).max() < 1e-12


def test_decode_matches_prefill():
    for seed in range(4):
        params = random_params(d_model=12, heads=3, window=4, seed=seed)
        n = 17
        u = np.random.default_rng(100 + seed).normal(size=(n, 12))
        prefill = sw.swa_forward(params, Tensor(u)).data
        cache = sw.WindowCache(params)
        for t in range(n):
            cache, y = sw.decode_step(params, cache, u[t])
            assert np.abs(y - prefill[t]).max() < 1e-9


def test_decode_without_rotary_matches_prefill():
    params = random_params(d_model=8, heads=2, window=3, rotary=False, seed=9)
    u = np.random.default_rng(6).normal(size=(10, 8))
    prefill = sw.swa_forward(params, Tensor(u)).data
    cache = sw.WindowCache(params)
    for t in range(10):
        cache, y = sw.decode_step(params, cache, u[t])
        assert np.abs(y - prefill[t]).max() < 1e-10


def test_ring_buffer_bookkeeping():
    params = random_params(d_model=8, heads=2, window=3)
    cache = sw.WindowCache(params)
    assert cache.scalar_count() == 0
    assert cache.oldest_position() == -1
    u = np.random.default_rng(7).normal(size=(8, 8))
    for t in range(8):
        cache, _ = sw.decode_step(params, cache, u[t])
        assert cache.count == min(t + 1, 3)
        assert cache.scalar_count() == 2 * 2 * min(t + 1, 3) * 4  # 2 h count dh
        assert cache.oldest_position() == max(0, t - 2)
    assert cache.t == 8


def test_cache_evicts_oldest_key():
    # after the window wraps, only the newest w keys remain
    params = random_params(d_model=8, heads=1, window=2, rotary=False, seed=1)
    cache = sw.WindowCache(params)
    u = np.random.default_rng(8).normal(size=(5, 8))
    for t in range(5):
        cache, _ = sw.decode_step(params, cache, u[t])
    live = set(int(p) for p in cache.positions)
    assert live == {3, 4}


def test_forward_gradients():
    params = random_params(d_model=8, heads=2, window=3, seed=2)
    u = Tensor(np.random.default_rng(9).normal(size=(7, 8)), requires_grad=True)
    rel = grad_check(lambda t: T.sum_all(sw.swa_forward(params, t)), u)
    assert rel < 1e-6
    rel_w = grad_check(lambda t: T.sum_all(sw.swa_forward(
        sw.SwaParams(wq=t, wk=params.wk, wv=params.wv, wo=params.wo,
                     window=params.window, heads=params.heads), u)), params.wq)
    assert rel_w < 1e-6


def test_validation_errors():
    eye = lambda n: Tensor(np.eye(n))
    with pytest.raises(ParameterError):
        sw.SwaParams(wq=eye(4), wk=eye(4), wv=eye(4), wo=eye(4), window=0, heads=1)
    with pytest.raises(ParameterError):
        sw.SwaParams(wq=eye(4), wk=eye(4), wv=eye(4), wo=eye(4), window=2, heads=0)
    with pytest.raises(ShapeError):
        sw.SwaParams(wq=eye(4), wk=Tensor(np.eye(6)), wv=eye(4), wo=eye(4), window=2, heads=1)
    with pytest.raises(ShapeError):
        sw.SwaParams(wq=eye(6), wk=eye(6), wv=eye(6), wo=eye(6), window=2, heads=4)
    with pytest.raises(ShapeError):  # odd head dim under rotary
        sw.SwaParams(wq=eye(3), wk=eye(3), wv=eye(3), wo=eye(3), window=2, heads=1, rotary=True)
    params = random_params()
    with pytest.raises(ShapeError):
        sw.swa_forward(params, Tensor(np.zeros((5, 9))))
    cache = sw.WindowCache(params)
    with pytest.raises(ShapeError):
        sw.decode_step(params, cache, np.zeros(9))


def test_large_logits_stay_finite():
    params = identity_params(d=4, window=3)
    u = np.random.default_rng(10).normal(size=(6, 4)) * 300.0
    y = sw.swa_forward(params, Tensor(u)).data
    assert np.isfinite(y).all()
