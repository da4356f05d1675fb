"""Sliding-window attention: the banded core against a dense masked
reference, rotary positions, the decode shift buffer."""

import math

import numpy as np
import pytest

from basedlab import sliding_window as sw
from basedlab import tensor as T
from basedlab.errors import ParameterError, ShapeError
from basedlab.tensor import Tensor, grad_check
from test_linear_attention import assert_matches_composed_layer, merge_heads, split_heads


def dense_window(q, k, v, window):
    """The masked N x N reference: full logits, -1e30 outside the window, dense softmax."""
    n = q.shape[-2]
    i = np.arange(n)
    visible = (i[None, :] <= i[:, None]) & (i[None, :] > i[:, None] - window)
    const = lambda a: Tensor(np.broadcast_to(a, q.shape[:-2] + (n, n)), dtype=q.dtype)
    lead = k.ndim - 2
    logits = T.mul(T.matmul(q, T.transpose(k, (*range(lead), lead + 1, lead))), const(1.0 / math.sqrt(q.shape[-1])))
    return T.matmul(T.softmax_last(T.add(logits, const(np.where(visible, 0.0, -1e30)))), v)


def composed_window(params, u):
    """The reference: the S layer, rotary off, as a graph of matmul, reshape and transpose ops around
    `dense_window`."""
    q, k, v = (split_heads(u, w, params.heads) for w in (params.wq, params.wk, params.wv))
    return merge_heads(dense_window(q, k, v, params.window), params.wo)


@pytest.mark.parametrize("dtype, rel", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("n", [1, 6, sw.WINDOW_TILE + 6])
@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("window", [3, sw.WINDOW_TILE + 2])
def test_swa_forward_matches_the_composed_layer(window, batched, n, dtype, rel):
    rng = np.random.default_rng(n + 2 * batched + window)
    params = random_params(d_model=8, heads=2, window=window, rotary=False, seed=n)
    names = ("wq", "wk", "wv", "wo")
    for name in names:
        t = getattr(params, name)
        t.data = t.data.astype(dtype) * 20.0  # logits of order one
    exact = sw.SwaParams(**{name: Tensor(getattr(params, name).data.astype(np.float64), requires_grad=True) for name in names},
                         heads=2, window=window, rotary=False)
    shape = ((2,) if batched else ()) + (n, 8)
    x, weights = rng.normal(size=shape).astype(dtype), rng.normal(size=shape)
    assert_matches_composed_layer(sw.swa_forward, composed_window, params, exact, names, x, weights, rel)


@pytest.mark.parametrize("shape", [(7, 8), (2, 7, 8)])
def test_forward_gradients_of_every_weight_with_rotary(shape):
    params = random_params(d_model=8, heads=2, window=3, seed=27)
    for name in ("wq", "wk", "wv", "wo"):
        getattr(params, name).data *= 20.0
    u = Tensor(np.random.default_rng(27).normal(size=shape), requires_grad=True)
    weights = Tensor(np.random.default_rng(28).normal(size=shape))
    assert grad_check(lambda t: T.sum_all(T.mul(sw.swa_forward(params, t), weights)), u) < 1e-6
    for name in ("wq", "wk", "wv", "wo"):
        fields = {k: getattr(params, k) for k in ("wq", "wk", "wv", "wo")}

        def f(t, name=name, fields=fields):
            layer = sw.SwaParams(**{**fields, name: t}, window=params.window, heads=params.heads)
            return T.sum_all(T.mul(sw.swa_forward(layer, u), weights))

        assert grad_check(f, fields[name]) < 1e-6, name


def output_and_grads(attend, arrays, window, weights):
    """attend(q, k, v, window) and the gradients of sum(output * weights) in q, k, v."""
    q, k, v = (Tensor(a, requires_grad=True) for a in arrays)
    y = attend(q, k, v, window)
    T.sum_all(T.mul(y, Tensor(weights, dtype=y.dtype))).backward()
    return [y.data, q.grad, k.grad, v.grad]


def assert_matches_reference(arrays, window, weights, rel):
    got = output_and_grads(sw.window_core, arrays, window, weights)
    if arrays[0].shape[-2] == 0:  # the reference cannot softmax an empty row set
        assert [g.shape for g in got] == [weights.shape] + [a.shape for a in arrays]
        return
    want = output_and_grads(dense_window, [a.astype(np.float64) for a in arrays], window, weights)
    for name, g, w in zip(("y", "dq", "dk", "dv"), got, want):
        assert g.dtype == arrays[0].dtype, name
        assert np.abs(g - w).max() <= rel * np.abs(w).max(), (name, window)


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
    # perturbing key/value j moves output i exactly when i - w < j <= i,
    # within one tile and across tiles with a window wider than a tile
    rng = np.random.default_rng(11)
    for n, window in [(5, 2), (130, 70)]:
        q, k, v = (rng.normal(size=(1, 1, n, 4)) for _ in range(3))
        base = sw.window_core(Tensor(q), Tensor(k), Tensor(v), window).data[0, 0]
        i = np.arange(n)
        for j in range(n):
            k2, v2 = k.copy(), v.copy()
            k2[..., j, :] += 0.5
            v2[..., j, :] -= 0.5
            y = sw.window_core(Tensor(q), Tensor(k2), Tensor(v2), window).data[0, 0]
            moved = np.abs(y - base).max(axis=-1) > 0
            assert np.array_equal(moved, (i - window < j) & (j <= i)), (n, window, j)


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
    for i, j, shift in [(5, 2, 7), (9, 9, 3), (4, 0, 100)]:
        a = T.rotary_np(q, i) @ T.rotary_np(k, j)
        b = T.rotary_np(q, i + shift) @ T.rotary_np(k, j + shift)
        assert abs(a - b) < 1e-9


def test_rotary_preserves_norm():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 10))
    for pos in [0, 1, 17, 512]:
        r = T.rotary_np(x, pos)
        assert np.abs(np.linalg.norm(r, axis=-1) - np.linalg.norm(x, axis=-1)).max() < 1e-12


def test_decode_rotary_row_equals_table_row():
    # decode turns one row at position t; prefill reads row t of the cached table
    rng = np.random.default_rng(11)
    for dtype in (np.float64, np.float32):
        x = rng.normal(size=(2, 300, 32)).astype(dtype)  # (heads, N, head dim)
        table = T.rotary_from(x, 0)
        for t in range(300):
            assert np.array_equal(T.rotary_np(x[:, t], t), table[:, t]), (dtype, t)


def test_rotary_table_is_cached_and_read_only():
    params = random_params(d_model=8, heads=2, window=3, seed=4)
    u = Tensor(np.random.default_rng(12).normal(size=(2, 37, 8)), requires_grad=True)
    T.sum_all(sw.swa_forward(params, u)).backward()
    before = T._turn_table.cache_info()
    T.sum_all(sw.swa_forward(params, u)).backward()
    after = T._turn_table.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits + 2)  # q and k
    table = T._turn_table(64, 4, np.dtype(np.complex128))  # N = 37 reads the first 37 rows of the 64-row table
    assert T._turn_table.cache_info().misses == after.misses
    with pytest.raises(ValueError):
        table[0, 0] = 0.0


def test_rotary_lengths_share_one_table_per_power_of_two():
    # one table per sequence length held up to 32 of them: 16 long forwards and backwards at N = 3000..3015 held 24.6 MB
    before = T._turn_table.cache_info().misses
    for n in range(65, 129):
        x = np.ones((2, n, 6))
        assert np.array_equal(T.rotary_from(x, 0), T.rotary_np(x, np.arange(n)))
        assert np.array_equal(T.rotary_from(x[:, 60:], 60), T.rotary_np(x[:, 60:], np.arange(60, n)))
    assert T._turn_table.cache_info().misses - before <= 1


def test_decode_adds_no_rotary_cache_entry():
    # constant-memory decode: a stream past t = 10^4 holds what one at t = 10 holds
    params = random_params(d_model=4, heads=1, window=3, seed=5)
    cache = sw.WindowCache(params)
    x = np.random.default_rng(13).normal(size=4)
    infos = lambda: (T._turn_table.cache_info(), T._freqs.cache_info().currsize, cache.scalar_count())
    for _ in range(10):
        sw.decode_step(params, cache, x)
    at_10 = infos()
    while cache.t <= 10**4:
        sw.decode_step(params, cache, x)
    assert infos() == at_10


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


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("heads", [1, 4])
@pytest.mark.parametrize("rotary", [True, False])
def test_decode_step_equals_a_one_row_block(rotary, heads, dtype):
    # the step attends over every held key with no mask; a one-row block under its all-zero tile mask
    params = sw.create(16, heads, 5, rotary=rotary, rng=np.random.default_rng(heads), dtype=dtype)
    cache, twin = sw.WindowCache(params), sw.WindowCache(params)
    for x in np.random.default_rng(14).normal(size=(13, 16)).astype(dtype):
        twin.k, twin.v, twin.t = cache.k.copy(), cache.v.copy(), cache.t
        got = cache.step(x)
        assert got.dtype == dtype and np.array_equal(got, twin.block(x[None])[0]), cache.t
        assert np.array_equal(cache.k, twin.k) and np.array_equal(cache.v, twin.v)


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
    assert cache.t - cache.k.shape[1] == 0  # oldest held position
    u = np.random.default_rng(7).normal(size=(8, 8))
    for t in range(8):
        cache, _ = sw.decode_step(params, cache, u[t])
        assert cache.k.shape[1] == cache.v.shape[1] == min(t + 1, 3)
        assert cache.scalar_count() == 2 * 2 * min(t + 1, 3) * 4  # 2 h count dh
        assert cache.t - cache.k.shape[1] == max(0, t - 2)
    assert cache.t == 8


def test_cache_evicts_oldest_key():
    # after the window wraps, only the newest w keys remain, oldest first
    params = random_params(d_model=8, heads=1, window=2, rotary=False, seed=1)
    cache = sw.WindowCache(params)
    u = np.random.default_rng(8).normal(size=(5, 8))
    for t in range(5):
        cache, _ = sw.decode_step(params, cache, u[t])
    live = set(range(cache.t - cache.k.shape[1], cache.t))
    assert live == {3, 4}
    assert np.array_equal(cache.k[0], [u[3] @ params.wk.data, u[4] @ params.wk.data])
    assert np.array_equal(cache.v[0], [u[3] @ params.wv.data, u[4] @ params.wv.data])


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
    for window in (0, 2.5, True):  # at 2.5 the decode cache never reached its window and grew every step
        with pytest.raises(ParameterError, match="window must be a positive integer"):
            sw.SwaParams(wq=eye(4), wk=eye(4), wv=eye(4), wo=eye(4), window=window, heads=1)
    with pytest.raises(ParameterError):
        sw.SwaParams(wq=eye(4), wk=eye(4), wv=eye(4), wo=eye(4), window=2, heads=0)
    with pytest.raises(ShapeError):
        sw.SwaParams(wq=eye(4), wk=Tensor(np.eye(6)), wv=eye(4), wo=eye(4), window=2, heads=1)
    with pytest.raises(ShapeError):
        sw.SwaParams(wq=eye(6), wk=eye(6), wv=eye(6), wo=eye(6), window=2, heads=4)
    with pytest.raises(ShapeError):  # odd head dim under rotary
        sw.SwaParams(wq=eye(3), wk=eye(3), wv=eye(3), wo=eye(3), window=2, heads=1, rotary=True)
    with pytest.raises(ShapeError, match="wq must be 2-D"):  # was a bare IndexError
        sw.SwaParams(wq=Tensor(np.ones(4)), wk=eye(4), wv=eye(4), wo=eye(4), window=2, heads=1)
    with pytest.raises(ShapeError, match="wo"):  # was accepted, and the decode step failed in numpy
        sw.SwaParams(wq=eye(4), wk=eye(4), wv=eye(4), wo=eye(6), window=2, heads=1)
    with pytest.raises(ParameterError, match="heads must be a positive integer"):  # was a later TypeError
        sw.SwaParams(wq=eye(4), wk=eye(4), wv=eye(4), wo=eye(4), window=2, heads=2.0)
    params = random_params()
    with pytest.raises(ShapeError):
        sw.swa_forward(params, Tensor(np.zeros((5, 9))))
    cache = sw.WindowCache(params)
    with pytest.raises(ShapeError):
        sw.decode_step(params, cache, np.zeros(9))
    # a cache built for another layer: a 1-head layer's failed inside np.concatenate, and
    # one of the same shape attended over that layer's keys
    for other in (random_params(heads=1), random_params(seed=1)):
        with pytest.raises(ShapeError, match="another layer"):
            sw.decode_step(params, sw.WindowCache(other), np.zeros(8))


@pytest.mark.parametrize("window", [True, 0, -1, 2.5, "4"])
def test_window_core_rejects_a_window_that_is_not_a_positive_integer(window):
    x = Tensor(np.ones((2, 5, 4)))
    with pytest.raises(ParameterError, match="window must be a positive integer"):
        sw.window_core(x, x, x, window)
    assert np.array_equal(sw.window_core(x, x, x, np.int64(2)).data, sw.window_core(x, x, x, 2).data)


def test_large_logits_stay_finite():
    params = identity_params(d=4, window=3)
    u = np.random.default_rng(10).normal(size=(6, 4)) * 300.0
    y = sw.swa_forward(params, Tensor(u)).data
    assert np.isfinite(y).all()


def test_window_core_matches_masked_reference():
    rng = np.random.default_rng(12)
    for n in [0, 1, 63, 64, 65, 200]:
        for window in [1, 8, 64, 65, 130]:
            arrays = [rng.normal(size=(2, 3, n, 6)) for _ in range(3)]
            assert_matches_reference(arrays, window, rng.normal(size=(2, 3, n, 6)), 1e-12)


def test_window_core_keeps_f32():
    rng = np.random.default_rng(13)
    arrays = [rng.normal(size=(2, 2, 130, 8)).astype(np.float32) for _ in range(3)]
    assert_matches_reference(arrays, 70, rng.normal(size=(2, 2, 130, 8)), 1e-5)


def test_window_core_gradients_across_padded_tiles():
    # N = 70 is one full tile plus a partial one; w = 70 reaches back over both
    u = Tensor(np.random.default_rng(14).normal(size=(70, 4)), requires_grad=True)
    for window in [8, 70]:
        params = random_params(d_model=4, heads=2, window=window, seed=3)
        assert grad_check(lambda t: T.sum_all(sw.swa_forward(params, t)), u) < 1e-6


def test_window_core_memory_stays_per_tile(traced):
    # the dense N x N path traced about 780 MB here
    q, k, v = (Tensor(a) for a in np.random.default_rng(15).normal(size=(3, 1, 1, 4096, 64)))
    y, peak, _ = traced(sw.window_core, q, k, v, 64)
    assert y.shape == (1, 1, 4096, 64)
    assert peak < 64e6, peak / 1e6


def test_empty_sequence_gives_empty_output():
    params = random_params()
    u = Tensor(np.zeros((2, 0, 8)), requires_grad=True)
    y = sw.swa_forward(params, u)
    assert y.shape == (2, 0, 8)
    T.sum_all(y).backward()
    assert u.grad.shape == (2, 0, 8)
