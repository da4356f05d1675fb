"""Every tiled core at tiles of 1, 3 and 7 rows: many carried contexts,
and windows and filters that span several tiles, against the references;
and what each core keeps for its backward."""

import numpy as np
import pytest

from basedlab import baseconv as bc
from basedlab import feature_maps as fm
from basedlab import linear_attention as la
from basedlab import sliding_window as sw
from basedlab import tensor as T
from basedlab.tensor import Tensor, grad_check
from test_baseconv import assert_matches_composed, random_gated
from test_linear_attention import masked_reference
from test_sliding_window import assert_matches_reference

DTYPES = [(np.float64, 1e-12), (np.float32, 1e-5)]


@pytest.mark.parametrize("tile", [1, 3, 7])
def test_window_core_at_small_tiles(monkeypatch, tile):
    monkeypatch.setattr(sw, "WINDOW_TILE", tile)
    rng = np.random.default_rng(30 + tile)
    for n in sorted({0, 1, tile, tile + 1, 2 * tile + 1, 40}):
        for window in sorted({1, 2, tile, tile + 1, 2 * tile, 3 * tile + 1}):
            for dtype, rel in DTYPES:
                arrays = [rng.normal(size=(2, 2, n, 4)).astype(dtype) for _ in range(3)]
                assert_matches_reference(arrays, window, rng.normal(size=(2, 2, n, 4)), rel)


@pytest.mark.parametrize("tile", [1, 3, 7])
def test_attention_core_at_small_tiles(tile):
    kind = fm.taylor_exp2(3)
    rng = np.random.default_rng(40 + tile)
    ladder = la.default_decay_gammas(2)
    for n in sorted({0, 1, tile, tile + 1, 4 * tile + 1, 40}):
        raw_q, raw_k, v = rng.normal(size=(3, 2, 2, n, 3))
        pq, pk = fm.apply_numpy(kind, raw_q), fm.apply_numpy(kind, raw_k)
        for gamma, gammas in ((1.0, np.ones(2)), (ladder, ladder)):
            want = masked_reference(pq, pk, v, gammas)
            for dtype, rel in DTYPES:
                y = la.attention_core(*(Tensor(a, dtype=dtype) for a in (pq, pk, v)), 1e-12, gamma, tile=tile).data
                assert y.dtype == dtype and y.shape == v.shape
                assert np.abs(y - want).max(initial=0.0) <= rel * max(np.abs(want).max(initial=0.0), 1.0), (n, dtype)

    # gradients of q, k and v through the carried state, over 5 tiles
    raw_q, raw_k, v, weights = rng.normal(size=(4, 1, 2, 4 * tile + 1, 3))

    def loss(q, k, v):
        y = la.attention_core(fm.apply(kind, q), fm.apply(kind, k), v, 1e-12, ladder, tile=tile)
        return T.sum_all(T.mul(y, Tensor(weights)))

    assert grad_check(lambda t: loss(t, Tensor(raw_k), Tensor(v)), Tensor(raw_q)) < 1e-6
    assert grad_check(lambda t: loss(Tensor(raw_q), t, Tensor(v)), Tensor(raw_k)) < 1e-6
    assert grad_check(lambda t: loss(Tensor(raw_q), Tensor(raw_k), t), Tensor(v)) < 1e-6


RAW_KINDS = [fm.taylor_exp2(3), fm.FeatureMapKind("PosELU", 3), fm.FeatureMapKind("Square", 3), la.IDENTITY]


@pytest.mark.parametrize("kind", RAW_KINDS, ids=lambda kind: kind.tag)
@pytest.mark.parametrize("tile", [1, 3, 7])
def test_raw_input_core_at_small_tiles(tile, kind):
    # the core featurizes raw q, k itself: intra-tile scores from q.k, phi only for the carried state
    rng = np.random.default_rng(50 + tile)
    ladder = la.default_decay_gammas(2)
    extra = () if kind is la.IDENTITY else (kind,)
    for n in sorted({0, 1, tile, tile + 1, 4 * tile + 1, 40}):
        raw_q, raw_k, v = rng.normal(size=(3, 2, 2, n, 3))
        if kind is la.IDENTITY:  # keep the kernel positive, as every other map's is
            raw_q, raw_k = np.abs(raw_q), np.abs(raw_k)
        pq, pk = fm.apply_numpy(kind, raw_q), fm.apply_numpy(kind, raw_k)
        for gamma, gammas in ((1.0, np.ones(2)), (ladder, ladder)):
            want = masked_reference(pq, pk, v, gammas)
            for dtype, rel in DTYPES:
                y = la.attention_core(*(Tensor(a, dtype=dtype) for a in (raw_q, raw_k, v)), 1e-12, gamma, *extra, tile=tile).data
                assert y.dtype == dtype and y.shape == v.shape
                assert np.abs(y - want).max(initial=0.0) <= rel * max(np.abs(want).max(initial=0.0), 1.0), (n, dtype)

    # gradients of raw q, k and v through the scores, the carry and the fold, over 5 tiles
    raw_q, raw_k, v, weights = rng.normal(size=(4, 1, 2, 4 * tile + 1, 3))
    if kind is la.IDENTITY:
        raw_q, raw_k = np.abs(raw_q), np.abs(raw_k)

    def loss(q, k, v):
        return T.sum_all(T.mul(la.attention_core(q, k, v, 1e-12, ladder, *extra, tile=tile), Tensor(weights)))

    assert grad_check(lambda t: loss(t, Tensor(raw_k), Tensor(v)), Tensor(raw_q)) < 1e-6
    assert grad_check(lambda t: loss(Tensor(raw_q), t, Tensor(v)), Tensor(raw_k)) < 1e-6
    assert grad_check(lambda t: loss(Tensor(raw_q), Tensor(raw_k), t), Tensor(v)) < 1e-6


@pytest.mark.parametrize("tile", [1, 3, 7])
def test_gated_conv_at_small_tiles(monkeypatch, tile):
    # one-row tiles are the shape the decode cache runs
    monkeypatch.setattr(bc, "CONV_TILE", tile)
    rng = np.random.default_rng(60 + tile)
    for taps in sorted({1, 2, tile + 1, 2 * tile + 1}):
        for dtype, rel in DTYPES:
            params = random_gated(3, 2, taps, seed=taps, dtype=dtype)
            for n in sorted({1, tile, tile + 1, 2 * tile + 1, 20}):
                x = rng.normal(size=(2, n, 3))
                assert_matches_composed(params, x.astype(dtype), rng.normal(size=x.shape), rel)


def _core_inputs(rng, n, width):
    """q, k of width `width` and v of width 64, one head, all requiring grad."""
    shapes = ((1, 1, n, width), (1, 1, n, width), (1, 1, n, 64))
    return [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]


def test_cores_of_many_tiles_hold_only_their_output(traced):
    # Kept for the backward, L's per-tile states and scores and its N-row [v | 1]
    # and [num | den] held 12.9 MB here, and S's probabilities 6.05 MB; the output is 2 MB.
    rng = np.random.default_rng(70)
    _, _, held = traced(la.attention_core, *_core_inputs(rng, 4096, 16), 1e-12, 1.0, fm.taylor_exp2(16))
    assert held < 3 * 2**20, held / 2**20
    _, _, held = traced(sw.window_core, *_core_inputs(rng, 4096, 64), 64)
    assert held < 3 * 2**20, held / 2**20


def test_one_tile_cores_keep_their_tile_only_when_recording(traced):
    # a recorded call of one tile keeps its arrays for the backward; under
    # no_grad it holds its output alone, bit-identical to the recorded one,
    # and the conv also multiplies its gate in place and skips the silu'
    # rewrite, so its peak is one tile-wide (8, 64, 256) array lower
    rng = np.random.default_rng(72)
    conv = random_gated(64, 4, 3, seed=1)
    for core, inputs in (
        (lambda q, k, v: la.attention_core(q, k, v, 1e-12, 1.0, fm.taylor_exp2(16)), _core_inputs(rng, la.CORE_TILE, 16)),
        (lambda q, k, v: sw.window_core(q, k, v, 8), _core_inputs(rng, sw.WINDOW_TILE, 64)),
        (lambda u: bc.forward_gated(conv, u), [Tensor(rng.normal(size=(8, bc.CONV_TILE // 2, 64)), requires_grad=True)]),
    ):
        recorded, peak_recorded, held_recorded = traced(core, *inputs)
        with T.no_grad():
            plain, peak, held = traced(core, *inputs)
        assert np.array_equal(plain.data, recorded.data) and not plain.requires_grad
        assert held <= plain.data.nbytes + 4096, held
        assert held_recorded > plain.data.nbytes + 2**16, held_recorded
    assert peak_recorded - peak > 0.9 * 2**20, (peak_recorded, peak)


@pytest.mark.parametrize("n", [la.CORE_TILE, 2 * la.CORE_TILE + 2], ids=["one-tile", "three-tiles"])
def test_backward_recomputes_tiles_only_past_one(monkeypatch, n):
    # every train shape is one tile: its backward reads the forward's arrays
    calls = {"L": 0, "S": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(fm, "tile_scores", counting("L", fm.tile_scores))
    monkeypatch.setattr(sw, "_attend", counting("S", sw._attend))
    rng = np.random.default_rng(71)
    for key, tile, core in (
        ("L", la.CORE_TILE, lambda q, k, v: la.attention_core(q, k, v, 1e-12, 1.0, fm.taylor_exp2(4))),
        ("S", sw.WINDOW_TILE, lambda q, k, v: sw.window_core(q, k, v, 8)),
    ):
        tiles = -(-n // tile)
        y = core(*_core_inputs(rng, n, 4))
        assert calls[key] == tiles
        T.sum_all(y).backward()
        assert calls[key] == (1 if tiles == 1 else 2 * tiles), key


def _blocks(n, tile):
    """(start, end) blocks over n rows, 2 and then 1 least multiples of
    `tile` of at least 2 rows long in turn: each starts at a multiple of the
    tile and holds at least 2 rows (a one-row product goes to gemv); a
    one-row tail joins the block before it."""
    size = tile * -(-2 // tile)
    starts = list(range(0, n, 3 * size))
    starts = sorted(starts + [s + 2 * size for s in starts if s + 2 * size < n])
    if n - starts[-1] < 2:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


@pytest.mark.parametrize("tile", [1, 3, 7])
def test_cache_blocks_equal_the_recorded_layer_at_small_tiles(monkeypatch, tile):
    # windows and filters longer than a tile, so the context a block carries in spans tiles
    monkeypatch.setattr(sw, "WINDOW_TILE", tile)
    monkeypatch.setattr(bc, "CONV_TILE", tile)
    rng = np.random.default_rng(80 + tile)
    for dtype in (np.float64, np.float32):
        layers = [(sw.create(8, heads, window, rng=rng, dtype=dtype), sw.swa_forward, sw.WindowCache)
                  for heads in (1, 2) for window in sorted({2, tile + 1, 2 * tile + 1})]
        layers += [(random_gated(8, 2, taps, seed=taps, dtype=dtype), bc.forward_gated, bc.ConvCache)
                   for taps in sorted({2, 3, tile + 1, 2 * tile + 1})]
        for n in (17, 20):
            x = rng.normal(size=(2, n, 8)).astype(dtype)
            for params, forward, cache_class in layers:
                want = forward(params, Tensor(x)).data
                cache = cache_class(params)
                got = np.concatenate([cache.block(x[:, s:e]) for s, e in _blocks(n, tile)], axis=1)
                assert got.dtype == dtype and np.array_equal(got, want), (cache_class.__name__, dtype, n, np.argwhere(got != want)[:3])
