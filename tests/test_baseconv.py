"""Gated convolutions: delta filters isolate the gate, oracles pin the math,
and the tiled core agrees with the composed graph it replaces."""

import numpy as np
import pytest

from basedlab import baseconv as bc
from basedlab import model as md
from basedlab import mqar as mq
from basedlab import tensor as T
from basedlab.errors import ParameterError, ShapeError
from basedlab.tensor import Tensor, grad_check, sigmoid_np


NAMES = ("w1", "w2", "w3", "b1", "b2", "b3", "filt")


def add_bias(x, b):
    """x plus the vector b on every row, as a graph: a ones column times b is b on each row, exactly."""
    ones = Tensor(np.ones(x.shape[:-1] + (1,)), dtype=x.dtype)
    return T.add(x, T.matmul(ones, T.reshape(b, (1, b.shape[0]))))


def composed_gated(params, u):
    """The reference: the gated layer as a graph of matmul, add, conv, SiLU and mul ops."""
    gate = add_bias(T.matmul(u, params.w1), params.b1)
    conv = add_bias(T.causal_conv1d(T.matmul(u, params.w2), params.filt), params.b2)
    return add_bias(T.matmul(T.mul(gate, T.silu(conv)), params.w3), params.b3)


def random_gated(d, expand, taps, seed, dtype=np.float64):
    """Parameters with nonzero biases, so every gradient path carries weight."""
    rng = np.random.default_rng(seed)
    params = bc.create_gated(d, expand=expand, taps=taps, rng=rng)
    for name in NAMES:
        t = getattr(params, name)
        t.data = rng.normal(size=t.shape).astype(dtype)
    return params


def output_and_grads(forward, params, x, weights):
    """forward(params, u) and the gradients of sum(output * weights) in u and every parameter."""
    u = Tensor(x, requires_grad=True)
    for name in NAMES:
        getattr(params, name).grad = None
    y = forward(params, u)
    T.sum_all(T.mul(y, Tensor(weights, dtype=y.dtype))).backward()
    return [y.data, u.grad] + [getattr(params, name).grad for name in NAMES]


def assert_matches_composed(params, x, weights, rel):
    """The core in x's dtype against the composed graph in f64: output and all eight gradients."""
    got = output_and_grads(bc.forward_gated, params, x, weights)
    exact = bc.GatedBaseConv(**{name: Tensor(getattr(params, name).data.astype(np.float64), requires_grad=True)
                                for name in NAMES})
    want = output_and_grads(composed_gated, exact, x.astype(np.float64), weights)
    for name, g, w in zip(("y", "u") + NAMES, got, want):
        assert g.dtype == x.dtype and g.shape == w.shape, name
        assert np.abs(g - w).max(initial=0.0) <= rel * np.abs(w).max(initial=0.0), name


def minimal_identity(n, d, filt):
    zeros = lambda: Tensor(np.zeros((n, d)))
    return bc.MinimalBaseConv(w=Tensor(np.eye(d)), b_lin=zeros(), b_conv=zeros(), filt=Tensor(filt))


def test_minimal_delta_filter_squares_input():
    # K = delta at lag 0 makes the conv branch pass u through, so z = u .* u
    n, d = 5, 3
    filt = np.zeros((n, d))
    filt[0] = 1.0
    u = np.random.default_rng(0).normal(size=(n, d))
    z = bc.forward_minimal(minimal_identity(n, d, filt), Tensor(u))
    assert np.abs(z.data - u * u).max() < 1e-12


def test_minimal_shift_filter_multiplies_neighbours():
    # K = delta at lag 1 shifts by one position with a zero boundary row
    n, d = 6, 2
    filt = np.zeros((n, d))
    filt[1] = 1.0
    u = np.random.default_rng(1).normal(size=(n, d))
    z = bc.forward_minimal(minimal_identity(n, d, filt), Tensor(u)).data
    assert np.abs(z[0]).max() < 1e-12
    assert np.abs(z[1:] - u[1:] * u[:-1]).max() < 1e-12


def test_minimal_biases_enter_linearly():
    n, d = 4, 2
    rng = np.random.default_rng(2)
    params = bc.MinimalBaseConv(
        w=Tensor(rng.normal(size=(d, d))),
        b_lin=Tensor(rng.normal(size=(n, d))),
        b_conv=Tensor(rng.normal(size=(n, d))),
        filt=Tensor(rng.normal(size=(n, d))),
    )
    u = rng.normal(size=(n, d))
    # oracle with explicit loops
    conv = np.zeros((n, d))
    for i in range(n):
        for t in range(i + 1):
            conv[i] += params.filt.data[t] * u[i - t]
    want = (u @ params.w.data + params.b_lin.data) * (conv + params.b_conv.data)
    got = bc.forward_minimal(params, Tensor(u)).data
    assert np.abs(got - want).max() < 1e-12


def test_gated_identity_projection_reduces_to_silu_gate():
    d = 4
    eye = Tensor(np.eye(d))
    zero = lambda w: Tensor(np.zeros(w))
    filt = Tensor(np.ones((1, d)))  # single tap of ones: conv = u
    params = bc.GatedBaseConv(w1=eye, w2=eye, w3=eye, b1=zero(d), b2=zero(d), b3=zero(d), filt=filt)
    u = np.random.default_rng(3).normal(size=(7, d))
    y = bc.forward_gated(params, Tensor(u)).data
    want = u * (u * sigmoid_np(u))
    assert np.abs(y - want).max() < 1e-12


def test_gated_matches_numpy_oracle():
    d, expand, taps, n = 3, 2, 3, 8
    params = bc.create_gated(d, expand=expand, taps=taps, rng=np.random.default_rng(4))
    u = np.random.default_rng(5).normal(size=(n, d))
    pre = u @ params.w2.data
    conv = np.zeros_like(pre)
    for t in range(taps):
        conv[t:] += params.filt.data[t] * pre[: n - t if t else n]
    branch = conv + params.b2.data
    silu = branch * sigmoid_np(branch)
    want = ((u @ params.w1.data + params.b1.data) * silu) @ params.w3.data + params.b3.data
    got = bc.forward_gated(params, Tensor(u)).data
    assert np.abs(got - want).max() < 1e-12


def test_gated_batched_matches_per_sequence():
    params = bc.create_gated(4, rng=np.random.default_rng(6))
    u = np.random.default_rng(7).normal(size=(3, 9, 4))
    yb = bc.forward_gated(params, Tensor(u)).data
    for b in range(3):
        ys = bc.forward_gated(params, Tensor(u[b])).data
        assert np.abs(yb[b] - ys).max() < 1e-12


def test_create_gated_shapes_and_properties():
    params = bc.create_gated(6, expand=3, taps=4, rng=np.random.default_rng(8))
    assert params.d_model == 6
    assert params.expanded == 18
    assert params.taps == 4
    assert params.w1.shape == (6, 18) and params.w3.shape == (18, 6)
    assert params.filt.shape == (4, 18)
    assert np.all(params.b1.data == 0) and np.all(params.b3.data == 0)


def test_gradients_minimal():
    n, d = 5, 3
    rng = np.random.default_rng(9)
    params = bc.MinimalBaseConv(
        w=Tensor(rng.normal(size=(d, d)), requires_grad=True),
        b_lin=Tensor(rng.normal(size=(n, d)), requires_grad=True),
        b_conv=Tensor(rng.normal(size=(n, d)), requires_grad=True),
        filt=Tensor(rng.normal(size=(n, d)), requires_grad=True),
    )
    u = Tensor(rng.normal(size=(n, d)), requires_grad=True)
    assert grad_check(lambda t: T.sum_all(bc.forward_minimal(params, t)), u) < 1e-6
    assert grad_check(lambda t: T.sum_all(bc.forward_minimal(
        bc.MinimalBaseConv(w=params.w, b_lin=params.b_lin, b_conv=params.b_conv, filt=t), u)), params.filt) < 1e-6


def test_gradients_gated():
    params = bc.create_gated(4, expand=2, taps=2, rng=np.random.default_rng(10))
    u = Tensor(np.random.default_rng(11).normal(size=(6, 4)), requires_grad=True)
    assert grad_check(lambda t: T.sum_all(bc.forward_gated(params, t)), u) < 1e-6
    for name in ("w1", "w2", "w3", "filt"):
        fields = {k: getattr(params, k) for k in ("w1", "w2", "w3", "b1", "b2", "b3", "filt")}
        def f(t, name=name, fields=fields):
            swapped = dict(fields)
            swapped[name] = t
            return T.sum_all(bc.forward_gated(bc.GatedBaseConv(**swapped), u))
        assert grad_check(f, fields[name]) < 1e-6


def test_validation_errors():
    n, d = 4, 3
    good = lambda: Tensor(np.zeros((n, d)))
    with pytest.raises(ShapeError):
        bc.MinimalBaseConv(w=Tensor(np.zeros((d, d + 1))), b_lin=good(), b_conv=good(), filt=good())
    with pytest.raises(ShapeError):
        bc.MinimalBaseConv(w=Tensor(np.eye(d)), b_lin=good(), b_conv=Tensor(np.zeros((n + 1, d))), filt=good())
    with pytest.raises(ParameterError):
        bc.create_gated(4, expand=0)
    with pytest.raises(ParameterError):
        bc.create_gated(4, taps=0)
    params = bc.create_gated(4, rng=np.random.default_rng(12))
    with pytest.raises(ShapeError):
        bc.forward_gated(params, Tensor(np.zeros((5, 3))))
    with pytest.raises(ShapeError):
        bc.forward_minimal(minimal_identity(4, 3, np.zeros((4, 3))), Tensor(np.zeros((5, 3))))
    with pytest.raises(ShapeError):
        bc.GatedBaseConv(
            w1=Tensor(np.zeros((4, 8))), w2=Tensor(np.zeros((4, 8))), w3=Tensor(np.zeros((8, 4))),
            b1=Tensor(np.zeros(8)), b2=Tensor(np.zeros(8)), b3=Tensor(np.zeros(4)),
            filt=Tensor(np.zeros((2, 7))),
        )
    fields = vars(bc.create_gated(4, rng=np.random.default_rng(12)))
    for name in NAMES[1:]:  # an f32 weight built, then the op raised while the cache returned f64
        with pytest.raises(ShapeError, match=f"{name} must be in w1's dtype float64"):
            bc.GatedBaseConv(**{**fields, name: Tensor(fields[name].data, dtype=np.float32)})
    with pytest.raises(ShapeError, match="w1 must be 2-D"):  # was a bare ValueError from unpacking
        bc.GatedBaseConv(
            w1=Tensor(np.zeros(4)), w2=Tensor(np.zeros((4, 8))), w3=Tensor(np.zeros((8, 4))),
            b1=Tensor(np.zeros(8)), b2=Tensor(np.zeros(8)), b3=Tensor(np.zeros(4)),
            filt=Tensor(np.zeros((2, 8))),
        )


@pytest.mark.parametrize("taps", [1, 3, 5, 200])
@pytest.mark.parametrize("n", [0, 1, 2, 127, 128, 129, 300])
def test_gated_core_matches_composed_reference(n, taps):
    # tile edges at 128 and 256; taps = 200 reaches back across more than one tile
    params = random_gated(4, 2, taps, seed=n * 1000 + taps)
    rng = np.random.default_rng(n + taps)
    for lead in ((), (2,)):
        shape = lead + (n, 4)
        assert_matches_composed(params, rng.normal(size=shape), rng.normal(size=shape), 1e-12)


def test_gated_core_keeps_f32():
    params = random_gated(6, 3, 4, seed=20, dtype=np.float32)
    rng = np.random.default_rng(21)
    x = rng.normal(size=(2, 150, 6)).astype(np.float32)
    assert_matches_composed(params, x, rng.normal(size=x.shape), 1e-5)


@pytest.mark.parametrize("dtype, rel", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("taps", [1, 3, 5])
@pytest.mark.parametrize("n, recomputed", [(bc.CONV_TILE, 0), (bc.CONV_TILE + 1, 2)])
def test_gated_core_keeps_its_one_tile(monkeypatch, n, recomputed, taps, dtype, rel):
    # one tile: the backward reads the forward's arrays; two tiles: it runs each tile again
    calls, tile = [], bc._tile
    def counted(*args, **kwargs):
        calls.append(args[2])
        return tile(*args, **kwargs)
    monkeypatch.setattr(bc, "_tile", counted)
    params = random_gated(4, 2, taps, seed=n + taps, dtype=dtype)
    rng = np.random.default_rng(n * taps)
    x = rng.normal(size=(2, 3, n, 4)).astype(dtype)
    u = Tensor(x, requires_grad=True)
    y = bc.forward_gated(params, u)
    forward_calls = len(calls)
    T.sum_all(y).backward()
    assert len(calls) - forward_calls == recomputed
    assert_matches_composed(params, x, rng.normal(size=x.shape), rel)


def test_gated_core_second_backward_reads_unchanged_tiles():
    # the graph is kept, so a second backward through the same output must see the same kept arrays
    params = random_gated(4, 2, 3, seed=30)
    u = Tensor(np.random.default_rng(31).normal(size=(2, 40, 4)), requires_grad=True)
    y = bc.forward_gated(params, u)
    runs = []
    for _ in range(2):
        for t in (u, y) + tuple(getattr(params, name) for name in NAMES):
            t.grad = None
        T.sum_all(T.mul(y, y)).backward()
        runs.append([u.grad] + [getattr(params, name).grad for name in NAMES])
    for name, a, b in zip(("u",) + NAMES, *runs):
        assert np.array_equal(a, b), name


def test_gated_core_calls_share_no_buffers():
    # two calls on the same parameters, both alive until one backward over their sum
    params = random_gated(4, 2, 3, seed=32)
    rng = np.random.default_rng(33)
    xa, xb, wa, wb = rng.normal(size=(4, 2, 50, 4))

    def run(forward, p):
        ua, ub = Tensor(xa, requires_grad=True), Tensor(xb, requires_grad=True)
        for name in NAMES:
            getattr(p, name).grad = None
        ya, yb = forward(p, ua), forward(p, ub)
        T.add(T.sum_all(T.mul(ya, Tensor(wa))), T.sum_all(T.mul(yb, Tensor(wb)))).backward()
        return [ya.data, yb.data, ua.grad, ub.grad] + [getattr(p, name).grad for name in NAMES]

    exact = bc.GatedBaseConv(**{name: Tensor(getattr(params, name).data.copy(), requires_grad=True)
                                for name in NAMES})
    for name, g, w in zip(("ya", "yb", "ua", "ub") + NAMES, run(bc.forward_gated, params), run(composed_gated, exact)):
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max(), name


def test_train_step_on_kept_tile_matches_recompute(monkeypatch):
    # N = 64 is one tile at CONV_TILE and two at 32, where the backward runs each tile again
    task = mq.MqarConfig(seed=34, num_keys=8, num_values=8, seq_len=64, kv_pairs=4)

    def trained():
        model = md.build(md.ModelConfig(vocab=task.vocab_size, d_model=16, d_prime=4, window=8,
                                        layer_pattern="CS", seed=34))
        rng = np.random.default_rng(34)
        md.train_mqar(model, (mq.generate(task, 4, rng=rng) for _ in range(2)),
                      md.TrainConfig(steps=2, batch_size=4, lr=1e-2))
        return [p.data for p in model.parameters()]

    kept = trained()
    monkeypatch.setattr(bc, "CONV_TILE", 32)
    for a, b in zip(kept, trained()):
        assert np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1.0)


def test_gated_core_gradients_across_tile_boundary():
    # N = 130 puts two rows past the first tile, so its context rows and their scatter are exercised
    params = random_gated(3, 2, 3, seed=22)
    for name in NAMES:
        getattr(params, name).data *= 0.3
    u = Tensor(np.random.default_rng(23).normal(size=(130, 3)), requires_grad=True)
    assert grad_check(lambda t: T.sum_all(bc.forward_gated(params, t)), u) < 1e-6
    fields = {k: getattr(params, k) for k in NAMES}
    for name in ("w2", "filt"):
        def f(t, name=name):
            return T.sum_all(bc.forward_gated(bc.GatedBaseConv(**{**fields, name: t}), u))
        assert grad_check(f, fields[name]) < 1e-6


def test_gated_core_memory_stays_per_tile(traced):
    params = bc.create_gated(64, rng=np.random.default_rng(24))
    u = Tensor(np.random.default_rng(25).normal(size=(1, 4096, 64)))
    y, peak, _ = traced(bc.forward_gated, params, u)
    assert y.shape == u.shape
    assert peak < 8 * 2**20, peak  # the composed graph held 68 MB here


def test_gated_core_backward_stays_one_tile_wide(traced):
    # past one tile the backward recomputes one tile at a time; a recompute that
    # listed every tile before walking them peaked at 40.0 MB here
    params = bc.create_gated(64, expand=4, taps=3, rng=np.random.default_rng(35))
    u = Tensor(np.random.default_rng(36).normal(size=(1, 4096, 64)), requires_grad=True)
    _, peak, _ = traced(lambda: T.sum_all(bc.forward_gated(params, u)).backward())
    assert u.grad.shape == u.shape
    assert peak < 16 * 2**20, peak / 2**20


def test_gated_core_rejects_mixed_dtypes():
    params = bc.create_gated(4, rng=np.random.default_rng(26))
    u = Tensor(np.zeros((5, 4)))
    for name in NAMES:
        swapped = {k: getattr(params, k) for k in NAMES}
        swapped[name] = Tensor(swapped[name].data, dtype=np.float32)
        with pytest.raises(ShapeError):
            bc.forward_gated(bc.GatedBaseConv(**swapped), u)


def test_conv_cache_steps_match_the_core():
    # decode runs the core's tile on the cached last taps - 1 input rows plus the new row
    x = np.random.default_rng(28).normal(size=(9, 5))
    for taps in (1, 2, 4):
        for dtype, rel in ((np.float64, 1e-12), (np.float32, 1e-5)):
            params = random_gated(5, 2, taps, seed=27, dtype=dtype)
            cache = bc.ConvCache(params)
            stepped = np.stack([cache.step(row) for row in x.astype(dtype)])
            want = bc.forward_gated(params, Tensor(x, dtype=dtype)).data
            assert stepped.dtype == dtype, (taps, dtype)
            assert np.abs(stepped - want).max() <= rel * np.abs(want).max(), (taps, dtype)
            assert cache.scalar_count() == (taps - 1) * params.d_model


def test_conv_cache_step_equals_a_one_row_block():
    # the step filters only its new row (T.causal_conv_row_np), a one-row block all its rows (T.causal_conv_np);
    # both read only the min(t, taps - 1) real rows before it, which d_model 64 tells apart from all taps rows
    for d in (5, 64):
        x = np.random.default_rng(29).normal(size=(7, d))
        for taps in (1, 2, 4):
            for dtype in (np.float64, np.float32):
                params = random_gated(d, 2, taps, seed=30 + taps, dtype=dtype)
                cache, twin = bc.ConvCache(params), bc.ConvCache(params)
                for row in x.astype(dtype):
                    twin.rows = cache.rows.copy()
                    got = cache.step(row)
                    assert got.dtype == dtype and np.array_equal(got, twin.block(row[None])[0]), (d, taps, dtype)
                    assert cache.rows.shape == (taps - 1, d) and np.array_equal(cache.rows, twin.rows), (d, taps, dtype)
