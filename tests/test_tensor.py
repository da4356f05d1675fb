"""Reverse-mode core: op oracles, gradient audits, and graph behavior."""

import threading
import zlib

import numpy as np
import pytest

from basedlab import feature_maps as fm
from basedlab import tensor as T
from basedlab.errors import ParameterError, ShapeError
from basedlab.tensor import Tensor, grad_check
from test_linear_attention import merge_heads, split_heads


def test_matmul_value():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(T.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_elementwise_values():
    x = Tensor([-1.0, 0.0, 2.0])
    assert T.silu(x).data[1] == 0.0
    s = T.sigmoid_np(np.array([0.0, 800.0, -800.0]))
    assert s[0] == 0.5 and s[1] == 1.0 and s[2] == 0.0


def test_sigmoid_matches_exp_form():
    # 0.5 + 0.5 tanh(x / 2) against the two-branch exp form, within two ulps of 1
    x = np.linspace(-40.0, 40.0, 160001)
    ex = np.exp(-np.abs(x))
    want = np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))
    assert np.abs(T.sigmoid_np(x) - want).max() <= 4.4e-16
    s32 = T.sigmoid_np(np.array([-1e4, -1.0, 0.0, 1.0, 1e4], dtype=np.float32))
    assert s32.dtype == np.float32 and np.isfinite(s32).all()
    assert s32[0] == 0.0 and s32[2] == 0.5 and s32[4] == 1.0


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(5, 7)) * 30)
    out = T.softmax_last(x).data
    assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-12)
    assert (out > 0).all()


def test_causal_conv_small_oracle():
    # y_t = f0 u_t + f1 u_{t-1} on u = (1, 2, 3)
    u = Tensor(np.array([[1.0], [2.0], [3.0]]))
    f = Tensor(np.array([[1.0], [1.0]]))
    assert np.array_equal(T.causal_conv1d(u, f).data, [[1.0], [3.0], [5.0]])


def test_causal_conv_filter_longer_than_sequence():
    u = Tensor(np.array([[2.0]]))
    f = Tensor(np.array([[3.0], [5.0], [7.0]]))
    assert np.array_equal(T.causal_conv1d(u, f).data, [[6.0]])


def test_causal_conv_rejects_empty_filter():
    u = Tensor(np.ones((4, 2)))
    with pytest.raises(ParameterError):
        T.causal_conv1d(u, Tensor(np.ones((0, 2))))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_row_kernels_equal_their_block_kernels(dtype):
    # decode's one-row forms, pinned bit for bit to the kernels the forward runs
    rng = np.random.default_rng(40)
    x, w = rng.normal(size=(5, 300)).astype(dtype), rng.normal(size=300).astype(dtype)
    for d in (1, 2, 7, 8, 9, 16, 64, 127, 128, 129, 300):
        want = T.rms_np(x[:, :d], 1e-6)[0] * w[:d]
        for row, expected in zip(x[:, :d], want):
            got = T.rms_row_np(row, w[:d], 1e-6)
            assert got.dtype == dtype and np.array_equal(got, expected), d
    for taps in (1, 2, 3, 5):
        filt, rows = rng.normal(size=(taps, 33)).astype(dtype), rng.normal(size=(taps, 33)).astype(dtype)
        for m in range(1, taps + 1):  # fewer rows than taps: a decode step's first taps - 1 rows
            got = T.causal_conv_row_np(filt, rows[:m])
            assert got.dtype == dtype and np.array_equal(got, T.causal_conv_np(filt, rows[:m])[-1]), (taps, m)


def test_rms_norm_oracle():
    x = np.array([[3.0, 4.0]])
    r = np.sqrt((9.0 + 16.0) / 2.0 + 1e-6)
    xhat, got_r = T.rms_np(x, 1e-6)
    assert np.allclose(xhat, [[3.0 / r, 4.0 / r]]) and np.allclose(got_r, [[r]])
    assert np.array_equal(T.rms_row_np(x[0], np.ones(2), 1e-6), xhat[0])


def test_rotary_position_zero_is_identity():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 4))
    assert np.array_equal(T.rotary_from(x, 0), x)


def test_rotary_preserves_norm():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 8))
    for start in (0, 1000):
        assert np.allclose(np.linalg.norm(T.rotary_from(x, start), axis=-1), np.linalg.norm(x, axis=-1))


def _rotary_reference(x, positions, base=10000.0):
    # the pair formula in float64: (a cos - b sin, a sin + b cos) per pair (a, b)
    d = x.shape[-1]
    theta = np.asarray(positions, dtype=np.float64)[..., None] * base ** (-2.0 * np.arange(d // 2) / d)
    a, b = x[..., 0::2].astype(np.float64), x[..., 1::2].astype(np.float64)
    out = np.empty(x.shape, np.float64)
    out[..., 0::2] = a * np.cos(theta) - b * np.sin(theta)
    out[..., 1::2] = a * np.sin(theta) + b * np.cos(theta)
    return out


def test_rotary_pair_formula():
    rng = np.random.default_rng(5)
    positions = np.array([0, 1, 4095, 10**5])
    for dtype, tol in ((np.float64, 1e-15), (np.float32, 1e-6)):
        x = rng.normal(size=(2, 4096, 8)).astype(dtype)
        table = T.rotary_from(x, 0)  # positions 0..4095 through the cached table
        rows = T.rotary_np(x[:, :4], positions)  # the given positions only
        assert table.dtype == dtype and rows.dtype == dtype
        for got, want, scale in ((table, _rotary_reference(x, np.arange(4096)), x),
                                 (rows, _rotary_reference(x[:, :4], positions), x[:, :4])):
            norm = np.linalg.norm(scale.astype(np.float64), axis=-1, keepdims=True)
            assert np.all(np.abs(got - want) <= tol * norm)


def test_rotary_inverse_undoes_forward():
    # the backward is the inverse rotation: rotary_from_vjp(., start) turns rotary_from(x, start) back into x
    rng = np.random.default_rng(6)
    for dtype, tol in ((np.float64, 1e-15), (np.float32, 1e-6)):
        x = rng.normal(size=(3, 50, 6)).astype(dtype)
        for start in (0, 70):
            back = T.rotary_from_vjp(T.rotary_from(x, start), start)
            assert back.dtype == dtype
            assert np.abs(back - x).max() <= tol * np.abs(x).max()


def test_rotary_reads_non_contiguous_input():
    x = np.random.default_rng(7).normal(size=(6, 9))
    for view in (x.T, x[:, :8][::2]):
        assert not view.flags.c_contiguous
        positions = np.arange(view.shape[0])
        assert np.array_equal(T.rotary_np(view, positions), T.rotary_np(view.copy(), positions))


def test_rotary_rejects_odd_width():
    with pytest.raises(ShapeError):
        T.rotary_np(np.ones((2, 3)), np.arange(2))
    with pytest.raises(ShapeError):
        T.rotary_np(np.float64(1.0), 0)
    for rotate in (T.rotary_from, T.rotary_from_vjp):
        with pytest.raises(ShapeError):
            rotate(np.ones((2, 3)), 0)


def test_cross_entropy_masked_oracle():
    logits = Tensor(np.log(np.array([[0.25, 0.75], [0.5, 0.5]])))
    targets = np.array([1, -1])
    mask = np.array([True, False])
    loss = T.cross_entropy_masked(logits, targets, mask)
    assert np.isclose(loss.item(), -np.log(0.75))


def test_cross_entropy_rejects_bad_targets():
    logits = Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        T.cross_entropy_masked(logits, np.array([3, 0]), np.array([True, False]))
    with pytest.raises(ParameterError):
        T.cross_entropy_masked(logits, np.array([0, 0]), np.array([False, False]))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("n", [0, 1, 7])
def test_heads_rows_match_graph(dtype, heads, n):
    # q and k 3 wide per head, v and the merged heads d_model = 4 * heads wide
    rng = np.random.default_rng(heads * 10 + n)
    d = 4 * heads
    shell = T.Heads.draw(rng, d, 3 * heads, dtype, heads=heads)
    un = rng.normal(size=(n, d)).astype(dtype)
    rows = shell.project_rows(un)
    graph = [split_heads(Tensor(un), w, heads) for w in (shell.wq, shell.wk, shell.wv)]
    for a, t in zip(rows, graph):
        assert a.dtype == dtype and a.shape == t.shape and np.array_equal(a, t.data)
    if n:  # a decode step's single row is the N = 1 case
        for a, w in zip(shell.project_rows(un[0]), (shell.wq, shell.wk, shell.wv)):
            t = split_heads(Tensor(un[:1]), w, heads)
            assert a.shape == t.shape and np.array_equal(a, t.data)
    y = rng.normal(size=(heads, n, shell.head_dim)).astype(dtype)
    merged = shell.merge_rows(y)
    assert merged.dtype == dtype and merged.shape == (n, d)
    assert np.array_equal(merged, merge_heads(Tensor(y), shell.wo).data)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("lead", [(), (2,)])
def test_heads_vjps_match_the_graph(lead, dtype):
    # the backward of project_rows and merge_rows against the gradients of the same graph ops
    rng = np.random.default_rng(len(lead))
    shell = T.Heads.draw(rng, 8, 6, dtype, heads=2)
    un = rng.normal(size=lead + (5, 8)).astype(dtype)
    grads = [rng.normal(size=a.shape).astype(dtype) for a in shell.project_rows(un)]
    y = rng.normal(size=lead + (2, 5, 4)).astype(dtype)
    g = rng.normal(size=lead + (5, 8)).astype(dtype)

    def graph_grads():
        u, yt = Tensor(un, requires_grad=True), Tensor(y, requires_grad=True)
        terms = [T.sum_all(T.mul(split_heads(u, w, 2), Tensor(gw))) for w, gw in zip((shell.wq, shell.wk, shell.wv), grads)]
        terms.append(T.sum_all(T.mul(merge_heads(yt, shell.wo), Tensor(g))))
        loss = terms[0]
        for term in terms[1:]:
            loss = T.add(loss, term)
        loss.backward()
        return [u.grad, yt.grad] + [w.grad for w in (shell.wq, shell.wk, shell.wv, shell.wo)]

    want = graph_grads()
    for w in (shell.wq, shell.wk, shell.wv, shell.wo):
        w.grad = None
    got = [shell.project_rows_vjp(un, grads), shell.merge_rows_vjp(y, g)] + [w.grad for w in (shell.wq, shell.wk, shell.wv, shell.wo)]
    for a, b in zip(got, want):
        assert a.dtype == dtype and a.shape == b.shape
        assert np.allclose(a, b, rtol=1e-5 if dtype == np.float32 else 1e-12, atol=0)


def test_heads_validation():
    w = lambda *shape: Tensor(np.ones(shape))
    good = dict(wq=w(4, 6), wk=w(4, 6), wv=w(4, 4), wo=w(4, 4))
    for heads in (0, 2.0, True):
        with pytest.raises(ParameterError, match="heads must be a positive integer"):
            T.Heads(**good, heads=heads)
    for name, t in (("wq", w(4)), ("wk", w(4, 6, 1)), ("wv", w(4)), ("wo", w(16))):
        with pytest.raises(ShapeError, match=f"{name} must be 2-D"):
            T.Heads(**{**good, name: t}, heads=2)
    with pytest.raises(ShapeError, match="wo must be 2-D in wq's dtype float64"):  # decode upcast it silently
        T.Heads(**{**good, "wo": Tensor(np.ones((4, 4)), dtype=np.float32)}, heads=2)
    for bad in (dict(wk=w(4, 8)), dict(wv=w(5, 4)), dict(wo=w(4, 5)), dict(wo=w(6, 4))):
        with pytest.raises(ShapeError):
            T.Heads(**{**good, **bad}, heads=2)
    with pytest.raises(ShapeError, match="divide evenly"):
        T.Heads(**good, heads=4)  # q and k 6 wide
    with pytest.raises(ShapeError, match="does not match d_model"):
        T.check_rows(w(3, 5), T.Heads(**good, heads=2), "check")


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        T.silu(x).backward()


def test_reuse_accumulates():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = T.sum_all(T.mul(x, x))  # d(x*x)/dx = 2x
    y.backward()
    assert np.allclose(x.grad, [4.0])


def test_no_grad_nests_and_restores_the_mode_after_an_exception():
    x = Tensor(np.ones(2), requires_grad=True)
    assert T.recording(x) and not T.recording(Tensor(np.ones(2)))
    with T.no_grad():
        y = T.add(x, x)
        assert not y.requires_grad and y._parents == () and y._backward is None
        with T.no_grad():
            assert not T.recording(x)
        assert not T.recording(x)
        with T.enable_grad():
            assert T.add(x, x).requires_grad
        assert not T.recording(x)
    assert T.add(x, x).requires_grad
    with pytest.raises(RuntimeError):
        with T.no_grad():
            with T.enable_grad():
                raise RuntimeError
    assert T.recording(x)


def test_grad_mode_is_per_thread():
    # a no_grad() held on one thread leaves every other thread recording
    x = Tensor(np.ones(2), requires_grad=True)
    held, seen = threading.Event(), []

    def other():
        held.wait()
        seen.append((T.recording(x), T.add(x, x).requires_grad))
        with T.no_grad():
            seen.append(T.recording(x))

    thread = threading.Thread(target=other)
    thread.start()
    with T.no_grad():
        held.set()
        thread.join()
        assert not T.recording(x)
    assert seen == [(True, True), False] and T.recording(x)


def test_backprop_seeds_an_output_of_any_shape():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = T.mul(x, x)
    T.backprop(y, np.array([3.0, 5.0]))
    assert np.array_equal(x.grad, [6.0, 20.0])
    with pytest.raises(ShapeError):
        T.backprop(y, np.ones(3))


def test_backprop_on_a_leaf_adds_a_copy_of_the_seed():
    # a leaf output took the seed array itself, so two calls left g, not 2g, and x.grad aliased g
    g = np.array([1.0, -2.0, 3.0])
    x = Tensor(np.ones(3), requires_grad=True)
    T.backprop(x, g)
    T.backprop(x, g)
    through = Tensor(np.ones(3), requires_grad=True)
    y = T.mul(through, Tensor(np.ones(3)))
    T.backprop(y, g)
    T.backprop(y, g)
    assert np.array_equal(x.grad, 2 * g) and np.array_equal(through.grad, 2 * g)
    assert not np.shares_memory(x.grad, g)
    fresh = Tensor(np.ones(3), requires_grad=True)
    T.backprop(fresh, g)
    g *= 5.0
    assert np.array_equal(fresh.grad, [1.0, -2.0, 3.0])
    constant = Tensor(np.ones(3))
    T.backprop(constant, g)
    assert constant.grad is None


def test_backprop_rejects_a_seed_that_is_not_an_array_of_the_outputs_dtype():
    for dtype, other in ((np.float64, np.float32), (np.float32, np.float64)):
        x = Tensor(np.ones((3, 2)), requires_grad=True, dtype=dtype)
        y = T.mul(x, x)
        with pytest.raises(ShapeError, match="list"):
            T.backprop(y, [[1, 1], [1, 1], [1, 1]])
        with pytest.raises(ShapeError, match="mixed dtypes"):
            T.backprop(y, np.ones((3, 2), dtype=other))
        assert x.grad is None


def test_backprop_leaves_gradients_only_on_leaves():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    w = Tensor(np.array([3.0, -1.0]), requires_grad=True)
    loss = T.sum_all(T.silu(T.mul(T.mul(x, w), x)))
    loss.backward()
    inner = [node for node in T.Graph.from_output(loss).nodes if node._backward is not None]
    assert len(inner) == 4 and all(node.grad is None for node in inner)
    assert x.grad is not None and w.grad is not None


def test_second_backward_adds_the_same_gradient_again():
    # the inner nodes restart from no gradient, so each leaf gets g again, not a multiple growing with depth
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    loss = T.sum_all(T.silu(T.matmul(T.silu(T.matmul(x, w)), w)))
    loss.backward()
    first = x.grad.copy(), w.grad.copy()
    loss.backward()
    for got, want in zip((x.grad, w.grad), first):
        np.testing.assert_allclose(got, 2 * want, rtol=1e-13)


def test_mismatched_shapes_raise():
    with pytest.raises(ShapeError):
        T.mul(Tensor(np.ones(3)), Tensor(np.ones(4)))
    with pytest.raises(ShapeError):
        T.add(Tensor(np.ones((4, 3))), Tensor(np.ones(3)))  # no bias-vector broadcast
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


def test_float32_ops_stay_float32():
    x = Tensor(np.ones((2, 2), dtype=np.float32), dtype=np.float32)
    y = T.softmax_last(T.matmul(x, x))
    assert y.data.dtype == np.float32


def rms_norm(x, w):
    # the model's RMS norm, `T.rms_np` times w, as a graph op whose backward is `T.rms_vjp`
    xhat, r = T.rms_np(x.data, 1e-6)
    return T.from_op(xhat * w.data, (x, w), lambda g: T.accumulate(x, T.rms_vjp(g, xhat, r, w)))


def rotary(x, start):
    # `T.rotary_from` as a graph op whose backward is `T.rotary_from_vjp`
    return T.from_op(T.rotary_from(x.data, start), (x,), lambda g: T.accumulate(x, T.rotary_from_vjp(g, start)))


def feature_map_case(tag):
    kind = fm.FeatureMapKind(tag, 4)
    return lambda t: T.sum_all(T.mul(fm.apply(kind, t), Tensor(np.arange(1.0, 13.0).reshape(3, 4))))


GRAD_CASES = {
    "add_bias": lambda t: T.sum_all(T.mul(T.add(t, Tensor(np.arange(12.0).reshape(3, 4))), Tensor(np.arange(1.0, 13.0).reshape(3, 4)))),
    "mul": lambda t: T.sum_all(T.mul(t, Tensor(np.arange(1.0, 13.0).reshape(3, 4)))),
    "matmul": lambda t: T.sum_all(T.matmul(t, Tensor(np.arange(8.0).reshape(4, 2)))),
    "relu": feature_map_case("ReLU"),
    "silu": lambda t: T.sum_all(T.silu(t)),
    "pos_elu": feature_map_case("PosELU"),
    "square": feature_map_case("Square"),
    "identity": feature_map_case("Identity"),
    "softmax": lambda t: T.sum_all(T.mul(T.softmax_last(t), Tensor(np.arange(12.0).reshape(3, 4)))),
    "reshape_transpose": lambda t: T.sum_all(T.mul(T.transpose(T.reshape(t, (4, 3)), (1, 0)), Tensor(np.arange(12.0).reshape(3, 4)))),
    "rms_norm": lambda t: T.sum_all(T.mul(rms_norm(t, Tensor(np.arange(1.0, 5.0))), Tensor(np.arange(12.0).reshape(3, 4)))),
    "rotary": lambda t: T.sum_all(T.mul(rotary(t, 3), Tensor(np.arange(12.0).reshape(3, 4)))),
    "conv": lambda t: T.sum_all(T.causal_conv1d(t, Tensor(np.array([[1.0, -0.5, 0.2, 0.9], [0.3, 0.7, -1.1, 0.4]])))),
}


@pytest.mark.parametrize("name", sorted(GRAD_CASES))
def test_gradients_match_finite_differences(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))  # stable across processes, unlike hash()
    x = Tensor(rng.normal(size=(3, 4)) + 0.05)
    assert grad_check(GRAD_CASES[name], x) < 1e-6


def test_filter_gradient_of_conv():
    rng = np.random.default_rng(9)
    u = Tensor(rng.normal(size=(5, 2)))

    def f(filt):
        return T.sum_all(T.mul(T.causal_conv1d(u, filt), Tensor(rng.standard_normal((5, 2)) * 0 + 1.0)))

    assert grad_check(f, Tensor(rng.normal(size=(3, 2)))) < 1e-6


@pytest.mark.parametrize("shape", [(2, 3, 2), (2, 0, 2)])
def test_conv_gradients_with_more_taps_than_rows(shape):
    """Five taps over N = 3 rows, and over an empty (B, 0, C) input, whose
    backward must still reshape by its leading size."""
    rng = np.random.default_rng(11)
    u = rng.normal(size=shape)
    filt = Tensor(rng.normal(size=(5, 2)))
    weights = Tensor(rng.normal(size=shape))
    assert grad_check(lambda f: T.sum_all(T.mul(T.causal_conv1d(Tensor(u), f), weights)), filt) < 1e-6
    if u.size:
        assert grad_check(lambda t: T.sum_all(T.mul(T.causal_conv1d(t, filt), weights)), Tensor(u)) < 1e-6


def test_cross_entropy_gradient():
    rng = np.random.default_rng(10)
    targets = np.array([[1, 2, 0]])
    mask = np.array([[True, False, True]])

    def f(t):
        return T.cross_entropy_masked(t, targets, mask)

    assert grad_check(f, Tensor(rng.normal(size=(1, 3, 4)))) < 1e-6


def test_backward_is_deterministic():
    rng = np.random.default_rng(11)
    data = rng.normal(size=(4, 4))
    grads = []
    for _ in range(2):
        x = Tensor(data, requires_grad=True)
        T.sum_all(T.softmax_last(T.matmul(x, x))).backward()
        grads.append(x.grad.copy())
    assert np.array_equal(grads[0], grads[1])
