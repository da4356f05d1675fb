"""Linear attention: the three views agree, states count, decay behaves."""

import numpy as np
import pytest

from basedlab import analysis as an
from basedlab import baseconv as bc
from basedlab import feature_maps as fm
from basedlab import linear_attention as la
from basedlab import sliding_window as sw
from basedlab import tensor as T
from basedlab.errors import NumericError, ParameterError, ShapeError
from basedlab.tensor import Tensor, grad_check


def make_params(d_model=24, heads=2, d_prime=4, seed=0, **kw):
    return la.create(d_model=d_model, heads=heads, d_prime=d_prime, rng=np.random.default_rng(seed), **kw)


def split_heads(u, w, heads):
    """u @ w as (..., heads, N, width) heads, through reshape and transpose ops."""
    x = T.matmul(u, w)
    *lead, n, width = x.shape
    k = len(lead)
    return T.transpose(T.reshape(x, (*lead, n, heads, width // heads)), (*range(k), k + 1, k, k + 2))


def merge_heads(y, wo):
    """(..., heads, N, width) heads merged into rows and projected by wo, through transpose and reshape ops."""
    *lead, heads, n, width = y.shape
    k = len(lead)
    return T.matmul(T.reshape(T.transpose(y, (*range(k), k + 1, k, k + 2)), (*lead, n, heads * width)), wo)


def composed_linear(params, u):
    """The reference: the L layer as a graph of matmul, reshape, transpose, softmax and mul ops around its core."""
    q, k, v = (split_heads(u, w, params.heads) for w in (params.wq, params.wk, params.wv))
    y = la.attention_core(q, k, v, la.EPS, 1.0 if params.decay is None else params.decay.gamma, params.kind)
    if params.decay is not None and params.decay.w_mix is not None:
        weights = T.softmax_last(T.matmul(u, params.decay.w_mix))  # (..., N, heads)
        lead = u.ndim - 2
        per_row = T.reshape(T.transpose(weights, (*range(lead), lead + 1, lead)), y.shape[:-1] + (1,))
        y = T.mul(y, T.matmul(per_row, Tensor(np.ones((1, y.shape[-1])), dtype=y.dtype)))  # a ones row spreads each weight exactly
    return merge_heads(y, params.wo)


def layer_grads(forward, params, names, x, weights):
    """forward(params, u) and the gradients of sum(output * weights) in u and the named weights."""
    u = Tensor(x, requires_grad=True)
    tensors = [getattr(params, name) if name != "w_mix" else params.decay.w_mix for name in names]
    for t in tensors:
        t.grad = None
    y = forward(params, u)
    T.sum_all(T.mul(y, Tensor(weights, dtype=y.dtype))).backward()
    return [y.data, u.grad] + [t.grad for t in tensors]


def assert_matches_composed_layer(forward, composed, params, exact, names, x, weights, rel):
    """The fused layer in x's dtype against its composed graph on f64 copies of the weights `exact`:
    the output and the gradients of u and every named weight, each relative to its largest entry,
    floored at 1e-2 of the largest of them all (at N = 1 the normalizer cancels, so the exact
    gradients of wq and wk are zero and only roundoff is left)."""
    got = layer_grads(forward, params, names, x, weights)
    want = layer_grads(composed, exact, names, x.astype(np.float64), weights)
    floor = 1e-2 * max(np.abs(w).max(initial=0.0) for w in want)
    for name, g, w in zip(("y", "u") + names, got, want):
        assert g.dtype == x.dtype and g.shape == w.shape, name
        assert np.abs(g - w).max(initial=0.0) <= rel * max(np.abs(w).max(initial=0.0), floor), name


@pytest.mark.parametrize("dtype, rel", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("n", [1, 6, la.CORE_TILE + 6])
@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("mixed", [False, True])
def test_parallel_forward_matches_the_composed_layer(mixed, batched, n, dtype, rel):
    rng = np.random.default_rng(n + 2 * batched + 4 * mixed)
    decay = la.DecayConfig(la.default_decay_gammas(2), w_mix=T.init_normal(rng, 8, 2, np.float64)) if mixed else None
    params = make_params(d_model=8, heads=2, d_prime=4, seed=25, decay=decay)
    names = ("wq", "wk", "wv", "wo") + (("w_mix",) if mixed else ())
    for t in [getattr(params, name) for name in names[:4]] + ([decay.w_mix] if mixed else []):
        t.data = (rng.normal(size=t.shape) * 0.5).astype(dtype)
    exact = la.LinAttnParams(
        **{name: Tensor(getattr(params, name).data.astype(np.float64), requires_grad=True) for name in names[:4]},
        heads=2, kind=params.kind,
        decay=None if not mixed else la.DecayConfig(decay.gamma, Tensor(decay.w_mix.data.astype(np.float64), requires_grad=True)),
    )
    shape = ((2,) if batched else ()) + (n, 8)
    x, weights = rng.normal(size=shape).astype(dtype), rng.normal(size=shape)
    assert_matches_composed_layer(la.parallel_forward, composed_linear, params, exact, names, x, weights, rel)


def test_first_token_output_is_value():
    # with an empty state the normalizer cancels: y_0 = phi(q).phi(k) v / phi(q).phi(k)
    params = make_params()
    params.wo = Tensor(np.eye(24))  # the output row is then the per-head values, concatenated
    x = np.random.default_rng(1).normal(size=24)
    v = x @ params.wv.data
    y = la.LinAttnState(params).step(x)
    assert np.abs(y - v).max() < 1e-12


def test_identity_map_state_accumulation():
    kind = fm.FeatureMapKind("Identity", 1)
    one = lambda value: Tensor(np.array([[value]]))
    params = la.LinAttnParams(wq=one(1.0), wk=one(2.0), wv=one(3.0), wo=one(1.0), kind=kind, heads=1)
    state = la.LinAttnState(params)
    state.step(np.array([1.0]))  # q = 1, k = 2, v = 3
    assert state.s[0, 0, 0] == 6.0  # phi(k) v = 2 * 3
    assert state.s[0, 0, -1] == 2.0  # z, the last column


def test_constant_keys_and_values_echo_value():
    params = make_params()
    n, d = 10, 24
    u = Tensor(np.tile(np.random.default_rng(2).normal(size=(1, d)), (n, 1)))
    y = la.parallel_forward(params, u)
    assert np.abs(y.data - y.data[0]).max() < 1e-10  # same input row everywhere


@pytest.mark.parametrize("heads,d_prime", [(1, 4), (2, 8), (4, 4)])
def test_three_views_agree(heads, d_prime):
    params = make_params(d_model=32, heads=heads, d_prime=d_prime, seed=heads)
    u = Tensor(np.random.default_rng(3).normal(size=(33, 32)))
    yp = la.parallel_forward(params, u).data
    yr = la.recurrent_forward(params, u).data
    yc = la.chunked_forward(params, u, chunk=8).data
    assert np.abs(yp - yr).max() < 1e-8
    assert np.abs(yp - yc).max() < 1e-8


def test_chunk_edge_cases():
    params = make_params()
    u = Tensor(np.random.default_rng(4).normal(size=(13, 24)))
    yp = la.parallel_forward(params, u).data
    assert np.abs(la.chunked_forward(params, u, chunk=1).data - la.recurrent_forward(params, u).data).max() < 1e-8
    assert np.abs(la.chunked_forward(params, u, chunk=13).data - yp).max() < 1e-8
    assert np.abs(la.chunked_forward(params, u, chunk=50).data - yp).max() < 1e-8  # clamps to n
    with pytest.raises(ParameterError):
        la.chunked_forward(params, u, chunk=0)


@pytest.mark.parametrize("tile", [True, 0, -1, 2.5, "4"])
def test_core_rejects_a_tile_that_is_not_a_positive_integer(tile):
    # tile = -1 left no spans and returned np.empty's memory; 0 raised a bare ValueError from range
    x = Tensor(np.ones((2, 5, 3)))
    with pytest.raises(ParameterError, match="tile must be a positive integer"):
        la.attention_core(x, x, x, 1e-12, tile=tile)
    assert np.array_equal(la.attention_core(x, x, x, 1e-12, tile=np.int64(2)).data, la.attention_core(x, x, x, 1e-12, tile=2).data)


@pytest.mark.parametrize("chunk", [True, False, np.int64(4)], ids=["True", "False", "int64"])
def test_chunk_rejects_bools_and_takes_numpy_integers(chunk):
    params = make_params()
    u = np.random.default_rng(4).normal(size=(13, 24))
    if isinstance(chunk, bool):
        with pytest.raises(ParameterError):
            la.chunked_forward(params, u, chunk=chunk)
    else:
        assert np.array_equal(la.chunked_forward(params, u, chunk=chunk).data, la.chunked_forward(params, u, chunk=4).data)


def test_batched_parallel_forward():
    params = make_params()
    rng = np.random.default_rng(5)
    ub = rng.normal(size=(3, 9, 24))
    yb = la.parallel_forward(params, Tensor(ub)).data
    for b in range(3):
        ys = la.parallel_forward(params, Tensor(ub[b])).data
        assert np.abs(yb[b] - ys).max() < 1e-12


def test_taylor_denominator_grows_with_position():
    # every pairwise kernel value is >= 1/2, so the normalizer is >= (i + 1)/2
    kind = fm.taylor_exp2(6)
    rng = np.random.default_rng(6)
    q = rng.normal(size=(20, 6))
    k = rng.normal(size=(20, 6))
    pq = fm.apply_numpy(kind, q)
    pk = fm.apply_numpy(kind, k)
    den = np.einsum("nf,mf->nm", pq, pk)
    den = np.where(np.tril(np.ones((20, 20))) > 0, den, 0.0).sum(axis=1)
    floor = (np.arange(20) + 1) / 2
    assert (den >= floor - 1e-9).all()


def test_attention_weights_sum_to_one():
    kind = fm.taylor_exp2(6)
    rng = np.random.default_rng(7)
    pq = fm.apply_numpy(kind, rng.normal(size=(15, 6)))
    pk = fm.apply_numpy(kind, rng.normal(size=(15, 6)))
    scores = (pq @ pk.T) * np.tril(np.ones((15, 15)))
    weights = scores / scores.sum(axis=1, keepdims=True)
    assert np.abs(weights.sum(axis=1) - 1.0).max() < 1e-10


def test_rollout_equals_parallel_per_position():
    params = make_params(d_model=16, heads=2, d_prime=8, seed=9)
    u = Tensor(np.random.default_rng(9).normal(size=(64, 16)))
    yp = la.parallel_forward(params, u).data
    yr = la.recurrent_forward(params, u).data
    assert np.abs(yp - yr).max() < 1e-8


@pytest.mark.parametrize("layer", ["L", "S"])
def test_fused_layers_reject_mixed_dtypes_and_widths(layer):
    # an input or a weight of the other dtype must raise, not upcast the layer's output
    rng = np.random.default_rng(26)
    if layer == "L":
        w_mix = T.init_normal(rng, 24, 2, np.float64)
        params, forward = make_params(decay=la.DecayConfig(la.default_decay_gammas(2), w_mix)), la.parallel_forward
        weights = [params.wq, params.wk, params.wv, params.wo, w_mix]
    else:
        params, forward = sw.create(24, 2, 4, rng=rng), sw.swa_forward
        weights = [params.wq, params.wk, params.wv, params.wo]
    u = rng.normal(size=(5, 24))
    with pytest.raises(ShapeError, match="mixed dtypes"):
        forward(params, Tensor(u, dtype=np.float32))
    with pytest.raises(ShapeError):
        forward(params, Tensor(np.ones((5, 7))))
    for w in weights:
        saved = w.data
        w.data = saved.astype(np.float32)
        with pytest.raises(ShapeError, match="mixed dtypes"):
            forward(params, Tensor(u))
        w.data = saved
    assert forward(params, Tensor(u)).dtype == np.float64


@pytest.mark.parametrize("path", ["op", "block", "step"])
@pytest.mark.parametrize("layer", ["L", "S", "C"])
def test_every_path_rejects_a_weight_of_the_other_dtype(layer, path):
    # the layer op, its cache's block and its step each check every weight, not only the first
    rng = np.random.default_rng(27)
    if layer == "L":
        w_mix = T.init_normal(rng, 24, 2, np.float64)
        params, forward, cache = make_params(decay=la.DecayConfig(la.default_decay_gammas(2), w_mix)), la.parallel_forward, la.LinAttnState
        weights = [params.wq, params.wk, params.wv, params.wo, w_mix]
    elif layer == "S":
        params, forward, cache = sw.create(24, 2, 4, rng=rng), sw.swa_forward, sw.WindowCache
        weights = [params.wq, params.wk, params.wv, params.wo]
    else:
        params, forward, cache = bc.create_gated(24, rng=rng), bc.forward_gated, bc.ConvCache
        weights = [params.w1, params.w2, params.w3, params.b1, params.b2, params.b3, params.filt]
    u = rng.normal(size=(5, 24))
    state = cache(params)
    run = {"op": lambda: forward(params, Tensor(u)), "block": lambda: state.block(u), "step": lambda: state.step(u[0])}[path]
    for w in weights:
        saved = w.data
        w.data = saved.astype(np.float32)
        with pytest.raises(ShapeError, match="mixed dtypes"):
            run()
        w.data = saved
    assert run().dtype == np.float64


@pytest.mark.parametrize("tag", [tag for tag in fm.TAGS if tag != "TaylorExp2"])
def test_a_map_given_without_d_prime_works_on_every_path(tag):
    # the layer stores the map with its own d'; the recurrent view and the cache used to raise
    params = la.create(16, 2, 4, kind=fm.FeatureMapKind(tag), rng=np.random.default_rng(28))
    u = np.random.default_rng(28).normal(size=(la.CORE_TILE + 6, 16))
    yp = la.parallel_forward(params, Tensor(u)).data
    for y in (la.recurrent_forward(params, u).data, la.chunked_forward(params, u).data):
        # relative to the largest entry: the Identity map's negative normalizers are floored at EPS
        assert np.abs(y - yp).max() <= 1e-12 * np.abs(yp).max()
    assert la.LinAttnState(params).scalar_count() == 2 * 4 * (8 + 1)
    assert params.kind == fm.FeatureMapKind(tag, 4)


def test_graph_free_views_reject_mixed_dtypes():
    # a float64 input on float32 parameters raises, as parallel_forward does
    params = make_params(dtype=np.float32)
    u = np.random.default_rng(10).normal(size=(5, 24))
    for view in (la.chunked_forward, la.recurrent_forward):
        with pytest.raises(ShapeError, match="mixed dtypes"):
            view(params, u)
        assert view(params, u.astype(np.float32)).dtype == np.float32
    with pytest.raises(ShapeError, match="mixed dtypes"):
        la.parallel_forward(params, Tensor(u))


def test_state_scalar_count():
    params = make_params(d_model=24, heads=2, d_prime=4)
    state = la.LinAttnState(params)
    width = params.feature_width
    assert state.scalar_count() == 2 * (width * 12 + width)


def test_default_decay_gammas():
    g = la.default_decay_gammas(4)
    assert np.allclose(g, [1 - 2**-3, 1 - 2**-4, 1 - 2**-5, 1 - 2**-6])
    assert ((g > 0) & (g < 1)).all()


def test_gamma_one_is_bitwise_no_decay():
    base = make_params(seed=11)
    decayed = make_params(seed=11, decay=la.DecayConfig(np.ones(2)))
    u = Tensor(np.random.default_rng(11).normal(size=(17, 24)))
    assert np.array_equal(la.parallel_forward(base, u).data, la.parallel_forward(decayed, u).data)


def test_decay_views_agree():
    decay = la.DecayConfig(la.default_decay_gammas(2))
    params = make_params(seed=12, decay=decay)
    u = Tensor(np.random.default_rng(12).normal(size=(21, 24)))
    yp = la.parallel_forward(params, u).data
    assert np.abs(yp - la.recurrent_forward(params, u).data).max() < 1e-8
    assert np.abs(yp - la.chunked_forward(params, u, chunk=5).data).max() < 1e-8


def test_decay_shrinks_long_range_influence():
    # a strongly decayed head forgets the first token faster than gamma = 1
    kind = fm.taylor_exp2(4)
    rng = np.random.default_rng(13)
    q = Tensor(rng.normal(size=(1, 1, 30, 4)))
    k = Tensor(rng.normal(size=(1, 1, 30, 4)))
    v = Tensor(rng.normal(size=(1, 1, 30, 8)))
    pq, pk = fm.apply(kind, q), fm.apply(kind, k)
    plain = la.attention_core(pq, pk, v, eps=1e-12, gamma=1.0).data
    fast = la.attention_core(pq, pk, v, eps=1e-12, gamma=0.5).data
    # both start identically; the decayed head output diverges over time
    assert np.abs(plain[..., 0, :] - fast[..., 0, :]).max() < 1e-12
    assert np.abs(plain[..., -1, :] - fast[..., -1, :]).max() > 1e-6


def test_head_mixing_weights_apply_per_head():
    rng = np.random.default_rng(14)
    w_mix = Tensor(rng.normal(size=(24, 2)))
    decay = la.DecayConfig(np.ones(2), w_mix=w_mix)
    params = make_params(seed=14, decay=decay)
    u = Tensor(rng.normal(size=(9, 24)))
    y = la.parallel_forward(params, u).data

    # manual: per-head outputs scaled by softmax(u @ w_mix), concat, wo
    plain = make_params(seed=14)
    logits = u.data @ w_mix.data
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    per_head = la.parallel_forward(plain, u).data  # includes wo; recompute pre-wo instead
    q = (u.data @ plain.wq.data).reshape(9, 2, 4)
    k = (u.data @ plain.wk.data).reshape(9, 2, 4)
    v = (u.data @ plain.wv.data).reshape(9, 2, 12)
    kind = plain.kind
    outs = []
    for h in range(2):
        pq = fm.apply_numpy(kind, q[:, h])
        pk = fm.apply_numpy(kind, k[:, h])
        scores = (pq @ pk.T) * np.tril(np.ones((9, 9)))
        yh = (scores @ v[:, h]) / np.maximum(scores.sum(axis=1), 1e-12)[:, None]
        outs.append(yh * w[:, h][:, None])
    manual = np.concatenate(outs, axis=1) @ plain.wo.data
    assert np.abs(y - manual).max() < 1e-10
    del per_head


def test_gradients_flow_through_parallel_view():
    params = make_params(d_model=8, heads=2, d_prime=4, seed=15)
    u = Tensor(np.random.default_rng(15).normal(size=(6, 8)))
    assert grad_check(lambda t: T.sum_all(la.parallel_forward(params, t)), u) < 1e-6


def test_gradients_with_decay_and_mixing():
    rng = np.random.default_rng(16)
    decay = la.DecayConfig(la.default_decay_gammas(2), w_mix=Tensor(rng.normal(size=(8, 2))))
    params = make_params(d_model=8, heads=2, d_prime=4, seed=16, decay=decay)
    u = Tensor(rng.normal(size=(6, 8)))
    assert grad_check(lambda t: T.sum_all(la.parallel_forward(params, t)), u) < 1e-6


def test_gradient_with_floored_denominator():
    # ReLU features can zero the normalizer; the floor branch must not blow up
    kind = fm.FeatureMapKind("ReLU", 3)
    rng = np.random.default_rng(17)
    pk = fm.apply(kind, Tensor(-np.abs(rng.normal(size=(1, 1, 4, 3)))))  # all zeros
    v = Tensor(rng.normal(size=(1, 1, 4, 5)))

    def f(t):
        pq = fm.apply(kind, t)
        return T.sum_all(la.attention_core(pq, pk, v, eps=1e-12))

    assert grad_check(f, Tensor(np.abs(rng.normal(size=(1, 1, 4, 3))))) < 1e-6


@pytest.mark.parametrize(
    "n,chunk,decay,dtype",
    [(16, 4, False, np.float64), (16, 5, False, np.float64), (16, 7, False, np.float64), (0, 4, False, np.float64),
     (16, 5, True, np.float64), (16, 7, False, np.float32)],
    ids=["divides", "chunk5", "chunk7", "empty", "decay-mixed", "f32"],
)
def test_counter_totals(n, chunk, decay, dtype):
    # the counters are the production core's: they equal the closed form at any chunk, decay or dtype
    rng = np.random.default_rng(18)
    mixed = la.DecayConfig(la.default_decay_gammas(2), w_mix=Tensor(rng.normal(size=(24, 2)), dtype=dtype))
    params = make_params(d_model=24, heads=2, d_prime=4, decay=mixed if decay else None, dtype=dtype)
    u = Tensor(rng.normal(size=(n, 24)), dtype=dtype)
    run = an.tiled_reference_run(params, u, chunk=chunk)
    assert run["counters"] == run["closed_form"]
    assert run["counters"]["q_read"] == run["counters"]["k_read"] == 2 * n * 4
    assert run["counters"]["v_read"] == run["counters"]["y_write"] == 2 * n * 12
    y, want = run["output"].data, la.parallel_forward(params, u).data
    assert y.dtype == dtype and y.shape == (n, 24)
    if dtype == np.float64:
        assert np.abs(y - want).max(initial=0.0) < 1e-8
    else:
        assert np.abs(y - want).max(initial=0.0) <= 1e-4 * np.abs(want).max(initial=0.0)


def test_graph_free_chunked_forward_keeps_no_backward_state(traced):
    # Kept for a backward, each of the 256 tiles' F x (d + 1) states would take the peak near 30 MB.
    params = make_params(d_model=64, heads=1, d_prime=16)
    u = np.random.default_rng(24).normal(size=(4096, 64))
    _, peak, _ = traced(an.tiled_reference_run, params, u, chunk=16)
    assert peak < 16 * 2**20


def test_validation_errors():
    rng = np.random.default_rng(19)
    with pytest.raises(ParameterError):
        la.DecayConfig(np.array([0.0, 0.5]))
    with pytest.raises(ParameterError):
        la.DecayConfig(np.array([1.5]))
    with pytest.raises(ShapeError):
        la.create(d_model=10, heads=3, d_prime=4, rng=rng)  # heads must divide widths
    params = make_params()
    with pytest.raises(ShapeError):
        la.parallel_forward(params, Tensor(np.ones((4, 7))))
    with pytest.raises(ParameterError):
        make_params(decay=la.DecayConfig(np.array([0.9])))  # one gamma for two heads
    weights = dict(wq=params.wq, wk=params.wk, wv=params.wv, wo=params.wo, kind=params.kind)
    with pytest.raises(ParameterError, match="heads must be a positive integer"):  # was a later TypeError
        la.LinAttnParams(**weights, heads=2.0)
    with pytest.raises(ParameterError, match="must be two integers"):  # numpy's TypeError from the init draw
        la.create(24, 2.0, 4)
    with pytest.raises(ShapeError, match="d_prime 8"):  # parallel_forward ran; recurrent and decode hit a broadcast error
        la.create(8, 2, 4, kind=fm.FeatureMapKind("ReLU", 8))
    with pytest.raises(ShapeError, match="wo"):  # was accepted, and the views returned 25-wide rows
        la.LinAttnParams(**{**weights, "wo": Tensor(np.ones((24, 25)))}, heads=2)
    # three mixing weights for two heads made the decode step raise numpy's broadcast error, and
    # an f32 w_mix in an f64 layer decoded with mixed dtypes while prefill raised
    for w_mix in (Tensor(np.ones((24, 3))), Tensor(np.ones((24, 2)), dtype=np.float32)):
        with pytest.raises(ShapeError, match="w_mix"):
            la.LinAttnParams(**weights, heads=2, decay=la.DecayConfig(la.default_decay_gammas(2), w_mix))
    batched = np.ones((2, 5, 24))  # the graph-free views take one (N, d_model) sequence
    with pytest.raises(ShapeError, match=r"chunked_forward: expected an \(N, 24\) input, got \(2, 5, 24\)"):
        la.chunked_forward(params, batched)
    with pytest.raises(ShapeError, match=r"recurrent_forward: expected an \(N, 24\) input, got \(2, 5, 24\)"):
        la.recurrent_forward(params, batched)
    for view in (la.chunked_forward, la.recurrent_forward):
        with pytest.raises(ShapeError, match="expected an"):
            view(params, np.ones((5, 7)))


def masked_reference(pq, pk, v, gammas, eps=1e-12):
    """Explicit N x N form: weights phi(q_i).phi(k_j) gamma_h^(i-j) for j <= i."""
    n = pq.shape[-2]
    i = np.arange(n)
    expo = i[:, None] - i[None, :]
    decay = np.where(expo >= 0, np.asarray(gammas)[:, None, None] ** np.maximum(expo, 0), 0.0)
    scores = (pq @ np.swapaxes(pk, -1, -2)) * decay
    return (scores @ v) / np.maximum(scores.sum(axis=-1), eps)[..., None]


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 200])
def test_tiled_core_matches_masked_reference(n):
    # tile edges: empty, one position, one short of a tile, exactly one, one past, several padded
    kind = fm.taylor_exp2(4)
    rng = np.random.default_rng(20 + n)
    gammas = la.default_decay_gammas(3)
    pq = fm.apply_numpy(kind, rng.normal(size=(2, 3, n, 4)))
    pk = fm.apply_numpy(kind, rng.normal(size=(2, 3, n, 4)))
    v = rng.normal(size=(2, 3, n, 5))
    y = la.attention_core(Tensor(pq), Tensor(pk), Tensor(v), 1e-12, gammas).data
    assert y.shape == v.shape
    assert np.abs(y - masked_reference(pq, pk, v, gammas)).max(initial=0.0) < 1e-12
    plain = la.attention_core(Tensor(pq), Tensor(pk), Tensor(v), 1e-12).data
    assert np.abs(plain - masked_reference(pq, pk, v, np.ones(3))).max(initial=0.0) < 1e-12


def test_tiled_core_rejects_gamma_per_head_mismatch():
    x = Tensor(np.ones((1, 2, 5, 3)))
    with pytest.raises(ShapeError):
        la.attention_core(x, x, x, 1e-12, np.array([0.5, 0.5, 0.5]))


def test_gradients_across_padded_tiles_with_decay_and_mixing():
    # N = 70 runs two tiles, the second padded by 58 positions
    rng = np.random.default_rng(21)
    decay = la.DecayConfig(la.default_decay_gammas(2), w_mix=Tensor(rng.normal(size=(8, 2))))
    params = make_params(d_model=8, heads=2, d_prime=4, seed=21, decay=decay)
    u = Tensor(rng.normal(size=(la.CORE_TILE + 6, 8)))
    assert grad_check(lambda t: T.sum_all(la.parallel_forward(params, t)), u) < 1e-6


def test_tiled_core_keeps_f32():
    kind = fm.taylor_exp2(4)
    rng = np.random.default_rng(22)
    q = Tensor(rng.normal(size=(1, 2, 70, 4)), requires_grad=True, dtype=np.float32)
    k = Tensor(rng.normal(size=(1, 2, 70, 4)), requires_grad=True, dtype=np.float32)
    v = Tensor(rng.normal(size=(1, 2, 70, 6)), requires_grad=True, dtype=np.float32)
    y = la.attention_core(fm.apply(kind, q), fm.apply(kind, k), v, 1e-12, la.default_decay_gammas(2))
    assert y.dtype == np.float32
    T.sum_all(y).backward()
    assert q.grad.dtype == k.grad.dtype == v.grad.dtype == np.float32


def test_tiled_core_memory_stays_per_tile(traced):
    # The forward holds nt tiles of F x (d + 1) state and N x tile scores; an
    # N x F x d running state would take 320 MB at this shape.
    rng = np.random.default_rng(23)
    n, width, d = 4096, fm.unique_dim(16), 64
    pq = Tensor(np.abs(rng.normal(size=(1, 1, n, width))))
    pk = Tensor(np.abs(rng.normal(size=(1, 1, n, width))))
    v = Tensor(rng.normal(size=(1, 1, n, d)))
    _, peak, _ = traced(la.attention_core, pq, pk, v, 1e-12)
    assert peak < 64 * 2**20


@pytest.mark.parametrize("n", [1, la.CORE_TILE, la.CORE_TILE + 1, 3 * la.CORE_TILE + 5])
def test_taylor_layer_featurizes_at_most_one_tile_per_call(monkeypatch, n):
    # intra-tile scores come from raw q.k; phi is formed per tile, only for the carried state
    rows = []

    def recording(x, _original=fm.taylor_compact):
        rows.append(x.shape[-2])
        return _original(x)

    monkeypatch.setattr(fm, "taylor_compact", recording)
    monkeypatch.setattr(fm, "apply", None)  # the layer featurizes nothing through the graph op
    params = make_params(d_model=8, heads=2, d_prime=4, seed=24, decay=la.DecayConfig(la.default_decay_gammas(2)))
    u = Tensor(np.random.default_rng(24).normal(size=(2, n, 8)), requires_grad=True)
    T.sum_all(la.parallel_forward(params, u)).backward()
    assert u.grad is not None
    if n <= la.CORE_TILE:
        assert rows == []
    else:
        assert rows and max(rows) <= la.CORE_TILE


def test_core_checks_raw_inputs():
    kind = fm.taylor_exp2(4)
    q, v = np.ones((1, 2, 5, 4)), Tensor(np.ones((1, 2, 5, 3)))
    for bad in (np.nan, np.inf):
        k = q.copy()
        k[0, 1, 3, 2] = bad
        with pytest.raises(NumericError, match="TaylorExp2: non-finite input"):
            la.attention_core(Tensor(q), Tensor(k), v, 1e-12, 1.0, kind)
        with pytest.raises(NumericError, match="TaylorExp2: non-finite input"):
            la.attention_core(Tensor(k), Tensor(q), v, 1e-12, 1.0, kind)
    with pytest.raises(ShapeError, match="TaylorExp2 expects width 4"):
        la.attention_core(Tensor(q[..., :3]), Tensor(q[..., :3]), v, 1e-12, 1.0, kind)
    params = make_params()
    params.wk.data[0, 0] = np.nan
    with pytest.raises(NumericError, match="TaylorExp2: non-finite input"):
        la.parallel_forward(params, Tensor(np.ones((3, 24))))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("decayed", [False, True])
def test_one_row_fold_equals_the_general_product_bit_for_bit(decayed, dtype):
    rng = np.random.default_rng(21)
    state = rng.normal(size=(2, 7, 5)).astype(dtype)
    keys = rng.normal(size=(2, 1, 7)).astype(dtype)
    v1 = rng.normal(size=(2, 1, 5)).astype(dtype)
    decay = rng.uniform(0.5, 1.0, (2, 1, 1)).astype(dtype) if decayed else None
    want = np.add(state if decay is None else decay * state, np.swapaxes(keys, -1, -2) @ v1)
    got = la._fold(state, decay, keys, v1)
    assert got.dtype == dtype and np.array_equal(got, want)
    la._fold(state, decay, keys, v1, out=state)
    assert np.array_equal(state, want)
