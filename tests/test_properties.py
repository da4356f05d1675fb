"""Property tests over config JSON, checkpoint bytes and the mixer cores.

All are derandomized, so every run checks the same examples: a config
either raises ConfigError or resolves to a config that re-parses to itself,
a truncated or bit-flipped checkpoint either loads or raises ConfigError,
the tiled window core agrees with the dense masked reference, the tiled
linear-attention core with its explicit N x N form (on featurized and on
raw Taylor inputs), the tiled gated-conv core with the composed graph, the
parallel, chunked and recurrent views of linear attention with each other
(empty input included), every mixer's batched forward and backward
with its per-sequence slices, and a whole model's batched forward and
token-by-token decode with its per-sequence forward.
"""

import json
import typing
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from basedlab import baseconv as bc
from basedlab import feature_maps as fm
from basedlab import linear_attention as la
from basedlab import model as md
from basedlab import sliding_window as sw
from basedlab import tensor as T
from basedlab.cli import RunConfig, parse_config
from basedlab.errors import ConfigError
from basedlab.tensor import Tensor
from test_baseconv import assert_matches_composed, random_gated
from test_linear_attention import masked_reference
from test_sliding_window import assert_matches_reference

_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=300)

_JUNK = (
    st.none() | st.booleans() | st.integers(-3, 70) | st.floats(-2.0, 100.0) | st.text(max_size=3)
    | st.lists(st.integers(-1, 20), max_size=3) | st.dictionaries(st.text(max_size=2), st.none(), max_size=1)
    | st.sampled_from([float("nan"), float("inf"), 10**400])  # json.dumps writes NaN and Infinity
)
_WORDS = ["CL", "cs", "CLCS", "f32", "f64", "TaylorExp2", "PosELU", "Based", "SlidingWindow", "cosine", "constant"]


def _fitting(tp):
    """Values of annotation `tp`, mostly in range."""
    if tp in (bool, int, float, str, type(None)):
        return {bool: st.booleans(), int: st.integers(0, 12), float: st.floats(0.0, 1.0) | st.integers(0, 2),
                str: st.sampled_from(_WORDS), type(None): st.none()}[tp]
    if typing.get_origin(tp) is tuple:
        return st.lists(st.integers(0, 12), max_size=3)
    return st.one_of(*map(_fitting, typing.get_args(tp)))


def _configs(section, names=()):
    sections = typing.get_type_hints(RunConfig)
    return st.fixed_dictionaries({}, optional={
        **{name: section(cls) for name, cls in sections.items()}, **{name: st.just({}) for name in names}
    })


def _junk_section(cls):
    return _JUNK | st.dictionaries(st.sampled_from([f.name for f in fields(cls)] + ["bogus"]), _JUNK)


# in-range values of the annotated types, or junk anywhere
_CONFIGS = _configs(lambda cls: st.fixed_dictionaries({}, optional={
    key: _fitting(tp) for key, tp in typing.get_type_hints(cls).items()
})) | _configs(_junk_section, names=["bogus"])


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


@_SETTINGS
@given(raw=_CONFIGS, seed=st.none() | st.integers(0, 5))
def test_config_raises_or_reparses_to_itself(scratch, raw, seed):
    path = scratch / "config.json"
    path.write_text(json.dumps(raw))
    try:
        config = parse_config(str(path), seed)
    except ConfigError:
        return
    path.write_text(json.dumps(asdict(config)))
    assert parse_config(str(path)) == config


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    md.save_checkpoint(path, md.build(md.ModelConfig(vocab=9, d_model=16, d_prime=4, window=4, layer_pattern="CLS")))
    return path.read_bytes()


def _damaged(raw: bytes, draw) -> bytes:
    if draw(st.booleans()):
        return raw[:draw(st.integers(0, len(raw) - 1))]
    header = 16 + int.from_bytes(raw[8:16], "little")  # magic, format, length, config JSON
    at = draw(st.integers(0, header - 1) | st.integers(0, len(raw) - 1))
    return raw[:at] + bytes([raw[at] ^ (1 << draw(st.integers(0, 7)))]) + raw[at + 1:]


@_SETTINGS
@given(data=st.data())
def test_damaged_checkpoint_loads_or_raises_config_error(checkpoint, scratch, data):
    path = scratch / "damaged.ckpt"
    path.write_bytes(_damaged(checkpoint, data.draw))
    try:
        model = md.load_checkpoint(path)
    except ConfigError:
        return
    assert isinstance(model, md.HybridModel)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(b=st.integers(1, 2), h=st.integers(1, 3), n=st.integers(0, 200), window=st.integers(1, 210),
       f32=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_window_core_matches_dense_reference(b, h, n, window, f32, seed):
    rng = np.random.default_rng(seed)
    dtype = np.float32 if f32 else np.float64
    arrays = [rng.normal(size=(b, h, n, 4)).astype(dtype) for _ in range(3)]
    assert_matches_reference(arrays, window, rng.normal(size=(b, h, n, 4)), 1e-5 if f32 else 1e-12)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(b=st.integers(1, 3), h=st.integers(1, 3), n=st.integers(0, 200), decay=st.booleans(),
       gamma=st.floats(0.5, 1.0), f32=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_attention_core_matches_masked_reference(b, h, n, decay, gamma, f32, seed):
    dtype = np.float32 if f32 else np.float64
    rng = np.random.default_rng(seed)
    kind = fm.taylor_exp2(4)
    pq, pk = (fm.apply_numpy(kind, rng.normal(size=(b, h, n, 4))) for _ in range(2))
    v = rng.normal(size=(b, h, n, 5))
    gammas = np.linspace(gamma, 1.0, h) if decay else np.ones(h)
    y = la.attention_core(*(Tensor(a, dtype=dtype) for a in (pq, pk, v)), 1e-12, gammas if decay else 1.0).data
    want = masked_reference(pq, pk, v, gammas)
    assert y.dtype == dtype and y.shape == v.shape
    assert np.abs(y - want).max(initial=0.0) <= (1e-5 if f32 else 1e-12) * max(np.abs(want).max(initial=0.0), 1.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(b=st.integers(1, 3), h=st.integers(1, 3), n=st.integers(0, 200), decay=st.booleans(),
       gamma=st.floats(0.5, 1.0), f32=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_raw_core_matches_masked_reference(b, h, n, decay, gamma, f32, seed):
    # raw q, k through the Taylor map inside the core against the featurized N x N form
    dtype = np.float32 if f32 else np.float64
    rng = np.random.default_rng(seed)
    kind = fm.taylor_exp2(4)
    q, k = rng.normal(size=(2, b, h, n, 4))
    v = rng.normal(size=(b, h, n, 5))
    gammas = np.linspace(gamma, 1.0, h) if decay else np.ones(h)
    y = la.attention_core(*(Tensor(a, dtype=dtype) for a in (q, k, v)), 1e-12, gammas if decay else 1.0, kind).data
    want = masked_reference(fm.apply_numpy(kind, q), fm.apply_numpy(kind, k), v, gammas)
    assert y.dtype == dtype and y.shape == v.shape
    assert np.abs(y - want).max(initial=0.0) <= (1e-5 if f32 else 1e-12) * max(np.abs(want).max(initial=0.0), 1.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(b=st.integers(1, 3), n=st.integers(0, 300), taps=st.integers(1, 8), expand=st.integers(1, 3),
       f32=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_gated_core_matches_composed_reference(b, n, taps, expand, f32, seed):
    dtype = np.float32 if f32 else np.float64
    params = random_gated(3, expand, taps, seed, dtype)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(b, n, 3)).astype(dtype)
    assert_matches_composed(params, x, rng.normal(size=x.shape), 1e-5 if f32 else 1e-12)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@example(b=1, heads=2, n=0, chunk=3, decay="mixed", gamma=0.5, f32=True, seed=0)
@given(b=st.integers(1, 2), heads=st.integers(1, 3), n=st.integers(0, 80), chunk=st.integers(1, 80),
       decay=st.sampled_from(["none", "ladder", "mixed"]), gamma=st.floats(0.5, 1.0), f32=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_three_views_agree(b, heads, n, chunk, decay, gamma, f32, seed):
    # criterion 01's agreement over batches, decays (with and without head mixing) and both dtypes
    dtype = np.float32 if f32 else np.float64
    rng = np.random.default_rng(seed)
    d_model = 2 * heads
    config = None
    if decay != "none":
        gammas = np.linspace(gamma, 1.0, heads)
        w_mix = Tensor(rng.normal(size=(d_model, heads)) * 0.5, dtype=dtype) if decay == "mixed" else None
        config = la.DecayConfig(gammas, w_mix)
    params = la.create(d_model=d_model, heads=heads, d_prime=4, decay=config, rng=rng, dtype=dtype)
    u = rng.normal(size=(b, n, d_model)).astype(dtype)
    parallel = la.parallel_forward(params, Tensor(u)).data
    assert parallel.dtype == dtype
    tol = 1e-4 if f32 else 1e-8
    for row, want in zip(u, parallel):
        for view in (la.recurrent_forward(params, row).data, la.chunked_forward(params, row, chunk=chunk).data):
            assert view.dtype == dtype and view.shape == want.shape
            assert np.abs(view - want).max(initial=0.0) <= tol * max(np.abs(want).max(initial=0.0), 1.0)


def _mixer(kind: str, rng: np.random.Generator):
    """(forward, params) of one d_model-4 mixer with O(1) weights."""
    if kind == "conv":
        return bc.forward_gated, random_gated(4, 2, 3, int(rng.integers(2**32)))
    if kind == "window":
        params = sw.create(4, heads=2, window=int(rng.integers(1, 9)), rng=rng)
    else:
        w_mix = Tensor(rng.normal(size=(4, 2))) if kind == "decay_mixed" else None
        decay = la.DecayConfig(la.default_decay_gammas(2), w_mix) if w_mix is not None else None
        params = la.create(d_model=4, heads=2, d_prime=2, decay=decay, rng=rng)
    for t in (params.wq, params.wk, params.wv, params.wo):
        t.data *= 25.0
    return (sw.swa_forward if kind == "window" else la.parallel_forward), params


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(kind=st.sampled_from(["linear", "decay_mixed", "window", "conv"]), b1=st.integers(1, 2),
       b2=st.integers(1, 3), n=st.integers(0, 70), seed=st.integers(0, 2**32 - 1))
def test_leading_dims_match_per_sequence_slices(kind, b1, b2, n, seed):
    # a (B1, B2, N, d) input and each of its (N, d) slices: same output and input gradient
    rng = np.random.default_rng(seed)
    forward, params = _mixer(kind, rng)
    x, weights = rng.normal(size=(2, b1, b2, n, 4))

    def run(u_data, w):
        u = Tensor(u_data, requires_grad=True)
        out = forward(params, u)
        T.sum_all(T.mul(out, Tensor(w))).backward()
        return out.data, u.grad

    whole, dwhole = run(x, weights)
    assert whole.shape == x.shape
    for i, j in np.ndindex(b1, b2):
        part, dpart = run(x[i, j], weights[i, j])
        assert np.abs(whole[i, j] - part).max(initial=0.0) <= 1e-12
        assert np.abs(dwhole[i, j] - dpart).max(initial=0.0) <= 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(pattern=st.text("CLS", min_size=1, max_size=4), heads=st.integers(1, 2), head_dim=st.sampled_from([2, 4]),
       decay=st.sampled_from(["none", "ladder", "mixed"]), mlp=st.booleans(), tied=st.booleans(),
       rotary=st.booleans(), window=st.integers(1, 160), b=st.integers(1, 3), n=st.integers(1, 150),
       f32=st.booleans(), seed=st.integers(0, 2**16))
def test_model_decode_and_batch_match_per_sequence_forward(pattern, heads, head_dim, decay, mlp, tied, rotary,
                                                           window, b, n, f32, seed):
    # one model, three routes to the same logits: batched forward, per-sequence forward, token-by-token decode
    config = md.ModelConfig(vocab=7, d_model=heads * head_dim, heads=heads, d_prime=2, window=window,
                            layer_pattern=pattern, seed=seed, dtype="f32" if f32 else "f64", rotary=rotary,
                            use_decay=decay != "none", head_mixing=decay == "mixed", include_mlp=mlp,
                            tie_embeddings=tied)
    model = md.build(config)
    for p in model.parameters():
        if p.ndim == 2:
            # weights of std 0.2, so attention is far from uniform and rotary moves the logits; at std 0.5
            # f32 forward and f32 decode both drift ~5e-6 from the f64 logits of a CLLL model
            p.data *= 10.0
    tokens = np.random.default_rng(seed).integers(0, 7, size=(b, n))
    dtype, tol = (np.float32, 1e-5) if f32 else (np.float64, 1e-9)
    batched = model.forward(tokens).data
    assert batched.dtype == dtype and batched.shape == (b, n, 7)
    for row, got in zip(tokens, batched):
        want = model.forward(row).data
        decoded = model.decode_logits(row)
        assert decoded.dtype == dtype
        assert np.abs(got - want).max() <= tol * np.abs(want).max()
        assert np.abs(decoded - want).max() <= tol * np.abs(want).max()
