"""Hybrid stacks: wiring, training loop behavior, checkpoints, decode paths."""

import hashlib
import itertools
import math
import struct
import threading

import numpy as np
import pytest

from basedlab import analysis as an
from basedlab import baseconv as bc
from basedlab import feature_maps as fm
from basedlab import linear_attention as la
from basedlab import model as md
from basedlab import mqar as mq
from basedlab import sliding_window as sw
from basedlab import tensor as T
from basedlab.errors import ConfigError, InputError, NumericError, ParameterError, ShapeError, TrainingDiverged


def tiny_config(**kw):
    base = dict(vocab=12, d_model=16, heads=2, d_prime=4, window=4, layer_pattern="CL", seed=0)
    base.update(kw)
    return md.ModelConfig(**base)


def test_config_normalizes_pattern():
    cfg = tiny_config(layer_pattern="cl cs")
    assert cfg.layer_pattern == "CLCS"


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_config(vocab=1)
    with pytest.raises(ConfigError):
        tiny_config(d_model=10, heads=3)
    with pytest.raises(ConfigError):
        tiny_config(layer_pattern="CLX")
    with pytest.raises(ConfigError):
        tiny_config(layer_pattern="")
    with pytest.raises(ConfigError):
        tiny_config(dtype="f16")
    with pytest.raises(ConfigError):
        tiny_config(feature_map="Fourier")
    with pytest.raises(ConfigError):
        tiny_config(head_mixing=True)  # requires use_decay
    with pytest.raises(ConfigError):
        tiny_config(d_model=18, layer_pattern="CS")  # rotary S layer with head dim 9
    assert tiny_config(d_model=18, layer_pattern="CS", rotary=False).head_dim == 9
    assert tiny_config(d_model=18, layer_pattern="CL").head_dim == 9
    with pytest.raises(ConfigError):
        md.from_json(md.ModelConfig, "model", {"vocab": 12, "n_layers": 2})
    cfg = tiny_config()
    assert md.from_json(md.ModelConfig, "model", cfg.to_dict()) == cfg


def test_build_is_deterministic():
    a = md.build(tiny_config())
    b = md.build(tiny_config())
    for (name_a, pa), (name_b, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert name_a == name_b
        assert np.array_equal(pa.data, pb.data)
    c = md.build(tiny_config(seed=1))
    assert not np.array_equal(a.embedding.data, c.embedding.data)


def test_parameter_accounting():
    model = md.build(tiny_config())
    assert model.num_parameters() == sum(p.size for p in model.parameters())
    names = [n for n, _ in model.named_parameters()]
    assert names[0] == "embedding" and names[-1] == "head"
    assert len(names) == len(set(names))


def test_tie_embeddings_drops_head():
    model = md.build(tiny_config(tie_embeddings=True))
    assert model.head is None
    assert "head" not in dict(model.named_parameters())
    logits = model.forward(np.arange(5))
    assert logits.shape == (5, 12)


def test_forward_shapes_and_input_validation():
    model = md.build(tiny_config())
    assert model.forward(np.array([1, 2, 3])).shape == (3, 12)
    assert model.forward(np.zeros((2, 4), dtype=np.int64)).shape == (2, 4, 12)
    with pytest.raises(InputError):
        model.forward(np.array([], dtype=np.int64))
    with pytest.raises(InputError):
        model.forward(np.array([0, 12]))
    with pytest.raises(InputError):
        model.forward(np.array([-1]))
    for ids in (np.array(1), np.zeros((2, 2, 3), dtype=np.int64)):  # a misleading ShapeError, and accepted
        with pytest.raises(InputError, match=r"\(N,\) or \(batch, N\)"):
            model.forward(ids)
    for ids in (np.array([1.5]), np.array([1.0, 2.0]), np.array([True, False])):
        with pytest.raises(InputError, match="integers"):
            model.forward(ids)
    state = model.start_decode()
    for token in (1.5, True, np.float64(2.0), np.bool_(True)):
        with pytest.raises(InputError, match="integer"):
            state.step(token)
    assert state.step(np.int64(3)).shape == state.step(3).shape == (12,)


def test_mlp_layers_add_parameters_and_still_decode():
    plain = md.build(tiny_config())
    with_mlp = md.build(tiny_config(include_mlp=True))
    assert with_mlp.num_parameters() > plain.num_parameters()
    toks = np.random.default_rng(0).integers(0, 12, size=9)
    prefill = with_mlp.forward(toks).data
    stepped = with_mlp.decode_logits(toks)
    assert np.abs(prefill - stepped).max() < 1e-9


def test_decode_matches_prefill_small_hybrid():
    model = md.build(tiny_config(layer_pattern="CLS", window=3))
    toks = np.random.default_rng(1).integers(0, 12, size=11)
    assert np.abs(model.forward(toks).data - model.decode_logits(toks)).max() < 1e-9


def test_decode_state_scalar_count_saturates():
    model = md.build(tiny_config(layer_pattern="S", window=4))
    state = model.start_decode()
    counts = []
    for t in range(7):
        state.step(0)
        counts.append(state.scalar_count())
    dh = 16 // 2
    want = [2 * 2 * min(t + 1, 4) * dh for t in range(7)]
    assert counts == want


@pytest.mark.parametrize("use_decay", [False, True])
@pytest.mark.parametrize("pattern", ["C", "L", "S", "CLCS"])
def test_f32_decode_stays_f32(pattern, use_decay):
    model = md.build(tiny_config(layer_pattern=pattern, dtype="f32", use_decay=use_decay, head_mixing=use_decay))
    state = model.start_decode()
    for tok in (3, 1, 4, 1, 5):
        assert state.step(tok).dtype == np.float32
    for cache in state.caches:
        for name, value in vars(cache).items():
            if isinstance(value, np.ndarray) and value.dtype.kind == "f":
                assert value.dtype == np.float32, (pattern, type(cache).__name__, name)
    assert model.decode_logits(np.arange(4)).dtype == np.float32


@pytest.mark.parametrize("kind", ["L", "S", "C"])
def test_decode_caches_reject_a_wrong_row(kind):
    model = md.build(tiny_config(d_model=8, layer_pattern=kind))
    cache = model.start_decode().caches[0]
    for row in (np.ones(5), np.ones((1, 8)), np.ones(9), [1.0] * 8):
        with pytest.raises(ShapeError, match=r"\(8,\) row"):
            cache.step(row)
    assert cache.step(np.ones(8)).shape == (8,)


def _mixer(kind, dtype):
    """One layer's parameters in `dtype` and its decode cache class."""
    rng = np.random.default_rng(5)
    if kind == "L":
        decay = la.DecayConfig(la.default_decay_gammas(2))
        return la.create(8, 2, 4, decay=decay, rng=rng, dtype=dtype), la.LinAttnState
    if kind == "S":
        return sw.create(8, 2, 3, rng=rng, dtype=dtype), sw.WindowCache
    return bc.create_gated(8, expand=2, taps=3, rng=rng, dtype=dtype), bc.ConvCache


@pytest.mark.parametrize("kind", ["L", "S", "C"])
def test_decode_caches_take_the_parameters_dtype(kind):
    rows = np.random.default_rng(6).normal(size=(5, 8))
    for dtype in (np.float32, np.float64):
        params, cache_class = _mixer(kind, dtype)
        cache = cache_class(params)  # no dtype passed: the parameters set it
        for x in rows.astype(dtype):
            assert cache.step(x).dtype == dtype, (kind, dtype)
        arrays = {name: a for name, a in vars(cache).items() if isinstance(a, np.ndarray)}
        assert arrays and all(a.dtype == dtype for a in arrays.values()), (kind, dtype)


@pytest.mark.parametrize("kind", ["L", "S", "C"])
def test_decode_caches_reject_a_row_of_the_other_dtype(kind):
    for dtype, other in ((np.float32, np.float64), (np.float64, np.float32)):
        params, cache_class = _mixer(kind, dtype)
        with pytest.raises(ShapeError, match="mixed dtypes"):
            cache_class(params).step(np.ones(8, other))


def test_decode_rejects_an_empty_sequence_and_a_bad_length():
    model = md.build(tiny_config())
    for empty in (np.array([], dtype=np.int64), []):
        with pytest.raises(InputError, match="nonempty"):
            model.decode_logits(empty)
    for n_new in (1.5, -1, True, "2", None, np.float64(2.0)):
        with pytest.raises(InputError, match="n_new"):
            model.decode(np.array([3, 1]), n_new)
    assert model.decode(np.array([3, 1]), 0).shape == (0,)
    assert model.decode(np.array([3, 1]), np.int64(2)).shape == (2,)


def test_greedy_decode_breaks_ties_low():
    model = md.build(tiny_config())
    model.head.data[:] = 0.0  # all logits equal at every step
    out = model.decode(np.array([3, 1]), 4)
    assert out.tolist() == [0, 0, 0, 0]
    with pytest.raises(InputError):
        model.decode(np.array([]), 2)


# Entry points that an outside profiler replaces on their owner (module or
# class) to time each layer; the package must reach each through that owner
# at call time, or the profiler's spans stop firing.
PATCHABLE = (
    (md.HybridModel, "forward"), (la, "parallel_forward"), (la, "attention_core"),
    (fm, "taylor_compact"), (sw, "swa_forward"), (sw, "decode_step"),
    (bc, "forward_gated"), (T, "cross_entropy_masked"), (T.Tensor, "backward"),
    (la.LinAttnState, "step"), (bc.ConvCache, "step"),
)


def test_patched_entry_points_are_called(monkeypatch):
    calls = {}
    for owner, name in PATCHABLE:
        key = f"{owner.__name__}.{name}"
        calls[key] = 0

        def counting(*args, _original=getattr(owner, name), _key=key, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    model = md.build(tiny_config(layer_pattern="CLCS"))
    md.train_mqar(model, mq.stream(make_task(), 2), md.TrainConfig(steps=1, batch_size=2, lr=1e-3))
    state = model.start_decode()
    for tok in (3, 1, 4):
        state.step(tok)
    assert [key for key, count in calls.items() if count == 0] == []


# -- past one tile: no graph in the forward, recompute in the backward ----------

_EXTRAS = dict(use_decay=True, head_mixing=True, include_mlp=True, tie_embeddings=True)


def _weighted_loss(logits, seed):
    """sum(logits * w) for a fixed random w, so every logit's gradient differs."""
    w = np.random.default_rng(seed).normal(size=logits.shape)
    return T.sum_all(T.mul(logits, T.Tensor(w, dtype=logits.dtype)))


def _grads(model):
    return [None if p.grad is None else p.grad.copy() for p in model.parameters()]


def _zero(model):
    for p in model.parameters():
        p.grad = None


@pytest.mark.parametrize("dtype", ["f64", "f32"])
@pytest.mark.parametrize("pattern, n", [("CLCS", 64), ("CLCS", 65), ("CLCS", 200), ("C", 129)])
def test_forward_past_one_tile_matches_the_recorded_forward_bit_for_bit(pattern, n, dtype):
    model = md.build(tiny_config(layer_pattern=pattern, dtype=dtype, **_EXTRAS))
    tokens = np.random.default_rng(n).integers(0, 12, (2, n))
    logits = model.forward(tokens)
    nodes = T.Graph.from_output(logits).nodes
    one_tile = n <= (bc.CONV_TILE if pattern == "C" else la.CORE_TILE)
    assert (len(nodes) == len(model.parameters()) + 1) is not one_tile
    _weighted_loss(logits, 1).backward()
    got = _grads(model)
    _zero(model)
    recorded = model._logits(tokens)  # the forward the recompute runs
    _weighted_loss(recorded, 1).backward()
    assert np.array_equal(logits.data, recorded.data) and logits.dtype == recorded.dtype
    for g, want in zip(got, _grads(model)):
        assert np.array_equal(g, want)


def test_grad_check_through_the_recompute():
    model = md.build(tiny_config(d_model=8, layer_pattern="CLS", **_EXTRAS))
    tokens = np.random.default_rng(3).integers(0, 12, (1, la.CORE_TILE + 6))
    mixer = model.layers[1].mixer

    def loss(wq):
        mixer.wq = wq
        logits = model.forward(tokens)
        assert len(T.Graph.from_output(logits).nodes) == len(model.parameters()) + 1
        return T.cross_entropy_masked(logits, tokens, np.ones(tokens.shape, bool))

    assert T.grad_check(loss, mixer.wq) < 1e-6


def test_long_forward_holds_only_its_logits(traced):
    task = mq.MqarConfig(num_keys=256, num_values=256, seq_len=4096, kv_pairs=256)
    model = md.build(md.ModelConfig(vocab=task.vocab_size, d_model=64, d_prime=16, window=64, layer_pattern="CLCS"))
    tokens = mq.generate(task, 1).tokens
    model.forward(tokens)  # fills the cached tables, such as rotary's 2 MB of turns
    logits, _, held = traced(model.forward, tokens)
    assert logits.requires_grad
    assert held <= logits.data.nbytes + 2**20, held / 2**20


# -- the streamed forward: blocks of md.BLOCK rows through the decode caches -----


def test_block_is_a_multiple_of_every_core_tile():
    assert all(md.BLOCK % tile == 0 for tile in md._TILES.values())


@pytest.mark.parametrize("dtype", ["f64", "f32"])
@pytest.mark.parametrize("pattern, n", [("CLCS", n) for n in (64, 65, 128, 129, 255, 256, 257, 385, 513, 1000)]
                         + [("C", 129), ("C", 257), ("CLS", 385), ("L", 257), ("S", 257)])
def test_streamed_forward_matches_the_recorded_forward_bit_for_bit(pattern, n, dtype):
    model = md.build(tiny_config(layer_pattern=pattern, dtype=dtype, **_EXTRAS))
    tokens = np.random.default_rng(n).integers(0, 12, (2, n))
    with T.no_grad():
        streamed = model.forward(tokens).data
    recorded = model._logits(tokens)
    assert streamed.dtype == recorded.dtype and np.array_equal(streamed, recorded.data)
    if n in (257, 385):  # and the recompute's gradients are the recorded forward's
        _weighted_loss(model.forward(tokens), 4).backward()
        got = _grads(model)
        _zero(model)
        _weighted_loss(recorded, 4).backward()
        for g, want in zip(got, _grads(model)):
            assert np.array_equal(g, want)


@pytest.mark.parametrize("pattern", ["LC", "CL"])
def test_streamed_forward_raises_a_typed_error_from_either_half_and_leaves_no_thread(pattern):
    # the L layer runs on the calling thread under "LC" and on the helper under "CL"
    model = md.build(tiny_config(layer_pattern=pattern))
    model.layers[pattern.index("L")].mixer.wq.data[0, 0] = np.nan
    tokens = np.random.default_rng(0).integers(0, 12, (1, 513))
    threads = threading.active_count()
    with T.no_grad(), pytest.raises(NumericError, match="non-finite input"):
        model.forward(tokens)
    assert threading.active_count() == threads


def test_streamed_forward_peaks_at_a_few_blocks(traced):
    # CLCS at N = 4096 with 16 logits a row: running each layer over all N rows at once peaked at 16.0 MB
    model = md.build(md.ModelConfig(vocab=16, d_model=64, d_prime=16, window=64, layer_pattern="CLCS"))
    tokens = np.random.default_rng(0).integers(0, 16, (1, 4096))
    with T.no_grad():
        model.forward(tokens)  # fills the cached tables, such as rotary's turns
        _, peak, _ = traced(model.forward, tokens)
    assert peak < 8 * 2**20, peak / 2**20


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-9), (np.float32, 1e-5)])
@pytest.mark.parametrize("kind", ["L", "S", "C"])
def test_blocks_then_steps_match_steps_alone(kind, dtype, tol):
    params, cache_class = _mixer(kind, dtype)
    if kind == "L":  # with head mixing too
        params.decay.w_mix = T.init_normal(np.random.default_rng(7), 8, 2, dtype)
    rows = np.random.default_rng(8).normal(size=(40, 8)).astype(dtype)
    stepped = cache_class(params)
    want = np.stack([stepped.step(x) for x in rows])
    fed = cache_class(params)
    got = [fed.block(rows[:2]), fed.block(rows[2:3]), fed.block(rows[3:29])] + [fed.step(x)[None] for x in rows[29:]]
    got = np.concatenate(got)
    assert got.dtype == dtype and np.abs(got - want).max() < tol
    assert fed.scalar_count() == stepped.scalar_count()


@pytest.mark.parametrize("n", [2, 5, 9])
def test_a_batched_block_holds_batch_times_the_model_state(n):
    model = md.build(tiny_config(layer_pattern="CLSL", window=4, use_decay=True))
    state = model.start_decode()
    rows = np.random.default_rng(n).normal(size=(3, n, 16))
    for cache in state.caches:
        assert cache.block(rows).shape == rows.shape
    assert state.scalar_count() == 3 * an.model_state_size(model.config, n)


@pytest.mark.parametrize("kind", ["L", "S", "C"])
def test_decode_caches_reject_a_wrong_block(kind):
    params, cache_class = _mixer(kind, np.float64)
    cache = cache_class(params)
    for rows in (np.ones(8), np.ones((3, 5)), np.ones((0, 8)), [[1.0] * 8]):
        with pytest.raises(ShapeError, match="rows"):
            cache.block(rows)
    with pytest.raises(ShapeError, match="mixed dtypes"):
        cache.block(np.ones((3, 8), np.float32))
    cache.block(np.ones((2, 3, 8)))
    with pytest.raises(ShapeError, match="leading dims"):
        cache.block(np.ones((4, 3, 8)))
    with pytest.raises(ShapeError, match="holds a batch"):  # the L step used to fold the row into every stream
        cache.step(np.ones(8))
    assert cache.block(np.ones((2, 1, 8))).shape == (2, 1, 8)


@pytest.mark.parametrize("n", [40, 200])
def test_forward_under_no_grad_records_nothing(n):
    model = md.build(tiny_config(layer_pattern="CLCS", **_EXTRAS))
    tokens = np.random.default_rng(n).integers(0, 12, (2, n))
    with T.no_grad():
        logits = model.forward(tokens)
    assert not logits.requires_grad and logits._parents == () and logits._backward is None
    assert np.array_equal(logits.data, model.forward(tokens).data)


@pytest.mark.parametrize("n", [40, 200])
def test_backward_fills_gradients_inside_no_grad_and_adds_them_again(n):
    model = md.build(tiny_config(layer_pattern="CLCS", **_EXTRAS))
    tokens = np.random.default_rng(n).integers(0, 12, (2, n))
    loss = _weighted_loss(model.forward(tokens), 2)
    loss.backward()
    first = _grads(model)
    _zero(model)
    with T.no_grad():
        loss.backward()
    for g, want in zip(_grads(model), first):
        assert np.array_equal(g, want)
    loss.backward()
    for g, want in zip(_grads(model), first):
        np.testing.assert_allclose(g, 2 * want, rtol=1e-12, atol=1e-300)


@pytest.mark.parametrize("n", [64, 200])
def test_backward_leaves_gradients_only_on_the_parameters(n):
    model = md.build(tiny_config(layer_pattern="CLCS", **_EXTRAS))
    tokens = np.random.default_rng(n).integers(0, 12, (2, n))
    loss = _weighted_loss(model.forward(tokens), 3)
    loss.backward()
    inner = [node for node in T.Graph.from_output(loss).nodes if node._backward is not None]
    assert inner and all(node.grad is None for node in inner)
    assert all(p.grad is not None for p in model.parameters())


def test_train_steps_keep_no_inner_gradients(traced):
    # train_cl's shape (criterion 06's recipe); keeping every inner gradient
    # through the next forward peaked at 24.5 MB, freeing them gives 20.3 MB
    task = mq.MqarConfig(num_keys=32, num_values=32, seq_len=64, kv_pairs=8)
    model = md.build(md.ModelConfig(vocab=task.vocab_size, d_model=64, heads=1, d_prime=16, window=8, layer_pattern="CL"))
    tcfg = md.TrainConfig(steps=20, batch_size=8, lr=2e-3)
    data = mq.stream(task, 8)
    md.train_mqar(model, data, tcfg)  # warm-up segment: Adam's buffers, cached tables
    _, peak, _ = traced(md.train_mqar, model, data, tcfg)
    assert peak < 22 * 2**20, peak / 2**20


def test_long_backward_frees_inner_gradients_as_it_replays(traced):
    # one CLCS forward plus backward at N = 4096; keeping every gradient of the replayed graph peaked at 145 MB
    model = md.build(md.ModelConfig(vocab=128, d_model=64, d_prime=16, window=64, layer_pattern="CLCS"))
    tokens = np.random.default_rng(0).integers(0, 128, (1, 4096))
    with T.no_grad():
        model.forward(tokens)  # fills the cached tables, such as rotary's 2 MB of turns

    def step():
        T.sum_all(model.forward(tokens)).backward()

    _, peak, _ = traced(step)
    assert peak < 100 * 2**20, peak / 2**20
    assert all(p.grad is not None for p in model.parameters())


def test_evaluation_records_no_graph(monkeypatch):
    task = make_task()
    model = md.build(md.ModelConfig(vocab=task.vocab_size, d_model=16, d_prime=4, layer_pattern="CLS"))
    forward, recorded = model.forward, []

    def spy(tokens):
        logits = forward(tokens)
        recorded.append(logits.requires_grad)
        return logits

    monkeypatch.setattr(model, "forward", spy)
    batch = mq.generate(task, 4)
    mq.evaluate(model, batch)
    mq.accuracy_split(model, batch, 2)
    assert recorded == [False, False]


def make_task(seed=0):
    return mq.MqarConfig(num_keys=4, num_values=4, seq_len=12, kv_pairs=2, seed=seed)


def test_training_memorizes_a_fixed_batch():
    task = make_task()
    model = md.build(md.ModelConfig(vocab=task.vocab_size, d_model=32, heads=1, d_prime=8,
                                    window=4, layer_pattern="CL", seed=0))
    batch = mq.generate(task, 8)
    tcfg = md.TrainConfig(steps=300, batch_size=8, lr=3e-3)
    out = md.train_mqar(model, itertools.repeat(batch), tcfg, eval_batch=batch)
    assert out["final_loss"] < 0.05
    assert out["final_accuracy"] == 1.0
    assert len(out["metrics"]) == 300
    assert out["metrics"][0]["loss"] > out["final_loss"]


def test_zero_lr_freezes_the_model():
    task = make_task()
    model = md.build(md.ModelConfig(vocab=task.vocab_size, d_model=16, d_prime=4, layer_pattern="L"))
    before = model.embedding.data.copy()
    batch = mq.generate(task, 4)
    out = md.train_mqar(model, itertools.repeat(batch), md.TrainConfig(steps=5, batch_size=4, lr=0.0))
    losses = [m["loss"] for m in out["metrics"]]
    assert losses == [losses[0]] * 5
    assert np.array_equal(model.embedding.data, before)


def test_training_is_seed_deterministic():
    task = make_task(seed=3)
    runs = []
    for _ in range(2):
        model = md.build(md.ModelConfig(vocab=task.vocab_size, d_model=16, d_prime=4, layer_pattern="CL", seed=5))
        out = md.train_mqar(model, mq.stream(task, 4), md.TrainConfig(steps=8, batch_size=4, lr=1e-3))
        runs.append([m["loss"] for m in out["metrics"]])
    assert runs[0] == runs[1]


def test_eval_every_records_accuracy():
    task = make_task()
    model = md.build(md.ModelConfig(vocab=task.vocab_size, d_model=16, d_prime=4, layer_pattern="L"))
    batch = mq.generate(task, 4)
    tcfg = md.TrainConfig(steps=6, batch_size=4, lr=1e-3, eval_every=3)
    out = md.train_mqar(model, itertools.repeat(batch), tcfg, eval_batch=batch)
    tagged = [m["step"] for m in out["metrics"] if "eval_accuracy" in m]
    assert tagged == [2, 5]


def test_divergence_raises_with_step():
    task = make_task()
    model = md.build(md.ModelConfig(vocab=task.vocab_size, d_model=16, d_prime=4, layer_pattern="L"))
    model.head.data[0, 0] = np.nan  # poisons logits only, past the feature map
    with pytest.raises(TrainingDiverged) as err:
        md.train_mqar(model, mq.stream(task, 4), md.TrainConfig(steps=3, batch_size=4, lr=1e-3))
    assert err.value.step == 0


@pytest.mark.parametrize("grad_clip", [0.0, 1.0])
def test_non_finite_gradient_stops_before_the_update(grad_clip, monkeypatch):
    task = make_task()
    model = md.build(md.ModelConfig(vocab=task.vocab_size, d_model=16, d_prime=4, layer_pattern="CL"))
    forward = model.forward
    calls = []

    def poisoned(tokens):
        # finite logits whose backward sends NaN into every parameter on the third step
        logits = forward(tokens)
        calls.append([p.data.copy() for p in model.parameters()])
        if len(calls) < 3:
            return logits
        return T.from_op(logits.data, (logits,), lambda g: T.accumulate(logits, np.full_like(g, np.nan)))

    monkeypatch.setattr(model, "forward", poisoned)
    tcfg = md.TrainConfig(steps=5, batch_size=4, lr=1e-3, grad_clip=grad_clip)
    with pytest.raises(TrainingDiverged) as err:
        md.train_mqar(model, mq.stream(task, 4), tcfg)
    assert err.value.step == 2
    for before, p in zip(calls[-1], model.parameters()):
        assert np.array_equal(before, p.data)


@pytest.mark.parametrize("grad_clip", [0.0, 1e-6, 1e6])
def test_metrics_record_gradient_norm_and_clipping(grad_clip):
    task = make_task()
    cfg = md.ModelConfig(vocab=task.vocab_size, d_model=16, d_prime=4, layer_pattern="CL")
    batch = next(iter(mq.stream(task, 4)))
    model = md.build(cfg)
    loss = T.cross_entropy_masked(model.forward(batch.tokens), batch.targets, batch.query_mask)
    loss.backward()
    first_norm = math.sqrt(sum(float((p.grad * p.grad).sum()) for p in model.parameters()))
    tcfg = md.TrainConfig(steps=3, batch_size=4, lr=1e-3, grad_clip=grad_clip)
    metrics = md.train_mqar(md.build(cfg), mq.stream(task, 4), tcfg)["metrics"]
    assert metrics[0]["grad_norm"] == pytest.approx(first_norm, rel=1e-12)
    for row in metrics:
        assert row["grad_norm"] > 0
        assert row["clipped"] is (0 < grad_clip < row["grad_norm"])
    assert {row["clipped"] for row in metrics} == {grad_clip == 1e-6}


def test_lr_schedule_shapes():
    tcfg = md.TrainConfig(steps=100, batch_size=1, lr=1.0, warmup=0.1)
    warm = 10
    for k in range(warm):
        assert abs(tcfg.lr_at(k) - (k + 1) / warm) < 1e-12
    tail = [tcfg.lr_at(k) for k in range(warm, 100)]
    assert all(a >= b for a, b in zip(tail, tail[1:]))  # cosine decays
    assert tail[0] == 1.0 and tail[-1] < 0.01
    flat = md.TrainConfig(steps=100, batch_size=1, lr=0.5, warmup=0.0, schedule="constant")
    assert {flat.lr_at(k) for k in range(100)} == {0.5}
    floor = md.TrainConfig(steps=50, batch_size=1, lr=1.0, min_lr=0.1, warmup=0.0)
    assert all(floor.lr_at(k) >= 0.1 for k in range(50))


def test_train_config_validation():
    with pytest.raises(ConfigError):
        md.TrainConfig(steps=-1, batch_size=1, lr=1e-3)
    with pytest.raises(ConfigError):
        md.TrainConfig(steps=1, batch_size=0, lr=1e-3)
    with pytest.raises(ConfigError):
        md.TrainConfig(steps=1, batch_size=1, lr=-1.0)
    with pytest.raises(ConfigError):
        md.TrainConfig(steps=1, batch_size=1, lr=1e-3, warmup=1.0)
    with pytest.raises(ConfigError):
        md.TrainConfig(steps=1, batch_size=1, lr=1e-3, schedule="linear")
    with pytest.raises(ConfigError):
        md.TrainConfig(steps=1, batch_size=1, lr=1e-3, beta1=1.0)
    with pytest.raises(ConfigError):
        md.TrainConfig(steps=1, batch_size=1, lr=1e-3, adam_eps=0.0)


@pytest.mark.parametrize("dtype", ["f64", "f32"])
def test_checkpoint_round_trip(dtype, tmp_path):
    task = make_task()
    cfg = md.ModelConfig(vocab=task.vocab_size, d_model=16, heads=2, d_prime=4,
                         layer_pattern="CLS", window=3, dtype=dtype,
                         use_decay=True, head_mixing=True, seed=4)
    model = md.build(cfg)
    md.train_mqar(model, mq.stream(task, 4), md.TrainConfig(steps=2, batch_size=4, lr=1e-3))
    path = tmp_path / "model.ckpt"
    md.save_checkpoint(path, model)
    loaded = md.load_checkpoint(path)
    assert loaded.config == cfg
    for (name, p), (name2, q) in zip(model.named_parameters(), loaded.named_parameters()):
        assert name == name2
        assert np.array_equal(p.data, q.data)
        assert q.data.dtype == p.data.dtype
    toks = np.random.default_rng(2).integers(0, cfg.vocab, size=7)
    assert np.array_equal(model.forward(toks).data, loaded.forward(toks).data)


def _sections(raw: bytes) -> tuple[bytes, list[tuple[str, bytes]]]:
    """A checkpoint file split into its header (through the section count)
    and its (name, bytes) sections, in file order."""
    off = 16 + struct.unpack_from("<Q", raw, 8)[0]  # past magic, format word and config
    (count,), off = struct.unpack_from("<I", raw, off), off + 4
    header, sections = raw[:off], []
    for _ in range(count):
        start = off
        (size,) = struct.unpack_from("<I", raw, off)
        name = raw[off + 4:off + 4 + size].decode()
        off += 4 + size
        (ndim,) = struct.unpack_from("<Q", raw, off)
        off += 8 + 8 * ndim + 8 * math.prod(struct.unpack_from(f"<{ndim}Q", raw, off + 8))
        sections.append((name, raw[start:off]))
    assert off == len(raw)
    return header, sections


def _section_names(raw: bytes) -> list[str]:
    """The section names of a checkpoint file, in file order."""
    return [name for name, _ in _sections(raw)[1]]


def test_checkpoint_sections_keep_their_order(tmp_path):
    # an attention layer's tensors are its wq, wk, wv, wo, then decay's w_mix
    model = md.build(tiny_config(layer_pattern="LS", use_decay=True, head_mixing=True))
    md.train_mqar(model, mq.stream(make_task(), 2), md.TrainConfig(steps=2, batch_size=2, lr=1e-3))
    path = tmp_path / "model.ckpt"
    md.save_checkpoint(path, model)
    loaded = md.load_checkpoint(path)
    fields = (("norm", "wq", "wk", "wv", "wo", "w_mix"), ("norm", "wq", "wk", "wv", "wo"))
    names = ["embedding", *(f"layers.{i}.{f}" for i, layer in enumerate(fields) for f in layer), "final_norm", "head"]
    assert _section_names(path.read_bytes()) == names
    assert [name for name, _ in loaded.named_parameters()] == names
    for (_, p), (_, q) in zip(model.named_parameters(), loaded.named_parameters()):
        assert q.dtype == p.dtype and np.array_equal(p.data, q.data)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ConfigError):
        md.load_checkpoint(path)
    model = md.build(tiny_config())
    good = tmp_path / "good.ckpt"
    md.save_checkpoint(good, model)
    raw = bytearray(good.read_bytes())
    cfg_len = struct.unpack_from("<Q", raw, 8)[0]  # the config JSON starts at byte 16
    name_at = raw.index(b"layers.0.norm")
    pattern_at = raw.index(b'"layer_pattern":"CL"')
    model.embedding.data = model.embedding.data.T.copy()
    md.save_checkpoint(path, model)
    wrong_shape = path.read_bytes()
    model.embedding.data = model.embedding.data.T.copy()
    model.head.data[0, 0] = np.inf
    md.save_checkpoint(path, model)
    non_finite = path.read_bytes()
    md.save_checkpoint(path, md.build(tiny_config(heads=1, layer_pattern="CS")))
    odd_head = path.read_bytes().replace(b'"d_model":16', b'"d_model":17')
    header, sections = _sections(bytes(raw))
    blobs = dict(sections)
    # the C layer's b3 (16,) replaced by a second copy of its norm (16,): b3 would keep its fresh init
    repeated = header + b"".join(blobs["layers.0.norm"] if name == "layers.0.b3" else blob for name, blob in sections)
    for bad in (
        raw[:4] + bytes([99]) + raw[5:],  # unsupported format word
        raw[:-3],  # truncated inside the last section
        raw + b"junk",  # trailing bytes after the last section
        raw[:16] + b"\xff" + raw[17:],  # config is not UTF-8
        raw[:16] + b"x" + raw[17:],  # config is not JSON
        raw[:16] + b"[" + b" " * (cfg_len - 2) + b"]" + raw[16 + cfg_len:],  # config is not an object
        raw[:pattern_at] + b'"layer_pattern":1234' + raw[pattern_at + 20:],  # config value of the wrong type
        raw[:name_at] + b"\xff" + raw[name_at + 1:],  # section name is not UTF-8
        wrong_shape,  # embedding stored as (d_model, vocab)
        non_finite,  # an inf in the head
        odd_head,  # config of a rotary S layer with head dim 17
        repeated,  # one section twice, another missing
    ):
        path.write_bytes(bytes(bad))
        with pytest.raises(ConfigError):
            md.load_checkpoint(path)
    path.write_bytes(repeated)
    with pytest.raises(ConfigError, match="'layers.0.norm' appears twice"):
        md.load_checkpoint(path)


# sha256 of save_checkpoint(build(config)); any change to the init draws shows here
INIT_HASHES = [
    (dict(), "12deffe05a31b0832b0cef2affa28a251c0d8447b3440d14b4761e7db63b4c16"),
    (dict(dtype="f32", tie_embeddings=True), "977614b5f0840e7f84376590e7a7c7d85cadb0a177185d379191a06ec23c427c"),
]


@pytest.mark.parametrize("extra,digest", INIT_HASHES)
def test_init_is_pinned(extra, digest, tmp_path):
    cfg = md.ModelConfig(vocab=20, d_model=16, heads=2, d_prime=4, window=4, layer_pattern="CLCS",
                         include_mlp=True, use_decay=True, head_mixing=True, **extra)
    path = tmp_path / "init.ckpt"
    md.save_checkpoint(path, md.build(cfg))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("make", [
    lambda: la.create(8, 0, 4),
    lambda: la.create(8, -2, 4),
    lambda: sw.create(-1, 1, 2),
    lambda: bc.create_gated(-1),
], ids=["L-zero-heads", "L-negative-heads", "S-negative-width", "C-negative-width"])
def test_layer_create_rejects_bad_sizes_with_a_typed_error(make):
    with pytest.raises(ParameterError):
        make()
