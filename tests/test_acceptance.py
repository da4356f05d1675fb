"""Acceptance gate: one test per release criterion, at the published tolerances.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion. The two training criteria dominate the runtime (several minutes
of CPU Adam steps); everything else finishes in seconds.
"""

import itertools
import json
import time

import numpy as np

from basedlab import analysis as an
from basedlab import baseconv as bc
from basedlab import feature_maps as fm
from basedlab import linear_attention as la
from basedlab import model as md
from basedlab import mqar as mq
from basedlab import sliding_window as sw
from basedlab import tensor as T
from basedlab import theory as th
from basedlab.tensor import Tensor, grad_check


def test_criterion_01_three_views_agree():
    # 50 random configs; parallel, chunked (chunk in {1, 8, 16, N}), recurrent
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    for trial in range(50):
        heads = int(rng.integers(1, 5))
        d_prime = int(rng.choice([4, 8, 16]))
        d_model = heads * int(rng.integers(2, 64 // heads + 1))
        n = int(rng.integers(1, 129))
        params = la.create(d_model=d_model, heads=heads, d_prime=d_prime,
                           rng=np.random.default_rng(1000 + trial))
        u = Tensor(rng.normal(size=(n, d_model)))
        yp = la.parallel_forward(params, u).data
        yr = la.recurrent_forward(params, u).data
        assert np.abs(yp - yr).max() < 1e-8, trial
        for chunk in (1, 8, 16, n):
            yc = la.chunked_forward(params, u, chunk=chunk).data
            assert np.abs(yp - yc).max() < 1e-8, (trial, chunk)
    assert time.perf_counter() - start < 30.0


def test_criterion_02_taylor_identity():
    # feature dot product equals 1 + a + a^2/2 with a = q.k/sqrt(d'), < 1e-9
    rng = np.random.default_rng(1)
    total = 0
    worst = 0.0
    for d_prime in (4, 8, 16):
        q = rng.normal(size=(3400, d_prime))
        k = rng.normal(size=(3400, d_prime))
        kind = fm.taylor_exp2(d_prime)
        pq = fm.apply_numpy(kind, q)
        pk = fm.apply_numpy(kind, k)
        a = (q * k).sum(axis=-1) / np.sqrt(d_prime)
        want = 1.0 + a + 0.5 * a * a
        worst = max(worst, float(np.abs((pq * pk).sum(axis=-1) - want).max()))
        total += q.shape[0]
    assert total >= 10_000
    assert worst < 1e-9


def test_criterion_03_feature_dimension_table():
    for d_prime, unique in ((8, 45), (16, 153), (24, 325), (32, 561)):
        assert fm.dims(fm.taylor_exp2(d_prime)).unique == unique
    report = fm.dims(fm.taylor_exp2(16), tile=64)
    assert report.materialized == 273
    assert report.padded == 320


def test_criterion_04_state_size_formulas():
    rng = np.random.default_rng(2)
    for _ in range(20):
        d = int(rng.integers(1, 256))
        dp = int(rng.integers(1, 64))
        n = int(rng.integers(1, 4096))
        w = int(rng.integers(1, 512))
        ds = int(rng.integers(1, 128))
        # independent re-derivations, written out rather than shared with the library
        assert an.state_size(an.ArchSpec("Based", d=d, d_prime=dp)).elements == (d + 1) * (1 + dp + dp * (dp + 1) // 2)
        assert an.state_size(an.ArchSpec("Attention", d=d, n=n)).elements == 2 * d * n
        assert an.state_size(an.ArchSpec("SlidingWindow", d=d, n=n, window=w)).elements == 2 * d * (n if n < w else w)
        assert an.state_size(an.ArchSpec("Mamba", d=d, d_state=ds)).elements == 2 * d * ds
        assert an.state_size(an.ArchSpec("H3", d=d, d_state=ds)).elements == d * ds
        assert an.state_size(an.ArchSpec("Hyena", d=d, n=n)).elements == d * n
    # and the formula equals what a live decode cache actually holds
    configs = [
        md.ModelConfig(vocab=16, d_model=16),
        md.ModelConfig(vocab=16, d_model=16, layer_pattern="CLCS", window=4),
        md.ModelConfig(vocab=16, d_model=16, layer_pattern="SL", window=5, heads=2, d_prime=8),
        md.ModelConfig(vocab=16, d_model=16, layer_pattern="C", conv_taps=4, conv_expand=2),
    ]
    for cfg in configs:
        model = md.build(cfg)
        state = model.start_decode()
        for t in range(8):
            state.step(int(t % cfg.vocab))
            assert state.scalar_count() == an.model_state_size(cfg, t + 1), (cfg.layer_pattern, t)


def test_criterion_05_io_model():
    rng = np.random.default_rng(3)
    for _ in range(20):
        b, h = int(rng.integers(1, 8)), int(rng.integers(1, 32))
        n, d, dp = int(rng.integers(1, 2048)), int(rng.integers(1, 128)), int(rng.integers(1, 32))
        width = 1 + dp + dp * dp
        base = an.io_cost_prefill("baseline", b=b, h=h, n=n, d=d, d_prime=dp)
        ours = an.io_cost_prefill("ours", b=b, h=h, n=n, d=d, d_prime=dp)
        assert base.savings == 2 * b * h * n * width
        assert ours.savings == 2 * b * h * n * width
        assert base.hbm_total == 4 * b * h * n * width + 2 * b * h * n * d
        assert ours.hbm_total == 2 * b * h * n * dp + 2 * b * h * n * d
    for n, chunk in ((32, 8), (64, 16), (16, 1), (128, 16)):
        params = la.create(d_model=16, heads=2, d_prime=4, rng=np.random.default_rng(40))
        u = Tensor(np.random.default_rng(41).normal(size=(n, 16)))
        run = an.tiled_reference_run(params, u, chunk=chunk)
        assert run["counters"] == run["closed_form"], (n, chunk)
        naive = la.parallel_forward(params, u).data
        assert np.abs(run["output"].data - naive).max() < 1e-8


def test_criterion_06_mqar_learnability():
    start = time.perf_counter()
    task = mq.MqarConfig(num_keys=32, num_values=32, seq_len=64, kv_pairs=8, seed=0)
    tcfg = md.TrainConfig(steps=2000, batch_size=8, lr=2e-3)
    eval_batch = mq.generate(task, 256, rng=np.random.default_rng(task.seed + 1))

    based = md.build(md.ModelConfig(vocab=task.vocab_size, d_model=64, heads=1,
                                    d_prime=16, layer_pattern="CL", seed=0))
    result = md.train_mqar(based, mq.stream(task, tcfg.batch_size), tcfg, eval_batch)
    assert result["final_accuracy"] >= 0.95

    windowed = md.build(md.ModelConfig(vocab=task.vocab_size, d_model=64, heads=1,
                                       window=8, layer_pattern="CS", seed=0))
    md.train_mqar(windowed, mq.stream(task, tcfg.batch_size), tcfg)
    near, far = mq.accuracy_split(windowed, eval_batch, gap_threshold=8)
    assert near >= 0.5  # the window model does learn short-range recall
    assert far <= 0.5 * near
    assert time.perf_counter() - start < 600.0


def test_criterion_07_tradeoff_monotonicity():
    task = mq.MqarConfig(num_keys=64, num_values=64, seq_len=64, kv_pairs=16, seed=0)
    tcfg = md.TrainConfig(steps=2000, batch_size=8, lr=2e-3)
    base = md.ModelConfig(vocab=task.vocab_size, d_model=64, heads=1, layer_pattern="CL", seed=0)
    points = [
        an.sweep_point("Based", model_config=md.ModelConfig(**{**base.to_dict(), "d_prime": dp}),
                       train_config=tcfg, task=task)
        for dp in (4, 8, 16)
    ]
    result = an.tradeoff_sweep(points)
    rows = result["rows"]
    states = [r["state_elems"] for r in rows]
    accs = [float(r["mqar_acc"]) for r in rows]
    assert states[0] < states[1] < states[2]
    assert accs[0] <= accs[1] <= accs[2]
    assert result["monotone"]["Based"] is True


def test_criterion_08_gradient_suite():
    rng = np.random.default_rng(4)

    lin = la.create(d_model=12, heads=2, d_prime=4, rng=np.random.default_rng(50))
    u = Tensor(rng.normal(size=(7, 12)), requires_grad=True)
    assert grad_check(lambda t: T.sum_all(la.parallel_forward(lin, t)), u) < 1e-4

    decayed = la.create(d_model=12, heads=2, d_prime=4, rng=np.random.default_rng(51),
                        decay=la.DecayConfig(la.default_decay_gammas(2),
                                             Tensor(rng.normal(size=(12, 2)) * 0.1, requires_grad=True)))
    assert grad_check(lambda t: T.sum_all(la.parallel_forward(decayed, t)), u) < 1e-4

    swa = sw.create(d_model=12, heads=2, window=3, rng=np.random.default_rng(52))
    assert grad_check(lambda t: T.sum_all(sw.swa_forward(swa, t)), u) < 1e-4

    conv = bc.create_gated(12, expand=2, taps=3, rng=np.random.default_rng(53))
    assert grad_check(lambda t: T.sum_all(bc.forward_gated(conv, t)), u) < 1e-4

    taylor = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    assert grad_check(lambda t: T.sum_all(fm.apply(fm.taylor_exp2(4), t)), taylor) < 1e-4

    # full model: directional finite differences against backward, per parameter
    cfg = md.ModelConfig(vocab=12, d_model=16, heads=2, d_prime=4, window=3,
                         layer_pattern="CLS", include_mlp=True, seed=6)
    model = md.build(cfg)
    task = mq.MqarConfig(num_keys=4, num_values=4, seq_len=9, kv_pairs=2, seed=0)
    batch = mq.generate(task, 2)

    def loss_value():
        logits = model.forward(batch.tokens)
        return T.cross_entropy_masked(logits, batch.targets, batch.query_mask)

    loss = loss_value()
    for p in model.parameters():
        p.grad = None
    loss.backward()
    h = 1e-5  # near the f64 central-difference optimum for a loss of this scale
    probe_rng = np.random.default_rng(7)
    for name, p in model.named_parameters():
        direction = probe_rng.normal(size=p.shape)
        direction /= np.linalg.norm(direction)
        analytic = float((p.grad * direction).sum())
        saved = p.data.copy()
        p.data = saved + h * direction
        plus = loss_value().item()
        p.data = saved - h * direction
        minus = loss_value().item()
        p.data = saved
        numeric = (plus - minus) / (2 * h)
        rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-10)
        assert rel < 1e-4, (name, rel)


def test_criterion_09_theory_oracles():
    start = time.perf_counter()
    results = {r.name: r for r in th.run_all_checks()}
    for name in ("mqar_poly exhaustive", "eq_phot_poly exhaustive", "exact attention recall"):
        assert results[name].passed, name
        assert results[name].instances > 0
    assert results["mqar_poly degree audit"].passed  # degree 2d + 1, multilinear
    assert results["eq_phot_poly degree audit"].passed  # degree 2p, block-exclusive
    assert time.perf_counter() - start < 60.0


def test_criterion_10_decode_prefill_consistency():
    cfg = md.ModelConfig(vocab=32, d_model=32, heads=2, d_prime=8, window=8,
                         layer_pattern="CLCS", seed=0)
    model = md.build(cfg)
    tokens = np.random.default_rng(8).integers(0, 32, size=100)
    prefill = model.forward(tokens).data
    stepped = model.decode_logits(tokens)
    assert np.abs(prefill - stepped).max() < 1e-7

    params = sw.create(d_model=16, heads=2, window=8, rng=np.random.default_rng(9))
    u = np.random.default_rng(10).normal(size=(100, 16))
    want = sw.swa_forward(params, Tensor(u)).data
    cache = sw.WindowCache(params)
    for t in range(100):
        cache, y = sw.decode_step(params, cache, u[t])
        assert np.abs(y - want[t]).max() < 1e-9


def test_criterion_11_determinism(tmp_path):
    # every CSV/JSON artifact writer, run twice with the same seeds
    task = mq.MqarConfig(num_keys=4, num_values=4, seq_len=12, kv_pairs=2, seed=0)
    tcfg = md.TrainConfig(steps=3, batch_size=4, lr=1e-3)

    def sweep_once(out):
        points = [
            an.sweep_point("Attention", spec=an.ArchSpec("Attention", d=32, n=256)),
            an.sweep_point("Based", model_config=md.ModelConfig(vocab=task.vocab_size, d_model=16, d_prime=4),
                           train_config=tcfg, task=task),
        ]
        out.mkdir()
        an.write_sweep(out, an.tradeoff_sweep(points))

    sweep_once(tmp_path / "s1")
    sweep_once(tmp_path / "s2")
    for name in ("tradeoff.csv", "tradeoff.json", "summary.json"):
        assert (tmp_path / "s1" / name).read_bytes() == (tmp_path / "s2" / name).read_bytes(), name

    from basedlab.cli import main

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "task": {"num_keys": 4, "num_values": 4, "seq_len": 12, "kv_pairs": 2, "batch_size": 4},
        "model": {"d_model": 16, "d_prime": 4, "layer_pattern": "CL", "window": 4},
        "train": {"steps": 3, "batch_size": 4, "lr": 0.001},
    }))
    for out in ("t1", "t2"):
        assert main(["train", "--config", str(config), "--out", str(tmp_path / out)]) == 0
    for name in ("metrics.csv", "report.json", "model.ckpt", "resolved-config.json"):
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes(), name

    for out in ("g1", "g2"):
        assert main(["mqar-gen", "--config", str(config), "--out", str(tmp_path / out)]) == 0
    assert (tmp_path / "g1" / "batch_000.txt").read_bytes() == (tmp_path / "g2" / "batch_000.txt").read_bytes()


def test_f32_train_artifacts_are_byte_identical(tmp_path):
    # criterion 11's train config at f32: the same artifacts, byte for byte, on a second run
    from basedlab.cli import main

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "task": {"num_keys": 4, "num_values": 4, "seq_len": 12, "kv_pairs": 2, "batch_size": 4},
        "model": {"d_model": 16, "d_prime": 4, "layer_pattern": "CL", "window": 4, "dtype": "f32"},
        "train": {"steps": 3, "batch_size": 4, "lr": 0.001},
    }))
    for out in ("t1", "t2"):
        assert main(["train", "--config", str(config), "--out", str(tmp_path / out)]) == 0
    assert json.loads((tmp_path / "t1" / "resolved-config.json").read_text())["model"]["dtype"] == "f32"
    for name in ("metrics.csv", "report.json", "model.ckpt", "resolved-config.json"):
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes(), name
