"""State and IO accounting: frozen oracles, formula-vs-actual cross checks."""

import json

import numpy as np
import pytest

from basedlab import analysis as an
from basedlab import feature_maps as fm
from basedlab import linear_attention as la
from basedlab import model as md
from basedlab.errors import ConfigError, ParameterError
from basedlab.feature_maps import unique_dim
from basedlab.tensor import Tensor


def test_state_size_frozen_values():
    # worked examples, computed once by hand
    based = an.state_size(an.ArchSpec("Based", d=64, d_prime=16))
    assert based.elements == 65 * 153 == 9945
    assert based.bytes == 19890
    attn = an.state_size(an.ArchSpec("Attention", d=128, n=1024))
    assert attn.elements == 262144
    swa = an.state_size(an.ArchSpec("SlidingWindow", d=64, n=1024, window=64))
    assert swa.elements == 2 * 64 * 64
    assert an.state_size(an.ArchSpec("SlidingWindow", d=64, n=32, window=64)).elements == 2 * 64 * 32
    assert an.state_size(an.ArchSpec("Mamba", d=64, d_state=16)).elements == 2048
    assert an.state_size(an.ArchSpec("H3", d=64, d_state=16)).elements == 1024
    assert an.state_size(an.ArchSpec("Hyena", d=64, n=512)).elements == 32768


def test_state_size_random_specs():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = int(rng.integers(1, 256))
        dp = int(rng.integers(1, 64))
        n = int(rng.integers(1, 4096))
        w = int(rng.integers(1, 256))
        ds = int(rng.integers(1, 128))
        assert an.state_size(an.ArchSpec("Based", d=d, d_prime=dp)).elements == (d + 1) * unique_dim(dp)
        assert an.state_size(an.ArchSpec("Attention", d=d, n=n)).elements == 2 * d * n
        assert an.state_size(an.ArchSpec("SlidingWindow", d=d, n=n, window=w)).elements == 2 * d * min(n, w)
        assert an.state_size(an.ArchSpec("Mamba", d=d, d_state=ds)).elements == 2 * d * ds
        assert an.state_size(an.ArchSpec("H3", d=d, d_state=ds)).elements == d * ds
        assert an.state_size(an.ArchSpec("Hyena", d=d, n=n)).elements == d * n


def test_arch_kind_normalization():
    for alias in ("based", "BASED", "Based"):
        assert an.ArchSpec(alias, d=8, d_prime=4).kind == "Based"
    for alias in ("sliding_window", "sliding-window", "SlidingWindow", "slidingwindow"):
        assert an.ArchSpec(alias, d=8, n=4, window=2).kind == "SlidingWindow"
    with pytest.raises(ConfigError):
        an.ArchSpec("transformer", d=8)


def test_arch_spec_requires_its_fields():
    with pytest.raises(ConfigError):
        an.ArchSpec("Based", d=8)  # d_prime missing
    with pytest.raises(ConfigError):
        an.ArchSpec("Attention", d=8)  # n missing
    with pytest.raises(ConfigError):
        an.ArchSpec("SlidingWindow", d=8, n=16)  # window missing
    with pytest.raises(ConfigError):
        an.ArchSpec("Mamba", d=8, d_state=0)
    with pytest.raises(ConfigError):
        an.ArchSpec("Based", d=0, d_prime=4)


def test_model_state_size_matches_decode_caches():
    cases = [
        dict(layer_pattern="CL"),
        dict(layer_pattern="CLCS"),
        dict(layer_pattern="SL", window=5),
        dict(layer_pattern="C", conv_taps=4, conv_expand=2),
        dict(layer_pattern="LLS", heads=2, d_prime=8),
    ]
    for kw in cases:
        cfg = md.ModelConfig(vocab=16, d_model=16, **kw)
        model = md.build(cfg)
        for n_tokens in (1, 3, 9):
            state = model.start_decode()
            for _ in range(n_tokens):
                state.step(0)
            assert state.scalar_count() == an.model_state_size(cfg, n_tokens), (kw, n_tokens)
    with pytest.raises(ParameterError):
        an.model_state_size(md.ModelConfig(vocab=16, d_model=16), -1)


def test_io_cost_prefill_frozen_oracle():
    # B=1, H=16, N=1024, d=64, d'=16: D = 1 + 16 + 256 = 273
    base = an.io_cost_prefill("baseline", b=1, h=16, n=1024, d=64, d_prime=16)
    assert base.featurize.hbm_sram == 8_945_664  # 2 B H N D
    assert base.savings == 8_945_664
    assert base.read.hbm_sram == 8_945_664 + 16 * 1024 * 64
    assert base.read.sram_register == 16 * 1024 * 273 * 64
    assert base.write.hbm_sram == 16 * 1024 * 64
    ours = an.io_cost_prefill("ours", b=1, h=16, n=1024, d=64, d_prime=16)
    assert ours.featurize.hbm_sram == 0
    assert ours.read.hbm_sram == 2 * 16 * 1024 * 16 + 16 * 1024 * 64
    assert ours.savings == base.savings
    assert ours.hbm_total < base.hbm_total
    assert base.hbm_bytes == base.hbm_total * 2


def test_io_savings_formula_exact():
    rng = np.random.default_rng(1)
    for _ in range(20):
        b, h = int(rng.integers(1, 8)), int(rng.integers(1, 32))
        n, d, dp = int(rng.integers(1, 2048)), int(rng.integers(1, 128)), int(rng.integers(1, 32))
        width = 1 + dp + dp * dp
        for mode in ("baseline", "ours"):
            report = an.io_cost_prefill(mode, b=b, h=h, n=n, d=d, d_prime=dp)
            assert report.savings == 2 * b * h * n * width


def test_io_cost_padding():
    padded = an.io_cost_prefill("baseline", b=1, h=16, n=1024, d=64, d_prime=16, pad_tile=64)
    assert padded.featurize.hbm_sram == 2 * 16 * 1024 * 320  # 273 padded up to 320
    assert fm.dims(fm.taylor_exp2(16)).padded == 273
    assert fm.dims(fm.taylor_exp2(16), 64).padded == 320
    assert fm.dims(fm.taylor_exp2(16), 1).padded == 273
    with pytest.raises(ParameterError):
        an.io_cost_prefill("baseline", b=1, h=16, n=1024, d=64, d_prime=16, pad_tile=0)


def test_io_cost_decode_oracles():
    tiny = an.io_cost_decode(b=1, h=1, d=2, d_prime=1)
    assert tiny.per_token_elements == 10  # D=3: 2*3 + 2*2
    rep = an.io_cost_decode(b=1, h=16, d=64, d_prime=16)
    assert rep.per_token_elements == 16 * (2 * 273 + 2 * 64) == 10784
    assert rep.state_elements == 16 * 273 * 64 == 279_552
    assert rep.state_traffic == 0
    assert an.io_cost_decode(b=1, h=16, d=64, d_prime=16, pad_tile=64).state_elements == 327_680
    spilled = an.io_cost_decode(b=1, h=16, d=64, d_prime=16, state_resident=False)
    assert spilled.state_traffic == 2 * 279_552
    assert rep.per_token_bytes == 10784 * 2


def test_io_cost_validation():
    with pytest.raises(ConfigError):
        an.io_cost_prefill("theirs", b=1, h=1, n=1, d=1, d_prime=1)
    with pytest.raises(ParameterError):
        an.io_cost_prefill("ours", b=0, h=1, n=1, d=1, d_prime=1)
    with pytest.raises(ParameterError):
        an.io_cost_decode(b=1, h=1, d=0, d_prime=1)


def test_tiled_counters_match_closed_form():
    for n, chunk in [(32, 8), (33, 8), (7, 16), (64, 64)]:
        params = la.create(d_model=12, heads=2, d_prime=4, rng=np.random.default_rng(2))
        u = Tensor(np.random.default_rng(3).normal(size=(n, 12)))
        run = an.tiled_reference_run(params, u, chunk=chunk)
        assert run["counters"] == run["closed_form"], (n, chunk)
        want = la.parallel_forward(params, u).data
        assert np.abs(run["output"].data - want).max() < 1e-8


def test_sweep_point_validation():
    spec = an.ArchSpec("Based", d=8, d_prime=4)
    cfg = md.ModelConfig(vocab=16, d_model=16)
    tcfg = md.TrainConfig(steps=1, batch_size=1, lr=1e-3)
    import basedlab.mqar as mq
    task = mq.MqarConfig(num_keys=4, num_values=4, seq_len=12, kv_pairs=2)
    with pytest.raises(ConfigError):
        an.sweep_point("Based")  # neither spec nor config
    with pytest.raises(ConfigError):
        an.sweep_point("Based", spec=spec, model_config=cfg, train_config=tcfg, task=task)
    with pytest.raises(ConfigError):
        an.sweep_point("Based", model_config=cfg)  # config without train/task
    point = an.sweep_point("Based", spec=spec)
    assert point["spec"] is spec and point["seed"] == 0


def test_formula_sweep_rows_and_serialization(tmp_path):
    points = [
        an.sweep_point("Attention", spec=an.ArchSpec("Attention", d=32, n=256)),
        an.sweep_point("Based", spec=an.ArchSpec("Based", d=32, d_prime=8)),
    ]
    result = an.tradeoff_sweep(points)
    rows = result["rows"]
    assert [r["arch"] for r in rows] == ["Attention", "Based"]
    assert rows[0]["state_elems"] == 2 * 32 * 256
    assert rows[1]["state_elems"] == 33 * unique_dim(8)
    assert all(r["status"] == "formula" and r["mqar_acc"] == "" for r in rows)
    assert result["monotone"] == {"Attention": True, "Based": True}

    csv_text = an.rows_to_csv(rows)
    lines = csv_text.splitlines()
    assert lines[0] == "arch,d_model,d_prime,window,heads,state_elems,state_bytes,mqar_acc,seed,status"
    assert len(lines) == 3
    payload = json.loads(an.rows_to_json(rows))
    assert payload[0]["mqar_acc"] is None  # blanks become null
    assert payload[1]["state_elems"] == rows[1]["state_elems"]

    an.write_sweep(tmp_path, result)
    assert (tmp_path / "tradeoff.csv").read_text() == csv_text
    assert json.loads((tmp_path / "summary.json").read_text()) == {"monotone": result["monotone"]}


def test_trained_sweep_row_and_parallel_merge(tmp_path):
    import basedlab.mqar as mq
    task = mq.MqarConfig(num_keys=4, num_values=4, seq_len=12, kv_pairs=2, seed=0)
    tcfg = md.TrainConfig(steps=3, batch_size=4, lr=1e-3)
    def pt(d_prime):
        cfg = md.ModelConfig(vocab=task.vocab_size, d_model=16, d_prime=d_prime, layer_pattern="CL")
        return an.sweep_point("Based", model_config=cfg, train_config=tcfg, task=task)
    points = [pt(2), pt(4)]
    serial = an.tradeoff_sweep(points, jobs=1)
    rows = serial["rows"]
    assert all(r["status"] == "ok" for r in rows)
    assert all(r["mqar_acc"] != "" for r in rows)
    assert rows[0]["state_elems"] < rows[1]["state_elems"]
    parallel = an.tradeoff_sweep(points, jobs=2)
    assert an.rows_to_csv(parallel["rows"]) == an.rows_to_csv(rows)
    with pytest.raises(ParameterError):
        an.tradeoff_sweep(points, jobs=0)


def test_diverged_point_is_reported_not_raised():
    import basedlab.mqar as mq
    task = mq.MqarConfig(num_keys=4, num_values=4, seq_len=12, kv_pairs=2, seed=0)
    cfg = md.ModelConfig(vocab=task.vocab_size, d_model=16, d_prime=4, layer_pattern="L")
    tcfg = md.TrainConfig(steps=4, batch_size=4, lr=1e6, grad_clip=0.0)  # blows up fast
    result = an.tradeoff_sweep([an.sweep_point("Based", model_config=cfg, train_config=tcfg, task=task)])
    row = result["rows"][0]
    assert row["status"] in ("ok", "diverged")
    if row["status"] == "diverged":
        assert row["mqar_acc"] == ""
