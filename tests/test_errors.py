"""The one integer rule: every size, count and position argument in the
package goes through `errors.integer`, so each rejects a fraction, a bool, an
integer-valued float and a value below its minimum with its own typed error,
and takes a numpy integer as it takes an int."""

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
from basedlab import theory as th
from basedlab.cli import AnalysisConfig, IoConfig, TaskConfig, main
from basedlab.errors import ConfigError, InputError, ParameterError, integer
from basedlab.tensor import Tensor

_W = la.create(8, 2, 4)
_WEIGHTS = (_W.wq, _W.wk, _W.wv, _W.wo)
_ROWS = Tensor(np.ones((3, 4)))
_MODEL_CFG = dict(vocab=8, d_model=8, d_prime=4, window=4)
_MODEL = md.build(md.ModelConfig(**_MODEL_CFG))
_TASK = dict(num_keys=8, num_values=8, seq_len=24, kv_pairs=4)
_IO = dict(b=1, h=1, n=8, d=4, d_prime=2, bytes_per_element=2)
_IO_DECODE = {k: v for k, v in _IO.items() if k != "n"}


# entry point -> (call taking the value, its error class, the least value it takes, a value it takes)
SITES = {
    "Heads.heads": (lambda x: T.Heads(*_WEIGHTS, heads=x), ParameterError, 1, 2),
    "init_normal.rows": (lambda x: T.init_normal(np.random.default_rng(0), x, 3, np.float64), ParameterError, 0, 2),
    "init_normal.cols": (lambda x: T.init_normal(np.random.default_rng(0), 3, x, np.float64), ParameterError, 0, 2),
    "SwaParams.window": (lambda x: sw.SwaParams(*_WEIGHTS, heads=2, window=x), ParameterError, 1, 4),
    "window_core.window": (lambda x: sw.window_core(_ROWS, _ROWS, _ROWS, x), ParameterError, 1, 2),
    "attention_core.tile": (lambda x: la.attention_core(_ROWS, _ROWS, _ROWS, 1e-12, tile=x), ParameterError, 1, 2),
    "create_gated.expand": (lambda x: bc.create_gated(8, expand=x), ParameterError, 1, 2),
    "create_gated.taps": (lambda x: bc.create_gated(8, taps=x), ParameterError, 1, 3),
    "taylor_exp2.d_prime": (fm.taylor_exp2, ParameterError, 1, 4),
    "FeatureMapKind.d_prime": (lambda x: fm.FeatureMapKind("ReLU", x), ParameterError, 1, 4),
    "dims.tile": (lambda x: fm.dims(fm.taylor_exp2(4), x), ParameterError, 1, 64),
    "decode.n_new": (lambda x: _MODEL.decode(np.array([1, 2]), x), InputError, 0, 2),
    "DecodeState.step": (lambda x: _MODEL.start_decode().step(x), InputError, 0, 3),
    **{
        f"ModelConfig.{name}": (lambda x, name=name: md.ModelConfig(**{**_MODEL_CFG, name: x}), ConfigError, least, good)
        for name, least, good in (
            ("vocab", 2, 8), ("d_model", 1, 8), ("heads", 1, 2), ("d_prime", 1, 4), ("window", 1, 4),
            ("conv_taps", 1, 3), ("conv_expand", 1, 2), ("mlp_width", 1, 2), ("seed", 0, 1),
        )
    },
    **{
        f"TrainConfig.{name}": (lambda x, name=name: md.TrainConfig(**{name: x}), ConfigError, least, 5)
        for name, least in (("steps", 0), ("batch_size", 1), ("eval_every", 0))
    },
    "TaskConfig.batches": (lambda x: TaskConfig(batches=x), ConfigError, 1, 2),
    "AnalysisConfig.bytes_per_element": (lambda x: AnalysisConfig(bytes_per_element=x), ConfigError, 1, 2),
    "IoConfig.pad_tile": (lambda x: IoConfig(pad_tile=x), ConfigError, 1, 64),
    **{
        f"MqarConfig.{name}": (lambda x, name=name: mq.MqarConfig(**{**_TASK, name: x}), ConfigError, least, _TASK.get(name, 1))
        for name, least in (("num_keys", 1), ("num_values", 1), ("seq_len", 1), ("kv_pairs", 1), ("seed", 0))
    },
    "MqarConfig.kv_pairs_range": (lambda x: mq.MqarConfig(**{**_TASK, "kv_pairs": (1, x)}), ConfigError, 1, 4),
    "generate.batch_size": (lambda x: mq.generate(mq.MqarConfig(**_TASK), x), ConfigError, 1, 2),
    "ArchSpec.d": (lambda x: an.ArchSpec("Based", d=x, d_prime=4), ConfigError, 1, 8),
    "ArchSpec.d_prime": (lambda x: an.ArchSpec("Based", d=8, d_prime=x), ConfigError, 1, 4),
    "ArchSpec.n": (lambda x: an.ArchSpec("Attention", d=8, n=x), ConfigError, 1, 16),
    "ArchSpec.window": (lambda x: an.ArchSpec("SlidingWindow", d=8, n=16, window=x), ConfigError, 1, 4),
    "ArchSpec.d_state": (lambda x: an.ArchSpec("Mamba", d=8, d_state=x), ConfigError, 1, 16),
    "model_state_size.n_tokens": (lambda x: an.model_state_size(md.ModelConfig(**_MODEL_CFG), x), ParameterError, 0, 5),
    **{
        f"io_cost_prefill.{name}": (lambda x, name=name: an.io_cost_prefill("ours", **{**_IO, name: x}), ParameterError, 1, _IO[name])
        for name in _IO
    },
    **{
        f"io_cost_decode.{name}": (lambda x, name=name: an.io_cost_decode(**{**_IO_DECODE, name: x}), ParameterError, 1, _IO[name])
        for name in _IO_DECODE
    },
    "state_size.bytes_per_element": (lambda x: an.state_size(an.ArchSpec("Based", d=8, d_prime=4), x), ParameterError, 1, 2),
    "tradeoff_sweep.jobs": (lambda x: an.tradeoff_sweep([], jobs=x), ParameterError, 1, 2),
    "mqar_poly.i": (lambda x: th.mqar_poly(np.zeros((4, 2), int), x, 0), InputError, 0, 2),
    "mqar_poly.j": (lambda x: th.mqar_poly(np.zeros((4, 2), int), 3, x), InputError, 0, 1),
    "mqar_poly_symbolic.d": (th.mqar_poly_symbolic, ParameterError, 1, 1),
    "phot_encode.p": (lambda x: th.phot_encode(0, x, 4), ParameterError, 1, 2),
    "phot_encode.c": (lambda x: th.phot_encode(0, 2, x), ParameterError, 1, 4),
    "phot_encode.t": (lambda x: th.phot_encode(x, 2, 4), ParameterError, 0, 3),
    "eq_phot_poly.p": (lambda x: th.eq_phot_poly([1, 0, 0, 1], [1, 0, 0, 1], x), ParameterError, 1, 2),
    "eq_phot_poly_symbolic.p": (lambda x: th.eq_phot_poly_symbolic(x, 2), ParameterError, 1, 1),
    "eq_phot_poly_symbolic.base": (lambda x: th.eq_phot_poly_symbolic(1, x), ParameterError, 2, 2),
}

RULE = r"must be (a positive integer|an integer >= -?\d+), got"


@pytest.mark.parametrize(
    "site, bad",
    [(site, bad) for site, (_, _, least, good) in SITES.items() for bad in (2.5, True, float(good), least - 1)],
)
def test_bad_integer_raises_the_sites_typed_error(site, bad):
    call, error, _, _ = SITES[site]
    with pytest.raises(error, match=RULE):
        call(bad)


@pytest.mark.parametrize("site", sorted(SITES))
def test_numpy_integer_is_taken(site):
    call, _, _, good = SITES[site]
    call(np.int64(good))


@pytest.mark.parametrize("flag, bad, rule", [("--seed", "-1", "an integer >= 0"), ("--jobs", "0", "a positive integer")])
def test_cli_flags_below_their_minimum_exit_2(flag, bad, rule, capsys):
    assert main(["statesize", flag, bad]) == 2
    assert capsys.readouterr().err == f"error: {flag} must be {rule}, got {bad}\n"


def test_integer_returns_its_value_and_names_what_it_checks():
    assert integer(np.int64(3), "n") == 3 and type(integer(np.int64(3), "n")) is np.int64
    assert integer(0, "n", 0) == 0
    with pytest.raises(ConfigError, match=r"^task\.seed: must be an integer >= 0, got -1$"):
        integer(-1, "task.seed:", 0, ConfigError)
    for bad in (None, "2", np.float64(2.0), np.bool_(True), np.array([2])):
        with pytest.raises(ParameterError, match=r"^heads must be a positive integer, got "):
            integer(bad, "heads")


@pytest.mark.parametrize("pairs", [(1, 2, 3), [4], ()])
def test_kv_pairs_that_are_not_a_pair_raise_a_config_error(pairs):
    with pytest.raises(ConfigError, match=r"^task\.kv_pairs: expected an integer or a \(low, high\) pair"):
        mq.MqarConfig(8, 8, 24, pairs)
