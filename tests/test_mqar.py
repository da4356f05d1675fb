"""Recall task generator: layout invariants, gap accounting, round trips."""

import numpy as np
import pytest

from basedlab import mqar as mq
from basedlab.errors import ConfigError, ShapeError


def small_cfg(**kw):
    base = dict(num_keys=8, num_values=8, seq_len=24, kv_pairs=4, seed=0)
    base.update(kw)
    return mq.MqarConfig(**base)


def test_layout_invariants():
    # keys on even slots, values on odd, queries echo stored keys, pad after
    for seed in range(20):
        cfg = small_cfg(seed=seed, kv_pairs=(2, 6))
        batch = mq.generate(cfg, 8)
        for b in range(8):
            toks, mask, tgt, gaps = batch.tokens[b], batch.query_mask[b], batch.targets[b], batch.gaps[b]
            pairs = int(mask.sum())
            assert 2 <= pairs <= 6
            keys = toks[: 2 * pairs : 2]
            values = toks[1 : 2 * pairs : 2]
            assert np.all(keys < cfg.num_keys)
            assert np.all((values >= cfg.num_keys) & (values < cfg.pad_token))
            assert len(set(keys.tolist())) == pairs  # no replacement
            assert len(set(values.tolist())) == pairs
            q0 = 2 * pairs
            assert np.all(mask[q0 : q0 + pairs])
            assert not mask[:q0].any() and not mask[q0 + pairs :].any()
            assert np.all(toks[q0 + pairs :] == cfg.pad_token)
            binding = dict(zip(keys.tolist(), values.tolist()))
            for i in range(q0, q0 + pairs):
                assert tgt[i] == binding[toks[i]]
                key_pos = int(np.nonzero(toks[: 2 * pairs] == toks[i])[0][0])
                assert gaps[i] == i - key_pos
            assert np.all(tgt[~mask] == -1)
            assert np.all(gaps[~mask] == 0)


def test_generate_is_deterministic():
    cfg = small_cfg(seed=7)
    assert mq.generate(cfg, 4) == mq.generate(cfg, 4)
    assert mq.generate(cfg, 4) != mq.generate(small_cfg(seed=8), 4)


def test_explicit_rng_overrides_seed():
    cfg = small_cfg(seed=0)
    a = mq.generate(cfg, 4, rng=np.random.default_rng(99))
    b = mq.generate(cfg, 4, rng=np.random.default_rng(99))
    assert a == b
    assert a != mq.generate(cfg, 4)


def test_stream_differs_across_batches_and_replays():
    cfg = small_cfg(seed=3)
    it = mq.stream(cfg, 4)
    first, second = next(it), next(it)
    assert first != second
    it2 = mq.stream(cfg, 4)
    assert next(it2) == first and next(it2) == second


def test_fixed_pair_count_uses_all_slots():
    cfg = small_cfg(kv_pairs=8, seq_len=24)
    batch = mq.generate(cfg, 4)
    assert np.all(batch.query_mask.sum(axis=1) == 8)
    assert not (batch.tokens == cfg.pad_token).any()  # 3 * 8 fills seq_len


def test_vocab_and_pad_properties():
    cfg = small_cfg(num_keys=5, num_values=9)
    assert cfg.pad_token == 14
    assert cfg.vocab_size == 15
    assert cfg.pair_range == (4, 4)
    assert small_cfg(kv_pairs=(1, 3)).pair_range == (1, 3)


def test_config_validation():
    with pytest.raises(ConfigError):
        small_cfg(num_keys=0)
    with pytest.raises(ConfigError):
        small_cfg(kv_pairs=0)
    with pytest.raises(ConfigError):
        small_cfg(kv_pairs=(3, 2))
    with pytest.raises(ConfigError):
        small_cfg(kv_pairs=9)  # exceeds num_keys=8
    with pytest.raises(ConfigError):
        small_cfg(num_values=3)  # kv_pairs=4 exceeds num_values
    with pytest.raises(ConfigError):
        small_cfg(seq_len=11)  # 3 * 4 slots needed
    with pytest.raises(ConfigError):
        mq.generate(small_cfg(), 0)


def test_batch_shape_validation():
    toks = np.zeros((2, 5), dtype=np.int64)
    with pytest.raises(ShapeError):
        mq.MqarBatch(toks, np.zeros((2, 4), dtype=bool), toks.copy(), toks.copy())


class OneHotOracle:
    """Fake model that reads the targets it was given; argmax recovers them."""

    def __init__(self, batch: mq.MqarBatch, vocab: int, hit: bool = True):
        self.batch, self.vocab, self.hit = batch, vocab, hit

    def forward(self, tokens):
        b, n = tokens.shape
        logits = np.zeros((b, n, self.vocab))
        tgt = np.where(self.batch.targets >= 0, self.batch.targets, 0)
        if not self.hit:
            tgt = (tgt + 1) % self.vocab
        np.put_along_axis(logits, tgt[..., None], 1.0, axis=-1)
        return logits


def test_evaluate_perfect_and_zero_models():
    cfg = small_cfg(kv_pairs=(2, 6), seed=5)
    batch = mq.generate(cfg, 16)
    perfect = mq.evaluate(OneHotOracle(batch, cfg.vocab_size), batch)
    assert perfect["accuracy"] == 1.0
    assert perfect["n_queries"] == int(batch.query_mask.sum())
    assert all(v["accuracy"] == 1.0 for v in perfect["by_gap"].values())
    wrong = mq.evaluate(OneHotOracle(batch, cfg.vocab_size, hit=False), batch)
    assert wrong["accuracy"] == 0.0


def test_gap_buckets_partition_queries():
    cfg = small_cfg(kv_pairs=(2, 6), seed=11)
    batch = mq.generate(cfg, 32)
    report = mq.evaluate(OneHotOracle(batch, cfg.vocab_size), batch)
    assert sum(v["total"] for v in report["by_gap"].values()) == report["n_queries"]
    for edge, v in report["by_gap"].items():
        assert edge & (edge - 1) == 0  # power of two
        sel = batch.query_mask & (batch.gaps <= edge) & (batch.gaps > edge // 2)
        assert v["total"] == int(sel.sum())


def test_accuracy_split_extremes():
    cfg = small_cfg(seed=2)
    batch = mq.generate(cfg, 8)
    near, far = mq.accuracy_split(OneHotOracle(batch, cfg.vocab_size), batch, int(batch.gaps.max()))
    assert near == 1.0 and far == 0.0  # nothing lands in the far bucket
    near, far = mq.accuracy_split(OneHotOracle(batch, cfg.vocab_size), batch, 0)
    assert near == 0.0 and far == 1.0


def test_export_load_round_trip(tmp_path):
    cfg = small_cfg(kv_pairs=(2, 6), seed=13)
    batch = mq.generate(cfg, 6)
    path = tmp_path / "batch.txt"
    mq.export_batch(path, batch)
    assert mq.load_batch(path) == batch


def test_load_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 3\n#mask 0 0 1\n")
    with pytest.raises(ConfigError):
        mq.load_batch(path)
    path.write_text("1 2 3\n#oops 0 0 1\n#tgt -1 -1 2\n")
    with pytest.raises(ConfigError):
        mq.load_batch(path)


@pytest.mark.parametrize(
    "bad, message",
    [
        ("1 5 x\n#mask 0 0 1\n#tgt -1 -1 5", "invalid literal"),  # token not an integer
        ("1 5 1\n#mask 0 0 1\n#tgt -1 -1 5.0", "invalid literal"),  # target not an integer
        ("1 5 1\n#mask 0 0 y\n#tgt -1 -1 5", "must be 0 or 1"),
        ("1 5 2\n#mask 0 0 1\n#tgt -1 -1 5", "no earlier key"),  # query of a key never stored
        ("1 5\n#mask 0 0 1\n#tgt -1 -1 5", "differ in length"),
        ("1 5\n#mask 0 0\n#tgt -1 5", "differ in length"),  # shorter than sequence 0
        ("1 5 1\n#mask 0 0 1\n#tgt -1 -1 -1", "position 2 has target -1, not the value 5"),  # no target
        ("1 5 1\n#mask 0 0 1\n#tgt -1 -1 7", "position 2 has target 7, not the value 5"),  # wrong value
    ],
    ids=["token", "target", "mask", "unstored_key", "short_line", "short_sequence", "missing_target", "wrong_target"],
)
def test_load_names_file_and_sequence_of_bad_entries(tmp_path, bad, message):
    path = tmp_path / "bad.txt"
    path.write_text("1 5 1\n#mask 0 0 1\n#tgt -1 -1 5\n" + bad + "\n")
    with pytest.raises(ConfigError, match=message) as err:
        mq.load_batch(path)
    assert str(err.value).startswith(f"{path}: sequence 1: ")
