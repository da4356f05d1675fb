"""Multi-query associative recall: store key-value pairs, answer shuffled queries.

A sequence lays out the pair region (key, value alternating), then every key
again in shuffled order as queries, then padding. The target at each query
position is the value bound to that key earlier in the sequence; accuracy is
measured at query positions only, bucketed by the query-to-key distance.

Token ranges are disjoint: keys in [0, num_keys), values in
[num_keys, num_keys + num_values), one padding token after both.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError, integer


@dataclass(frozen=True)
class MqarConfig:
    num_keys: int
    num_values: int
    seq_len: int
    kv_pairs: int | tuple[int, int]
    seed: int = 0

    def __post_init__(self):
        """Range checks; each message starts with the `task.<key>` it names."""
        for name in ("num_keys", "num_values", "seq_len"):
            integer(getattr(self, name), f"task.{name}:", 1, ConfigError)
        integer(self.seed, "task.seed:", 0, ConfigError)
        if isinstance(self.kv_pairs, (tuple, list)) and len(self.kv_pairs) != 2:
            raise ConfigError(f"task.kv_pairs: expected an integer or a (low, high) pair, got {self.kv_pairs!r}")
        lo, hi = (integer(k, "task.kv_pairs:", 1, ConfigError) for k in self.pair_range)
        if hi < lo:
            raise ConfigError(f"task.kv_pairs: range ({lo}, {hi}) is empty")
        if hi > self.num_keys:
            raise ConfigError(f"task.kv_pairs: {hi} exceeds num_keys={self.num_keys}; keys are drawn without replacement")
        if hi > self.num_values:
            raise ConfigError(f"task.kv_pairs: {hi} exceeds num_values={self.num_values}; values are drawn without replacement")
        if 3 * hi > self.seq_len:
            raise ConfigError(f"task.seq_len: {self.seq_len} is shorter than the {3 * hi} slots kv_pairs={hi} needs")

    @property
    def pair_range(self) -> tuple[int, int]:
        return tuple(self.kv_pairs) if isinstance(self.kv_pairs, (tuple, list)) else (self.kv_pairs,) * 2

    @property
    def pad_token(self) -> int:
        return self.num_keys + self.num_values

    @property
    def vocab_size(self) -> int:
        return self.num_keys + self.num_values + 1


@dataclass
class MqarBatch:
    """tokens/query_mask/targets/gaps all share shape (batch, seq_len).

    targets and gaps are -1 and 0 respectively outside query positions.
    """

    tokens: np.ndarray
    query_mask: np.ndarray
    targets: np.ndarray
    gaps: np.ndarray

    def __post_init__(self):
        shape = self.tokens.shape
        for name in ("query_mask", "targets", "gaps"):
            if getattr(self, name).shape != shape:
                raise ShapeError(f"{name} shape {getattr(self, name).shape} does not match tokens {shape}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MqarBatch)
            and np.array_equal(self.tokens, other.tokens)
            and np.array_equal(self.query_mask, other.query_mask)
            and np.array_equal(self.targets, other.targets)
            and np.array_equal(self.gaps, other.gaps)
        )


def _fill_sequence(cfg: MqarConfig, rng: np.random.Generator, tokens, mask, targets, gaps) -> None:
    lo, hi = cfg.pair_range
    pairs = int(rng.integers(lo, hi + 1)) if hi > lo else lo
    keys = rng.choice(cfg.num_keys, size=pairs, replace=False)
    values = rng.choice(cfg.num_values, size=pairs, replace=False) + cfg.num_keys
    order = rng.permutation(pairs)
    tokens[: 2 * pairs : 2] = keys
    tokens[1: 2 * pairs : 2] = values
    q0 = 2 * pairs
    tokens[q0: q0 + pairs] = keys[order]
    mask[q0: q0 + pairs] = True
    targets[q0: q0 + pairs] = values[order]
    gaps[q0: q0 + pairs] = (q0 + np.arange(pairs)) - 2 * order


def generate(cfg: MqarConfig, batch_size: int, rng: np.random.Generator | None = None) -> MqarBatch:
    """Draw a batch; deterministic in (cfg.seed, batch_size) when rng is None."""
    integer(batch_size, "generate: batch_size", 1, ConfigError)
    rng = rng or np.random.default_rng(cfg.seed)
    tokens = np.full((batch_size, cfg.seq_len), cfg.pad_token, dtype=np.int64)
    mask = np.zeros((batch_size, cfg.seq_len), dtype=bool)
    targets = np.full((batch_size, cfg.seq_len), -1, dtype=np.int64)
    gaps = np.zeros((batch_size, cfg.seq_len), dtype=np.int64)
    for b in range(batch_size):
        _fill_sequence(cfg, rng, tokens[b], mask[b], targets[b], gaps[b])
    return MqarBatch(tokens, mask, targets, gaps)


def stream(cfg: MqarConfig, batch_size: int):
    """Endless batch iterator drawing from one seeded generator."""
    rng = np.random.default_rng(cfg.seed)
    while True:
        yield generate(cfg, batch_size, rng=rng)


def _correct(model, batch: MqarBatch) -> np.ndarray:
    """Greedy hits: True where a query position's argmax is its target."""
    with T.no_grad():
        logits = model.forward(batch.tokens)
    pred = np.argmax(logits.data if hasattr(logits, "data") else logits, axis=-1)
    return (pred == batch.targets) & batch.query_mask


def evaluate(model, batch: MqarBatch) -> dict:
    """Greedy accuracy at query positions, overall and per gap bucket.

    Buckets are labeled by their power-of-two upper edge: gap g lands in the
    smallest 2^k >= g. Returns {"accuracy", "n_queries", "by_gap"} where
    by_gap maps edge -> {"correct", "total", "accuracy"}.
    """
    mask = batch.query_mask
    correct = _correct(model, batch)
    n = int(mask.sum())
    by_gap: dict[int, dict] = {}
    edges = np.zeros_like(batch.gaps)
    live = batch.gaps > 0
    edges[live] = 2 ** np.ceil(np.log2(batch.gaps[live])).astype(np.int64)
    for edge in sorted(int(e) for e in np.unique(edges[mask])):
        sel = mask & (edges == edge)
        total = int(sel.sum())
        hit = int(correct[sel].sum())
        by_gap[edge] = {"correct": hit, "total": total, "accuracy": hit / total}
    return {
        "accuracy": float(correct.sum() / n) if n else 0.0,
        "n_queries": n,
        "by_gap": by_gap,
    }


def accuracy_split(model, batch: MqarBatch, gap_threshold: int) -> tuple[float, float]:
    """Accuracy over queries with gap <= threshold and gap > threshold."""
    correct = _correct(model, batch)
    near = batch.query_mask & (batch.gaps <= gap_threshold)
    far = batch.query_mask & (batch.gaps > gap_threshold)
    acc = lambda sel: float(correct[sel].sum() / sel.sum()) if sel.any() else 0.0
    return acc(near), acc(far)


def export_batch(path: str | Path, batch: MqarBatch) -> None:
    """Three lines per sequence: tokens, then '#mask' and '#tgt' sidecars."""
    lines = []
    for b in range(batch.tokens.shape[0]):
        lines.append(" ".join(str(t) for t in batch.tokens[b]))
        lines.append("#mask " + " ".join("1" if m else "0" for m in batch.query_mask[b]))
        lines.append("#tgt " + " ".join(str(t) for t in batch.targets[b]))
    Path(path).write_text("\n".join(lines) + "\n")


def load_batch(path: str | Path) -> MqarBatch:
    """Inverse of `export_batch`; gaps are recomputed from tokens and mask.
    A malformed file, or a query whose target is not the token after its
    key's first occurrence, raises ConfigError naming it and the sequence."""
    lines = Path(path).read_text().splitlines()
    if len(lines) % 3:
        raise ConfigError(f"{path}: expected 3 lines per sequence, got {len(lines)} lines")

    def ints(text: str, seq: int) -> list[int]:
        try:
            return [int(t) for t in text.split()]
        except ValueError as err:  # names the entry: invalid literal for int() ...: 'x'
            raise ConfigError(f"{path}: sequence {seq}: {err}") from None

    tokens, masks, targets = [], [], []
    for i in range(0, len(lines), 3):
        mask_line, tgt_line = lines[i + 1], lines[i + 2]
        if not mask_line.startswith("#mask ") or not tgt_line.startswith("#tgt "):
            raise ConfigError(f"{path}: malformed sidecar lines at sequence {i // 3}")
        flags = mask_line[len("#mask "):].split()
        if set(flags) - {"0", "1"}:
            raise ConfigError(f"{path}: sequence {i // 3}: #mask entries must be 0 or 1")
        tokens.append(ints(lines[i], i // 3))
        masks.append([f == "1" for f in flags])
        targets.append(ints(tgt_line[len("#tgt "):], i // 3))
        if len({len(tokens[0]), len(tokens[-1]), len(masks[-1]), len(targets[-1])}) > 1:
            raise ConfigError(f"{path}: sequence {i // 3}: lines differ in length from each other or sequence 0")
    tokens = np.asarray(tokens, dtype=np.int64)
    mask = np.asarray(masks, dtype=bool)
    targets = np.asarray(targets, dtype=np.int64)
    gaps = np.zeros_like(tokens)
    for b in range(tokens.shape[0]):
        for i in np.nonzero(mask[b])[0]:
            earlier = np.nonzero(tokens[b, :i] == tokens[b, i])[0]
            if not earlier.size:
                raise ConfigError(f"{path}: sequence {b}: the query at position {i} has no earlier key")
            key = earlier[0]
            if targets[b, i] != tokens[b, key + 1]:
                raise ConfigError(f"{path}: sequence {b}: the query at position {i} has target {targets[b, i]}, "
                                  f"not the value {tokens[b, key + 1]} bound to its key at position {key}")
            gaps[b, i] = i - key
    return MqarBatch(tokens, mask, targets, gaps)
