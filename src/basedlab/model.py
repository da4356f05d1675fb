"""Hybrid decoder stacks: gated-conv, linear-attention, and window layers.

A model is an embedding, a list of pre-norm residual mixer blocks chosen by a
pattern string over {C, L, S}, a final RMS norm, and a vocabulary head.
Training runs the parallel (autodiff) paths; decoding runs constant-memory
recurrent paths whose per-layer caches hold exactly the scalar counts the
analysis module predicts.

Leaf parameter buffers are replaced only by the optimizer between steps, after
the backward. A forward whose every core holds N in one tile records its
whole graph; a longer one records none, and its backward recomputes the
forward with the graph (Chen et al. 2016's recompute, which the cores also
run per tile), so after it only the logits are held.

A forward that records no graph (under `T.no_grad()`, or the pass of a
forward past one tile) streams: it walks the sequence in blocks of BLOCK
rows, each through every layer before the next block starts, and each layer
carries its context from block to block in its decode cache (`block`). So
only a few blocks' transients are alive at a time, and the logits equal the
recorded forward's bit for bit. The blocks run as a two-stage pipeline: the
calling thread runs the first ceil(L/2) layers, one helper thread the rest
and the final norm one block behind it, so a second core works while numpy
and BLAS release the GIL. Each cache is touched by one thread only, in block
order, so the arithmetic is that of a serial loop. Decode runs the same
layer loop one row at a time through each cache's `step`, on one thread.
"""

from __future__ import annotations

import json
import math
import struct
import sys
import types
import typing
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import baseconv as bc
from . import feature_maps as fm
from . import linear_attention as la
from . import sliding_window as sw
from . import tensor as T
from .errors import ConfigError, InputError, TrainingDiverged, integer
from .mqar import MqarBatch, evaluate
from .tensor import Tensor

_NORM_EPS = 1e-6
_DTYPES = {"f64": np.float64, "f32": np.float32}
# layer kind -> the rows one tile of its core holds
_TILES = {"L": la.CORE_TILE, "S": sw.WINDOW_TILE, "C": bc.CONV_TILE}
# rows per block of the streamed forward: a multiple of every tile above, so
# each core keeps the recorded forward's tile boundaries
BLOCK = 256


@dataclass(frozen=True)
class ModelConfig:
    vocab: int
    d_model: int = 64
    heads: int = 1
    d_prime: int = 16
    window: int = 64
    layer_pattern: str = "CL"
    seed: int = 0
    dtype: str = "f64"
    feature_map: str = "TaylorExp2"
    conv_taps: int = 3
    conv_expand: int = 4
    rotary: bool = True
    use_decay: bool = False
    head_mixing: bool = False
    include_mlp: bool = False
    mlp_width: int = 2
    tie_embeddings: bool = False

    def __post_init__(self):
        object.__setattr__(self, "layer_pattern", self.layer_pattern.replace(" ", "").upper())
        at_least(self, "model", 2, ("vocab",))
        at_least(self, "model", 1, ("d_model", "heads", "d_prime", "window", "conv_taps", "conv_expand", "mlp_width"))
        at_least(self, "model", 0, ("seed",))
        if self.d_model % self.heads:
            raise ConfigError(f"model.d_model={self.d_model} must be a multiple of heads={self.heads}")
        if not self.layer_pattern or set(self.layer_pattern) - set("CLS"):
            raise ConfigError(f"model.layer_pattern: must be a nonempty string over C/L/S, got {self.layer_pattern!r}")
        if self.dtype not in _DTYPES:
            raise ConfigError(f"model.dtype: expected one of {sorted(_DTYPES)}, got {self.dtype!r}")
        if self.feature_map not in fm.TAGS:
            raise ConfigError(f"model.feature_map: expected one of {fm.TAGS}, got {self.feature_map!r}")
        if self.head_mixing and not self.use_decay:
            raise ConfigError("model.head_mixing requires model.use_decay")
        if self.rotary and "S" in self.layer_pattern and self.head_dim % 2:
            raise ConfigError(f"model.rotary: S layers need an even head dim d_model/heads, got {self.head_dim}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.heads

    def kind(self) -> fm.FeatureMapKind:
        return fm.FeatureMapKind(self.feature_map, self.d_prime)

    def to_dict(self) -> dict:
        return asdict(self)


def from_json(cls, section: str, raw, **defaults):
    """The config dataclass `cls` from the JSON object `raw`, whose keys must
    be fields of `cls` with values of their annotated types (a JSON integer is
    a float, a list a tuple). Left-out fields take `defaults`, then the class
    defaults; __post_init__ checks ranges. Errors name section.key."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{section}: expected a JSON object, got {type(raw).__name__}")
    hints = typing.get_type_hints(cls)
    values = dict(defaults)
    for key, value in raw.items():
        if key not in hints:
            raise ConfigError(f"{section}.{key}: unknown key")
        if not _fits(value, hints[key]):
            written = {f.name: f.type for f in fields(cls)}[key]
            raise ConfigError(f"{section}.{key}: expected {written}, got {value!r}")
        values[key] = tuple(value) if type(value) is list else float(value) if hints[key] is float else value
    for f in fields(cls):
        if f.name not in values and f.default is MISSING:
            raise ConfigError(f"{section}.{f.name}: required")
    return cls(**values)


def _fits(value, tp) -> bool:
    """Whether a JSON value has the type of annotation `tp`."""
    if isinstance(tp, types.UnionType):
        return any(_fits(value, arm) for arm in typing.get_args(tp))
    if typing.get_origin(tp) is tuple:
        args = typing.get_args(tp)
        arms = args[:1] * len(value) if args[-1] is Ellipsis and type(value) is list else args
        return type(value) is list and len(value) == len(arms) and all(map(_fits, value, arms))
    if tp is float:  # finite, which also bounds an integer to the float range
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return type(value) is tp


def at_least(config, section: str, minimum: int, names: tuple[str, ...]) -> None:
    """ConfigError naming section.name for the first of the integer fields
    `names` that is set but not an integer >= `minimum`."""
    for name in names:
        value = getattr(config, name)
        if value is not None:
            integer(value, f"{section}.{name}:", minimum, ConfigError)


@dataclass
class MlpParams:
    """SwiGLU block: (silu(u Wg) .* (u Wu)) Wd."""

    w_gate: Tensor
    w_up: Tensor
    w_down: Tensor


@dataclass
class Layer:
    kind: str
    norm: Tensor
    mixer: object
    mlp_norm: Tensor | None = None
    mlp: MlpParams | None = None


class HybridModel:
    def __init__(self, config: ModelConfig, embedding: Tensor, layers: list[Layer], final_norm: Tensor, head: Tensor | None):
        self.config = config
        self.embedding = embedding
        self.layers = layers
        self.final_norm = final_norm
        self.head = head

    # -- parameters -----------------------------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = [("embedding", self.embedding)]
        for i, layer in enumerate(self.layers):
            out += _tensor_fields(layer, f"layers.{i}")
        out.append(("final_norm", self.final_norm))
        if self.head is not None:
            out.append(("head", self.head))
        return out

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def num_parameters(self) -> int:
        return sum(t.size for t in self.parameters())

    # -- forward ----------------------------------------------------------------

    def forward(self, tokens: np.ndarray) -> Tensor:
        """Logits for (N,) or (batch, N) token ids.

        When every core runs the N positions in one tile (N <= 64 with an L or
        S layer, N <= 128 for C layers alone; every train shape) the forward
        records its whole graph, and each core keeps its tile for the backward.
        Past that it records none: it streams (`_stream`) and returns a tensor
        of one graph node whose parents are the parameters, and whose backward
        reruns the recorded forward on a copy of the token ids and
        backpropagates the incoming gradient through it. That backward reads
        the parameters as they are when it runs, so they must not be replaced
        between forward and backward (`T.matmul`'s backward already reads them
        then). Under `T.no_grad()` the forward streams and returns a plain
        tensor with no graph. Either way the logits equal the recorded
        forward's bit for bit.
        """
        tokens = np.asarray(tokens)
        if tokens.ndim not in (1, 2):
            raise InputError(f"forward: expected (N,) or (batch, N) token ids, got shape {tokens.shape}")
        if tokens.size == 0:
            raise InputError("forward: empty token sequence")
        if tokens.dtype.kind not in "iu":
            raise InputError(f"forward: token ids must be integers, got dtype {tokens.dtype}")
        if tokens.min() < 0 or tokens.max() >= self.config.vocab:
            raise InputError(f"forward: token outside [0, {self.config.vocab})")
        params = self.parameters()
        if not T.recording(*params):
            return T.from_op(self._stream(tokens), (), None)
        if tokens.shape[-1] <= min(_TILES[layer.kind] for layer in self.layers):
            return self._logits(tokens)
        ids = tokens.copy()

        def backward(grad):
            with T.enable_grad():
                T.backprop(self._logits(ids), grad)

        return T.from_op(self._stream(ids), params, backward)

    def _logits(self, tokens: np.ndarray) -> Tensor:
        """The forward's layers on checked token ids, recording the graph as `T.recording` says."""
        x = T.take_rows(self.embedding, tokens)
        for layer in self.layers:
            mixed = self._mix(layer, T.rms_norm(x, layer.norm, _NORM_EPS))
            x = T.add(x, mixed)
            if layer.mlp is not None:
                h = T.rms_norm(x, layer.mlp_norm, _NORM_EPS)
                inner = T.mul(T.silu(T.matmul(h, layer.mlp.w_gate)), T.matmul(h, layer.mlp.w_up))
                x = T.add(x, T.matmul(inner, layer.mlp.w_down))
        x = T.rms_norm(x, self.final_norm, _NORM_EPS)
        head = T.transpose(self.embedding, (1, 0)) if self.head is None else self.head
        return T.matmul(x, head)

    def _mix(self, layer: Layer, h: Tensor) -> Tensor:
        if layer.kind == "L":
            return la.parallel_forward(layer.mixer, h)
        if layer.kind == "S":
            return sw.swa_forward(layer.mixer, h)
        return bc.forward_gated(layer.mixer, h)

    def _stream(self, tokens: np.ndarray) -> np.ndarray:
        """`_logits`' values on checked token ids, with no graph and a few
        blocks' transients at a time: blocks of BLOCK rows, each through every
        layer (`_layers`), the layers' decode caches carrying the context.

        The blocks run as a two-stage pipeline on two threads. The calling
        thread runs block b through the first ceil(L/2) layers while one
        helper thread runs block b-1 through the rest and the final norm, so
        the two halves overlap where numpy and BLAS release the GIL. Each
        cache is touched by one thread only, in block order, so each layer
        sees the same rows as in a serial loop. The helper is joined before
        this returns or raises, and an error on either thread surfaces here
        with its own type (of two, the one a serial loop would meet first).

        Bit-identical to `_logits` because blocks start at multiples of
        BLOCK, no block has one row (numpy sends a one-row product to gemv,
        which rounds differently, so a one-row tail joins the block before
        it), and the head multiplies all N final-norm rows at once, on the
        calling thread after the last block, as blocks of that product also
        round differently."""
        n = tokens.shape[-1]
        caches = [_CACHES[layer.kind](layer.mixer) for layer in self.layers]
        normed = np.empty(tokens.shape + (self.config.d_model,), self.embedding.dtype)
        starts = list(range(0, n, BLOCK))
        if n > 1 and n % BLOCK == 1:
            starts.pop()
        half = -(-len(self.layers) // 2)
        # imported on first use: concurrent.futures loads logging and queue, which
        # would add 4 ms and a dozen modules to every `import basedlab`
        from concurrent.futures import ThreadPoolExecutor

        def finish(s: int, e: int, x: np.ndarray) -> None:
            normed[..., s:e, :] = _layers(self, x, caches, "block", slice(half, None))

        behind = None  # the helper's block, read before the next is handed over
        with ThreadPoolExecutor(max_workers=1) as helper:
            try:
                for s, e in zip(starts, starts[1:] + [n]):
                    x = _layers(self, self.embedding.data[tokens[..., s:e]], caches, "block", slice(half), norm=False)
                    if behind is not None:
                        behind.result()
                    behind = helper.submit(finish, s, e, x)
            finally:  # also when this thread raised: block b-1's error comes first, as in a serial loop
                if behind is not None:
                    behind.result()
        return normed @ np.ascontiguousarray(_head(self))

    # -- decode -------------------------------------------------------------------

    def start_decode(self) -> "DecodeState":
        return DecodeState(self)

    def decode(self, prefix: np.ndarray, n_new: int) -> np.ndarray:
        """Greedy continuation; ties resolve to the lowest token id."""
        integer(n_new, "decode: n_new", 0, InputError)
        state = self.start_decode()
        logits = _step_all(state, prefix, "decode")[-1]
        out = []
        for _ in range(n_new):
            nxt = int(np.argmax(logits))
            out.append(nxt)
            logits = state.step(nxt)
        return np.asarray(out, dtype=np.int64)

    def decode_logits(self, tokens: np.ndarray) -> np.ndarray:
        """Per-position logits from the recurrent path over a fixed sequence."""
        return _step_all(self.start_decode(), tokens, "decode_logits")


def _step_all(state: "DecodeState", tokens, where: str) -> np.ndarray:
    """The (N, vocab) logits of stepping each of a nonempty 1-D token sequence."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 1 or tokens.size == 0:
        raise InputError(f"{where}: expected a nonempty 1-D token sequence, got shape {tokens.shape}")
    return np.stack([state.step(t) for t in tokens])


def _tensor_fields(params, prefix: str) -> list[tuple[str, Tensor]]:
    """Tensor fields of a parameter dataclass and of the dataclasses it holds,
    in field order, each named prefix.field."""
    out = []
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, Tensor):
            out.append((f"{prefix}.{f.name}", value))
        elif is_dataclass(value):
            out += _tensor_fields(value, prefix)
    return out


def build(config: ModelConfig) -> HybridModel:
    """Deterministic init: scaled normals (std 0.02), zero biases, unit norms."""
    rng = np.random.default_rng(config.seed)
    dtype = _DTYPES[config.dtype]
    dm = config.d_model

    def ones(width):
        return Tensor(np.ones(width, dtype=dtype), requires_grad=True)

    embedding = T.init_normal(rng, config.vocab, dm, dtype)
    layers = []
    for ch in config.layer_pattern:
        norm = ones(dm)
        if ch == "L":
            decay = None
            if config.use_decay:
                w_mix = T.init_normal(rng, dm, config.heads, dtype) if config.head_mixing else None
                decay = la.DecayConfig(la.default_decay_gammas(config.heads), w_mix)
            mixer = la.create(dm, config.heads, config.d_prime, kind=config.kind(), decay=decay, rng=rng, dtype=dtype)
        elif ch == "S":
            mixer = sw.create(dm, config.heads, config.window, rotary=config.rotary, rng=rng, dtype=dtype)
        else:
            mixer = bc.create_gated(dm, expand=config.conv_expand, taps=config.conv_taps, rng=rng, dtype=dtype)
        mlp_norm = mlp = None
        if config.include_mlp:
            mlp_norm = ones(dm)
            width = config.mlp_width * dm
            mlp = MlpParams(
                w_gate=T.init_normal(rng, dm, width, dtype),
                w_up=T.init_normal(rng, dm, width, dtype),
                w_down=T.init_normal(rng, width, dm, dtype),
            )
        layers.append(Layer(ch, norm, mixer, mlp_norm, mlp))
    final_norm = ones(dm)
    head = None if config.tie_embeddings else T.init_normal(rng, dm, config.vocab, dtype)
    return HybridModel(config, embedding, layers, final_norm, head)


# -- constant-memory decode state ------------------------------------------------


# layer kind -> decode cache class, built from the layer's parameters alone
_CACHES = {"L": la.LinAttnState, "S": sw.WindowCache, "C": bc.ConvCache}


class DecodeState:
    """Per-layer caches for one greedy decode stream; each cache's `step`
    runs one layer-input row through its layer."""

    def __init__(self, model: HybridModel):
        self.model = model
        self.caches = [_CACHES[layer.kind](layer.mixer) for layer in model.layers]

    def scalar_count(self) -> int:
        """Scalars held by all decode caches right now."""
        return sum(c.scalar_count() for c in self.caches)

    def step(self, token: int) -> np.ndarray:
        """The (vocab,) logits after one more token. It runs the streamed
        forward's layer loop (`_layers`) on one row, through each cache's
        one-row `step` rather than a one-row `block`: decode is bound by
        per-call overhead, and `step` skips the block's tile loop and
        concatenations (the L step folds, then reads, with no tile at all)."""
        model = self.model
        if integer(token, "decode: token id", 0, InputError) >= model.config.vocab:
            raise InputError(f"decode: token {token} outside [0, {model.config.vocab})")
        return _layers(model, model.embedding.data[token], self.caches, "step") @ _head(model)


def _layers(model: HybridModel, x: np.ndarray, caches: list, method: str, part: slice = slice(None), norm: bool = True) -> np.ndarray:
    """Rows `x` (the embeddings, or the output of the layers before `part`)
    after the `part` of the layers, then the final norm if `norm`, without
    the graph: each mixer through its cache's `method` ("block" or "step"),
    each norm, MLP and residual as `_logits` computes it, so bit for bit."""
    for layer, cache in zip(model.layers[part], caches[part]):
        x = x + getattr(cache, method)(_rms(x, layer.norm.data))
        if layer.mlp is not None:
            h = _rms(x, layer.mlp_norm.data)
            x = x + (T.silu_np(h @ layer.mlp.w_gate.data) * (h @ layer.mlp.w_up.data)) @ layer.mlp.w_down.data
    return _rms(x, model.final_norm.data) if norm else x


def _rms(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    return T.rms_np(x, _NORM_EPS)[0] * w


def _head(model: HybridModel) -> np.ndarray:
    """The (d_model, vocab) head: the embedding's transpose when tied."""
    return model.embedding.data.T if model.head is None else model.head.data


# -- training -------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 2000
    batch_size: int = 16
    lr: float = 2e-3
    min_lr: float = 0.0
    schedule: str = "cosine"
    warmup: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.95
    adam_eps: float = 1e-8
    grad_clip: float = 1.0
    eval_every: int = 0

    def __post_init__(self):
        at_least(self, "train", 0, ("steps", "eval_every"))
        at_least(self, "train", 1, ("batch_size",))
        for name in ("lr", "min_lr"):  # floats, so a plain range check
            if not getattr(self, name) >= 0:
                raise ConfigError(f"train.{name}: must be >= 0, got {getattr(self, name)}")
        if not 0 <= self.warmup < 1:
            raise ConfigError(f"train.warmup: fraction in [0, 1), got {self.warmup}")
        if self.schedule not in ("cosine", "constant"):
            raise ConfigError(f"train.schedule: expected cosine or constant, got {self.schedule!r}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("train.beta1/beta2 must lie in [0, 1)")
        if self.adam_eps <= 0 or self.grad_clip < 0:
            raise ConfigError("train.adam_eps must be > 0 and train.grad_clip >= 0")

    def lr_at(self, step: int) -> float:
        warm = int(round(self.warmup * self.steps)) if self.warmup > 0 else 0
        if step < warm:
            return self.lr * (step + 1) / warm
        if self.schedule == "constant":
            return self.lr
        span = max(1, self.steps - warm)
        progress = min(1.0, (step - warm) / span)
        return self.min_lr + 0.5 * (self.lr - self.min_lr) * (1.0 + math.cos(math.pi * progress))


def train_mqar(model: HybridModel, data, tcfg: TrainConfig, eval_batch: MqarBatch | None = None) -> dict:
    """Adam on cross-entropy at query positions; fully seed-deterministic.

    `data` yields MqarBatch objects. Raises TrainingDiverged on a non-finite
    loss or gradient norm, naming the step, before the update. Returns
    {"metrics": [...], "final_loss": float} plus "final_accuracy" when an
    eval batch is given; each metrics entry holds the step, lr, loss, the
    pre-clip global gradient norm and whether it was clipped.
    """
    params = model.parameters()
    m_buf = [np.zeros_like(p.data) for p in params]
    v_buf = [np.zeros_like(p.data) for p in params]
    metrics = []
    batches = iter(data)
    loss_val = float("nan")
    for step in range(tcfg.steps):
        batch = next(batches)
        logits = model.forward(batch.tokens)
        loss = T.cross_entropy_masked(logits, batch.targets, batch.query_mask)
        loss_val = loss.item()
        if not math.isfinite(loss_val):
            raise TrainingDiverged(step, f"non-finite loss at step {step}")
        for p in params:
            p.grad = None
        # logits and loss keep the step's graph until the next forward has
        # returned: dropping it here frees the whole step, so malloc hands the
        # backward's scratch back to the OS and every backward faults it in again
        loss.backward()
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
        norm = math.sqrt(sum(float((g * g).sum()) for g in grads))
        if not math.isfinite(norm):
            raise TrainingDiverged(step, f"non-finite gradient norm at step {step}")
        clipped = 0 < tcfg.grad_clip < norm
        if clipped:
            grads = [g * (tcfg.grad_clip / norm) for g in grads]
        lr = tcfg.lr_at(step)
        t = step + 1
        bc1 = 1.0 - tcfg.beta1 ** t
        bc2 = 1.0 - tcfg.beta2 ** t
        for p, g, m, v in zip(params, grads, m_buf, v_buf):
            m *= tcfg.beta1
            m += (1.0 - tcfg.beta1) * g
            v *= tcfg.beta2
            v += (1.0 - tcfg.beta2) * (g * g)
            p.data = p.data - (lr / bc1) * m / (np.sqrt(v / bc2) + tcfg.adam_eps)
        entry = {"step": step, "loss": loss_val, "lr": lr, "grad_norm": norm, "clipped": clipped}
        if eval_batch is not None and tcfg.eval_every and (step + 1) % tcfg.eval_every == 0:
            entry["eval_accuracy"] = evaluate(model, eval_batch)["accuracy"]
        metrics.append(entry)
    out = {"metrics": metrics, "final_loss": loss_val}
    if eval_batch is not None:
        out["final_accuracy"] = evaluate(model, eval_batch)["accuracy"]
    return out


# -- checkpoints -------------------------------------------------------------------

_MAGIC = b"BASL"
_FORMAT = 1


def save_checkpoint(path: str | Path, model: HybridModel) -> None:
    """Magic, format word, canonical-JSON config, then named float64 sections."""
    blobs = [_MAGIC, struct.pack("<I", _FORMAT)]
    cfg = json.dumps(model.config.to_dict(), sort_keys=True, separators=(",", ":")).encode()
    blobs.append(struct.pack("<Q", len(cfg)))
    blobs.append(cfg)
    named = model.named_parameters()
    blobs.append(struct.pack("<I", len(named)))
    for name, t in named:
        raw = name.encode()
        blobs.append(struct.pack("<I", len(raw)))
        blobs.append(raw)
        blobs.append(struct.pack("<Q", t.ndim))
        blobs.append(struct.pack(f"<{t.ndim}Q", *t.shape))
        blobs.append(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(blobs))


def load_checkpoint(path: str | Path) -> HybridModel:
    """Rebuild the model and restore parameters bit-exactly.

    Raises ConfigError on a file that is not exactly one checkpoint: bad
    magic or format, a config that is not a UTF-8 JSON object, a section cut
    short, misnamed, repeated, misshapen or non-finite, or bytes after the
    last section.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise ConfigError(f"{path}: not a checkpoint (bad magic)")
    off = 4

    def take(size: int) -> bytes:
        nonlocal off
        if off + size > len(raw):
            raise ConfigError(f"{path}: truncated checkpoint ({len(raw)} bytes, needs at least {off + size})")
        off += size
        return raw[off - size:off]

    (fmt,) = struct.unpack("<I", take(4))
    if fmt != _FORMAT:
        raise ConfigError(f"{path}: unsupported checkpoint format {fmt}")
    (cfg_len,) = struct.unpack("<Q", take(8))
    header = take(cfg_len)
    try:
        config = from_json(ModelConfig, "model", json.loads(header.decode()))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ConfigError(f"{path}: config is not UTF-8 JSON ({err})") from None
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from None
    (n_params,) = struct.unpack("<I", take(4))
    model = build(config)
    table = dict(model.named_parameters())
    if len(table) != n_params:
        raise ConfigError(f"{path}: checkpoint has {n_params} sections, model expects {len(table)}")
    dtype = _DTYPES[config.dtype]
    loaded: set[str] = set()
    for _ in range(n_params):
        (name_len,) = struct.unpack("<I", take(4))
        name = take(name_len).decode(errors="replace")  # a name that is not UTF-8 matches no section
        (rank,) = struct.unpack("<Q", take(8))
        shape = struct.unpack(f"<{rank}Q", take(8 * rank))
        values = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape)
        if name not in table:
            raise ConfigError(f"{path}: unexpected parameter section {name!r}")
        if name in loaded:
            raise ConfigError(f"{path}: parameter section {name!r} appears twice")
        loaded.add(name)
        if table[name].shape != tuple(shape):
            raise ConfigError(f"{path}: section {name!r} has shape {tuple(shape)}, model expects {table[name].shape}")
        if not np.isfinite(values).all():
            raise ConfigError(f"{path}: section {name!r} holds non-finite values")
        table[name].data = values.astype(dtype)
    if off != len(raw):
        raise ConfigError(f"{path}: {len(raw) - off} trailing bytes after the last section")
    return model
