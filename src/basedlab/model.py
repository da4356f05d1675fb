"""Hybrid decoder stacks: gated-conv, linear-attention, and window layers.

A model is an embedding, a list of pre-norm residual mixer blocks chosen by a
pattern string over {C, L, S}, a final RMS norm, and a vocabulary head.
Training runs the parallel (autodiff) paths; decoding runs constant-memory
recurrent paths whose per-layer caches hold exactly the scalar counts the
analysis module predicts.

Leaf parameter buffers are mutated only by the optimizer between steps;
every forward builds a fresh graph, so this never invalidates recorded ops.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import baseconv as bc
from . import feature_maps as fm
from . import linear_attention as la
from . import sliding_window as sw
from . import tensor as T
from .errors import ConfigError, InputError, ShapeError, TrainingDiverged
from .mqar import MqarBatch
from .tensor import Tensor

_NORM_EPS = 1e-6
_PATTERN_CYCLE = "CLCS"
_DTYPES = {"f64": np.float64, "f32": np.float32}


def default_layer_pattern(num_layers: int) -> str:
    """Cycle C, L, C, S truncated to the requested depth."""
    if num_layers < 1:
        raise ConfigError(f"num_layers must be >= 1, got {num_layers}")
    reps = (num_layers + len(_PATTERN_CYCLE) - 1) // len(_PATTERN_CYCLE)
    return (_PATTERN_CYCLE * reps)[:num_layers]


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
        if self.vocab < 2:
            raise ConfigError(f"model.vocab: need >= 2 tokens, got {self.vocab}")
        if self.d_model < 1 or self.heads < 1 or self.d_model % self.heads:
            raise ConfigError(f"model.d_model={self.d_model} must be a positive multiple of heads={self.heads}")
        if self.d_prime < 1:
            raise ConfigError(f"model.d_prime: must be >= 1, got {self.d_prime}")
        if self.window < 1:
            raise ConfigError(f"model.window: must be >= 1, got {self.window}")
        if not self.layer_pattern or set(self.layer_pattern) - set("CLS"):
            raise ConfigError(f"model.layer_pattern: must be a nonempty string over C/L/S, got {self.layer_pattern!r}")
        if self.dtype not in _DTYPES:
            raise ConfigError(f"model.dtype: expected one of {sorted(_DTYPES)}, got {self.dtype!r}")
        if self.feature_map not in fm.TAGS:
            raise ConfigError(f"model.feature_map: expected one of {fm.TAGS}, got {self.feature_map!r}")
        if self.conv_taps < 1 or self.conv_expand < 1:
            raise ConfigError("model.conv_taps and model.conv_expand must be >= 1")
        if self.mlp_width < 1:
            raise ConfigError(f"model.mlp_width: must be >= 1, got {self.mlp_width}")
        if self.head_mixing and not self.use_decay:
            raise ConfigError("model.head_mixing requires model.use_decay")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.heads

    def kind(self) -> fm.FeatureMapKind:
        return fm.FeatureMapKind(self.feature_map, self.d_prime)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = {f.name for f in fields(cls)}
        for key in d:
            if key not in known:
                raise ConfigError(f"model.{key}: unknown key")
        return cls(**d)


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
            prefix = f"layers.{i}"
            out.append((f"{prefix}.norm", layer.norm))
            m = layer.mixer
            if layer.kind == "L":
                out += [(f"{prefix}.wq", m.wq), (f"{prefix}.wk", m.wk), (f"{prefix}.wv", m.wv), (f"{prefix}.wo", m.wo)]
                if m.decay is not None and m.decay.w_mix is not None:
                    out.append((f"{prefix}.w_mix", m.decay.w_mix))
            elif layer.kind == "S":
                out += [(f"{prefix}.wq", m.wq), (f"{prefix}.wk", m.wk), (f"{prefix}.wv", m.wv), (f"{prefix}.wo", m.wo)]
            else:
                out += [
                    (f"{prefix}.w1", m.w1), (f"{prefix}.w2", m.w2), (f"{prefix}.w3", m.w3),
                    (f"{prefix}.b1", m.b1), (f"{prefix}.b2", m.b2), (f"{prefix}.b3", m.b3),
                    (f"{prefix}.filt", m.filt),
                ]
            if layer.mlp is not None:
                out += [
                    (f"{prefix}.mlp_norm", layer.mlp_norm),
                    (f"{prefix}.w_gate", layer.mlp.w_gate),
                    (f"{prefix}.w_up", layer.mlp.w_up),
                    (f"{prefix}.w_down", layer.mlp.w_down),
                ]
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
        """Logits for (N,) or (batch, N) token ids."""
        tokens = np.asarray(tokens)
        if tokens.size == 0:
            raise InputError("forward: empty token sequence")
        if tokens.min() < 0 or tokens.max() >= self.config.vocab:
            raise InputError(f"forward: token outside [0, {self.config.vocab})")
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

    # -- decode -------------------------------------------------------------------

    def start_decode(self) -> "DecodeState":
        return DecodeState(self)

    def decode(self, prefix: np.ndarray, n_new: int) -> np.ndarray:
        """Greedy continuation; ties resolve to the lowest token id."""
        prefix = np.asarray(prefix)
        if prefix.ndim != 1 or prefix.size == 0:
            raise InputError("decode: prefix must be a nonempty 1-D token sequence")
        state = self.start_decode()
        logits = None
        for t in prefix:
            logits = state.step(int(t))
        out = []
        for _ in range(n_new):
            nxt = int(np.argmax(logits))
            out.append(nxt)
            logits = state.step(nxt)
        return np.asarray(out, dtype=np.int64)

    def decode_logits(self, tokens: np.ndarray) -> np.ndarray:
        """Per-position logits from the recurrent path over a fixed sequence."""
        state = self.start_decode()
        return np.stack([state.step(int(t)) for t in np.asarray(tokens)])


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


class _ConvTail:
    """Last taps-1 up-projected rows, oldest first (zeros = causal padding)."""

    def __init__(self, params: bc.GatedBaseConv, dtype):
        self.tail = np.zeros((params.taps - 1, params.expanded), dtype=dtype)
        self.params = params

    def scalar_count(self) -> int:
        return self.tail.size

    def step(self, x: np.ndarray) -> np.ndarray:
        p = self.params
        row = x @ p.w2.data
        conv = p.filt.data[0] * row
        for t in range(1, p.taps):
            conv = conv + p.filt.data[t] * self.tail[-t]
        if p.taps > 1:
            self.tail = np.concatenate([self.tail[1:], row[None, :]])
        pre = conv + p.b2.data
        gated = (x @ p.w1.data + p.b1.data) * (pre * T.sigmoid_np(pre))
        return gated @ p.w3.data + p.b3.data


class DecodeState:
    """Per-layer caches for one greedy decode stream."""

    def __init__(self, model: HybridModel):
        self.model = model
        dtype = _DTYPES[model.config.dtype]
        self.caches = []
        for layer in model.layers:
            if layer.kind == "L":
                self.caches.append(la.LinAttnState.zeros(layer.mixer, dtype))
            elif layer.kind == "S":
                self.caches.append(sw.WindowCache(layer.mixer, dtype))
            else:
                self.caches.append(_ConvTail(layer.mixer, dtype))
        self.t = 0

    def scalar_count(self) -> int:
        """Scalars held by all decode caches right now."""
        return sum(c.scalar_count() for c in self.caches)

    def step(self, token: int) -> np.ndarray:
        model = self.model
        cfg = model.config
        if not 0 <= token < cfg.vocab:
            raise InputError(f"decode: token {token} outside [0, {cfg.vocab})")
        x = model.embedding.data[token].copy()
        for layer, cache in zip(model.layers, self.caches):
            h = _rms_row(x, layer.norm.data)
            if layer.kind == "S":
                cache, mixed = sw.decode_step(layer.mixer, cache, h)
            else:
                mixed = cache.step(h)
            x = x + mixed
            if layer.mlp is not None:
                h = _rms_row(x, layer.mlp_norm.data)
                g = h @ layer.mlp.w_gate.data
                inner = (g * T.sigmoid_np(g)) * (h @ layer.mlp.w_up.data)
                x = x + inner @ layer.mlp.w_down.data
        x = _rms_row(x, model.final_norm.data)
        head = model.embedding.data.T if model.head is None else model.head.data
        self.t += 1
        return x @ head


def _rms_row(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    return x / math.sqrt(float((x * x).mean()) + _NORM_EPS) * w


# -- training -------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    steps: int
    batch_size: int
    lr: float
    min_lr: float = 0.0
    schedule: str = "cosine"
    warmup: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.95
    adam_eps: float = 1e-8
    grad_clip: float = 1.0
    eval_every: int = 0

    def __post_init__(self):
        if self.steps < 0 or self.batch_size < 1:
            raise ConfigError(f"train.steps={self.steps} / train.batch_size={self.batch_size} invalid")
        if self.lr < 0 or self.min_lr < 0:
            raise ConfigError("train.lr and train.min_lr must be >= 0")
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
    loss, naming the step. Returns {"metrics": [...], "final_loss": float}
    plus "final_accuracy" when an eval batch is given.
    """
    from .mqar import evaluate  # local import keeps module load acyclic

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
        loss.backward()
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
        if tcfg.grad_clip > 0:
            norm = math.sqrt(sum(float((g * g).sum()) for g in grads))
            if norm > tcfg.grad_clip:
                scale = tcfg.grad_clip / norm
                grads = [g * scale for g in grads]
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
        entry = {"step": step, "loss": loss_val, "lr": lr}
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
    magic or format, a section cut short, or bytes after the last section.
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
    config = ModelConfig.from_dict(json.loads(take(cfg_len).decode()))
    (n_params,) = struct.unpack("<I", take(4))
    model = build(config)
    table = dict(model.named_parameters())
    if len(table) != n_params:
        raise ConfigError(f"{path}: checkpoint has {n_params} sections, model expects {len(table)}")
    dtype = _DTYPES[config.dtype]
    for _ in range(n_params):
        (name_len,) = struct.unpack("<I", take(4))
        name = take(name_len).decode()
        (rank,) = struct.unpack("<Q", take(8))
        shape = struct.unpack(f"<{rank}Q", take(8 * rank))
        values = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape)
        if name not in table:
            raise ConfigError(f"{path}: unexpected parameter section {name!r}")
        if table[name].shape != tuple(shape):
            raise ShapeError(f"{path}: section {name!r} has shape {tuple(shape)}, model expects {table[name].shape}")
        table[name].data = values.astype(dtype)
    if off != len(raw):
        raise ConfigError(f"{path}: {len(raw) - off} trailing bytes after the last section")
    return model
