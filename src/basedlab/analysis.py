"""Closed-form state and data-movement accounting, plus the tradeoff sweep.

State sizes count the scalars a model must carry per sequence at decode
time; IO costs count element transfers for the featurized baseline versus
the fused schedule that featurizes in fast memory. Element counts are exact
integers; byte figures multiply by `bytes_per_element` (default 2, half
precision).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import feature_maps as fm
from . import linear_attention as la
from . import mqar as mq
from .errors import ConfigError, ParameterError, TrainingDiverged
from .model import HybridModel, ModelConfig, TrainConfig, build, train_mqar
from .tensor import Tensor

DEFAULT_BYTES_PER_ELEMENT = 2

ARCH_KINDS = ("Based", "Attention", "SlidingWindow", "Mamba", "H3", "Hyena")

_KIND_LOOKUP = {k.replace("_", "").lower(): k for k in ARCH_KINDS}

CSV_COLUMNS = ("arch", "d_model", "d_prime", "window", "heads", "state_elems", "state_bytes", "mqar_acc", "seed", "status")


@dataclass(frozen=True)
class ArchSpec:
    """One architecture point: only the fields its formula reads are required."""

    kind: str
    d: int
    n: int | None = None
    d_prime: int | None = None
    window: int | None = None
    d_state: int | None = None

    def __post_init__(self):
        canon = _KIND_LOOKUP.get(str(self.kind).replace("-", "").replace("_", "").lower())
        if canon is None:
            raise ConfigError(f"arch kind {self.kind!r}: expected one of {ARCH_KINDS}")
        object.__setattr__(self, "kind", canon)
        if self.d < 1:
            raise ConfigError(f"arch d={self.d}: must be >= 1")
        needed = {
            "Based": ("d_prime",),
            "Attention": ("n",),
            "SlidingWindow": ("n", "window"),
            "Mamba": ("d_state",),
            "H3": ("d_state",),
            "Hyena": ("n",),
        }[self.kind]
        for name in needed:
            value = getattr(self, name)
            if value is None or value < 1:
                raise ConfigError(f"arch kind {self.kind}: field {name} is required and must be >= 1")


@dataclass(frozen=True)
class StateSizeReport:
    elements: int
    bytes: int
    formula: str


def state_size(spec: ArchSpec, bytes_per_element: int = DEFAULT_BYTES_PER_ELEMENT) -> StateSizeReport:
    """Recurrent-state scalar count for one architecture."""
    if spec.kind == "Based":
        unique = fm.unique_dim(spec.d_prime)
        elements = (spec.d + 1) * unique
        formula = f"(d + 1) * (1 + 3d'/2 + d'^2/2) = {spec.d + 1} * {unique}"
    elif spec.kind == "Attention":
        elements = 2 * spec.d * spec.n
        formula = f"2 * d * N = 2 * {spec.d} * {spec.n}"
    elif spec.kind == "SlidingWindow":
        kept = min(spec.n, spec.window)
        elements = 2 * spec.d * kept
        formula = f"2 * d * min(N, w) = 2 * {spec.d} * {kept}"
    elif spec.kind == "Mamba":
        elements = 2 * spec.d * spec.d_state
        formula = f"2 * d * d_state = 2 * {spec.d} * {spec.d_state}"
    elif spec.kind == "H3":
        elements = spec.d * spec.d_state
        formula = f"d * d_state = {spec.d} * {spec.d_state}"
    else:  # Hyena
        elements = spec.d * spec.n
        formula = f"d * N = {spec.d} * {spec.n}"
    return StateSizeReport(elements, elements * bytes_per_element, formula)


def model_state_size(config: ModelConfig, n_tokens: int) -> int:
    """Exact decode-cache scalar count for a trainable config after n tokens.

    Linear-attention layers hold one (s, z) row per unique feature monomial;
    window layers hold 2 * head_dim * min(n, w) per head; conv layers hold
    the last taps - 1 layer-input rows.
    """
    if n_tokens < 0:
        raise ParameterError(f"n_tokens must be >= 0, got {n_tokens}")
    total = 0
    for ch in config.layer_pattern:
        if ch == "L":
            total += config.heads * fm.feature_dim(config.kind()) * (config.head_dim + 1)
        elif ch == "S":
            total += 2 * config.d_model * min(n_tokens, config.window)
        else:
            total += (config.conv_taps - 1) * config.d_model
    return total


# -- IO cost --------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseCost:
    hbm_sram: int
    sram_register: int


@dataclass(frozen=True)
class IoCostReport:
    """Element transfers by phase. `savings` is the featurize-phase HBM
    traffic the fused schedule avoids: exactly 2BHND elements."""

    mode: str
    featurize: PhaseCost
    read: PhaseCost
    write: PhaseCost
    savings: int
    bytes_per_element: int

    @property
    def hbm_total(self) -> int:
        return self.featurize.hbm_sram + self.read.hbm_sram + self.write.hbm_sram

    @property
    def hbm_bytes(self) -> int:
        return self.hbm_total * self.bytes_per_element


def io_cost_prefill(
    mode: str,
    b: int,
    h: int,
    n: int,
    d: int,
    d_prime: int,
    bytes_per_element: int = DEFAULT_BYTES_PER_ELEMENT,
    pad_tile: int | None = None,
) -> IoCostReport:
    """Transfer totals for one featurized-attention pass.

    The baseline featurizes q, k in HBM (writing 2BHND), re-reads them plus v,
    and streams O(BHNDd) through registers during the causal product. The
    fused mode reads raw q, k at width d', featurizes in fast memory, and
    keeps the running outer product in registers.
    """
    if mode not in ("baseline", "ours"):
        raise ConfigError(f"io mode {mode!r}: expected baseline or ours")
    for name, value in (("b", b), ("h", h), ("n", n), ("d", d), ("d_prime", d_prime)):
        if value < 1:
            raise ParameterError(f"io_cost_prefill: {name} must be >= 1, got {value}")
    bhn = b * h * n
    width = fm.dims(fm.taylor_exp2(d_prime), 1 if pad_tile is None else pad_tile).padded
    savings = 2 * bhn * width
    if mode == "baseline":
        featurize = PhaseCost(hbm_sram=2 * bhn * width, sram_register=0)
        read = PhaseCost(hbm_sram=2 * bhn * width + bhn * d, sram_register=bhn * width * d)
        write = PhaseCost(hbm_sram=bhn * d, sram_register=0)
    else:
        featurize = PhaseCost(hbm_sram=0, sram_register=0)
        read = PhaseCost(hbm_sram=2 * bhn * d_prime + bhn * d, sram_register=0)
        write = PhaseCost(hbm_sram=bhn * d, sram_register=0)
    return IoCostReport(mode, featurize, read, write, savings, bytes_per_element)


@dataclass(frozen=True)
class DecodeCostReport:
    """Per-token decode traffic: featurized q, k in plus v in and y out."""

    per_token_elements: int
    state_elements: int
    state_traffic: int
    bytes_per_element: int

    @property
    def per_token_bytes(self) -> int:
        return self.per_token_elements * self.bytes_per_element


def io_cost_decode(
    b: int,
    h: int,
    d: int,
    d_prime: int,
    bytes_per_element: int = DEFAULT_BYTES_PER_ELEMENT,
    pad_tile: int | None = None,
    state_resident: bool = True,
) -> DecodeCostReport:
    for name, value in (("b", b), ("h", h), ("d", d), ("d_prime", d_prime)):
        if value < 1:
            raise ParameterError(f"io_cost_decode: {name} must be >= 1, got {value}")
    width = fm.dims(fm.taylor_exp2(d_prime), 1 if pad_tile is None else pad_tile).padded
    per_token = b * h * (2 * width + 2 * d)
    state = b * h * width * d
    traffic = 0 if state_resident else 2 * state
    return DecodeCostReport(per_token, state, traffic, bytes_per_element)


def tiled_reference_run(params: la.LinAttnParams, u: Tensor | np.ndarray, chunk: int = 16) -> dict:
    """Run `attention_core`, the production core, at tiles of `chunk` rows
    without a graph (`la.chunked_forward`), counting element transfers.

    Returns {"output", "counters", "closed_form"}; the counters (the sizes
    of the slices the tiles read and write) and the closed form agree
    exactly, independent of chunk size.
    """
    counters = {"q_read": 0, "k_read": 0, "v_read": 0, "y_write": 0}
    out = la.chunked_forward(params, u, chunk=chunk, counter=counters)
    n = (u.data if isinstance(u, Tensor) else np.asarray(u)).shape[0]
    hn = params.heads * n
    closed_form = {
        "q_read": hn * params.d_prime,
        "k_read": hn * params.d_prime,
        "v_read": hn * params.head_dim,
        "y_write": hn * params.head_dim,
    }
    return {"output": out, "counters": counters, "closed_form": closed_form}


# -- tradeoff sweep ----------------------------------------------------------------


def sweep_point(
    arch: str,
    model_config: ModelConfig | None = None,
    train_config: TrainConfig | None = None,
    task: mq.MqarConfig | None = None,
    spec: ArchSpec | None = None,
    seed: int = 0,
) -> dict:
    """One grid entry: either a formula-only spec or a trainable config."""
    if (model_config is None) == (spec is None):
        raise ConfigError("sweep point needs exactly one of model_config or arch spec")
    if model_config is not None and (train_config is None or task is None):
        raise ConfigError("trainable sweep point needs train_config and task")
    return {
        "arch": arch,
        "model_config": model_config,
        "train_config": train_config,
        "task": task,
        "spec": spec,
        "seed": seed,
    }


def _run_point(point: dict, bytes_per_element: int) -> dict:
    row = dict.fromkeys(CSV_COLUMNS, "")
    row["arch"] = point["arch"]
    row["seed"] = point["seed"]
    if point["spec"] is not None:
        spec = point["spec"]
        report = state_size(spec, bytes_per_element)
        row.update(
            d_model=spec.d,
            d_prime=spec.d_prime if spec.d_prime is not None else "",
            window=spec.window if spec.window is not None else "",
            heads="",
            state_elems=report.elements,
            state_bytes=report.bytes,
            mqar_acc="",
            status="formula",
        )
        return row
    cfg: ModelConfig = point["model_config"]
    task: mq.MqarConfig = point["task"]
    elements = model_state_size(cfg, task.seq_len)
    row.update(
        d_model=cfg.d_model,
        d_prime=cfg.d_prime if "L" in cfg.layer_pattern else "",
        window=cfg.window if "S" in cfg.layer_pattern else "",
        heads=cfg.heads,
        state_elems=elements,
        state_bytes=elements * bytes_per_element,
    )
    model = build(cfg)
    eval_batch = mq.generate(task, 256, rng=np.random.default_rng(task.seed + 1))
    try:
        result = train_mqar(model, mq.stream(task, point["train_config"].batch_size), point["train_config"], eval_batch)
        row["mqar_acc"] = f"{result['final_accuracy']:.6f}"
        row["status"] = "ok"
    except TrainingDiverged:  # divergence is data, not a crash
        row["mqar_acc"] = ""
        row["status"] = "diverged"
    return row


def tradeoff_sweep(points: list[dict], bytes_per_element: int = DEFAULT_BYTES_PER_ELEMENT, jobs: int = 1) -> dict:
    """Run every grid point; returns rows plus per-family monotonicity flags.

    Within each arch family (sorted by state size), accuracy should not
    decrease as the state grows; `monotone` records whether it did. With
    jobs > 1, points run in isolated worker processes; the merge order is
    the input order either way.
    """
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or len(points) <= 1:
        rows = [_run_point(p, bytes_per_element) for p in points]
    else:
        from concurrent.futures import ProcessPoolExecutor
        from functools import partial

        with ProcessPoolExecutor(max_workers=min(jobs, len(points))) as pool:
            rows = list(pool.map(partial(_run_point, bytes_per_element=bytes_per_element), points))
    monotone = {}
    for arch in sorted({r["arch"] for r in rows}):
        fam = [r for r in rows if r["arch"] == arch and r["mqar_acc"] != ""]
        fam.sort(key=lambda r: r["state_elems"])
        accs = [float(r["mqar_acc"]) for r in fam]
        monotone[arch] = all(b >= a for a, b in zip(accs, accs[1:]))
    return {"rows": rows, "monotone": monotone}


def rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row[k] for k in CSV_COLUMNS})
    return buf.getvalue()


def rows_to_json(rows: list[dict]) -> str:
    """JSON mirror of the CSV: same keys, null for blank cells."""
    payload = [{k: (None if row[k] == "" else row[k]) for k in CSV_COLUMNS} for row in rows]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_sweep(out_dir: str | Path, result: dict) -> None:
    out = Path(out_dir)
    (out / "tradeoff.csv").write_text(rows_to_csv(result["rows"]))
    (out / "tradeoff.json").write_text(rows_to_json(result["rows"]))
    (out / "summary.json").write_text(json.dumps({"monotone": result["monotone"]}, sort_keys=True, indent=2) + "\n")
