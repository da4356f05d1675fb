"""Command-line front end: data generation, training, evaluation, sweeps,
cost reports, and the exhaustive theory checks.

Every run resolves its JSON config (unknown keys are fatal, defaults fill the
rest), writes `resolved-config.json` next to its outputs, and is byte-for-byte
reproducible from that file. Exit codes: 0 success, 1 failed check or
diverged run, 2 config problem or a file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis
from . import mqar as mq
from . import theory
from .errors import BasedLabError, ConfigError
from .model import HybridModel, ModelConfig, TrainConfig, build, load_checkpoint, save_checkpoint, train_mqar

log = logging.getLogger("basedlab")

_SECTIONS = ("model", "train", "task", "sweep", "analysis", "io")

_TASK_DEFAULTS = {
    "num_keys": 32,
    "num_values": 32,
    "seq_len": 64,
    "kv_pairs": 8,
    "seed": 0,
    "batch_size": 64,
    "batches": 1,
}

_TRAIN_DEFAULTS = {
    "steps": 2000,
    "batch_size": 16,
    "lr": 2e-3,
    "min_lr": 0.0,
    "schedule": "cosine",
    "warmup": 0.01,
    "beta1": 0.9,
    "beta2": 0.95,
    "adam_eps": 1e-8,
    "grad_clip": 1.0,
    "eval_every": 0,
}

_SWEEP_DEFAULTS = {"d_primes": [4, 8, 16]}

_ANALYSIS_DEFAULTS = {
    "arch": "Based",
    "d": 64,
    "n": None,
    "d_prime": 16,
    "window": None,
    "d_state": None,
    "bytes_per_element": 2,
}

_IO_DEFAULTS = {
    "b": 1,
    "h": 16,
    "n": 1024,
    "d": 64,
    "d_prime": 16,
    "bytes_per_element": 2,
    "pad_tile": None,
    "state_resident": True,
}

# keys that may be null or a positive int
_OPTIONAL_INT = {"analysis.n", "analysis.window", "analysis.d_state", "io.pad_tile"}

# counts and sizes that must be >= 1 when set
_POSITIVE = {
    "task.batches", "task.batch_size", "analysis.bytes_per_element",
    "io.b", "io.h", "io.n", "io.d", "io.d_prime", "io.bytes_per_element", "io.pad_tile",
}


def _check_value(path: str, value, default):
    if path in _OPTIONAL_INT:
        if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
            raise ConfigError(f"{path}: expected an integer or null")
        return value
    if path.endswith(".kv_pairs"):
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        if isinstance(value, list) and len(value) == 2 and all(isinstance(v, int) and not isinstance(v, bool) for v in value):
            return value
        raise ConfigError(f"{path}: expected an integer or a [lo, hi] pair")
    if path.endswith(".d_primes"):
        if not isinstance(value, list) or not value or not all(isinstance(v, int) and not isinstance(v, bool) for v in value):
            raise ConfigError(f"{path}: expected a non-empty list of integers")
        return value
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected true or false")
    elif isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer")
    elif isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number")
        value = float(value)
    elif isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string")
    return value


def _resolve_section(name: str, raw, defaults: dict) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{name}: expected a JSON object")
    for key in raw:
        if key not in defaults:
            raise ConfigError(f"{name}.{key}: unknown key")
    out = dict(defaults)
    for key, value in raw.items():
        path = f"{name}.{key}"
        out[key] = _check_value(path, value, defaults[key])
        if path in _POSITIVE and value is not None and value < 1:
            raise ConfigError(f"{path}: must be >= 1, got {value}")
    return out


def task_config(task: dict) -> mq.MqarConfig:
    kv = task["kv_pairs"]
    if isinstance(kv, list):
        kv = (kv[0], kv[1])
    return mq.MqarConfig(task["num_keys"], task["num_values"], task["seq_len"], kv, task["seed"])


def parse_config(path: str | None, seed_override: int | None = None) -> dict:
    """Load, validate, and fully resolve a run config.

    Absent file or sections mean pure defaults. The returned dict re-parses
    to itself, which is what makes resolved-config.json a complete record.
    """
    raw = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as err:
            raise ConfigError(f"{path}: not UTF-8 text (byte {err.start})") from None
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}: invalid JSON at line {err.lineno} column {err.colno}: {err.msg}")
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be a JSON object")
    for key in raw:
        if key not in _SECTIONS:
            raise ConfigError(f"{key}: unknown section")

    task = _resolve_section("task", raw.get("task", {}), _TASK_DEFAULTS)
    if seed_override is not None:
        task["seed"] = seed_override
    task_cfg = task_config(task)  # validates counts and lengths

    model_raw = raw.get("model", {})
    if not isinstance(model_raw, dict):
        raise ConfigError("model: expected a JSON object")
    model_raw = dict(model_raw)
    model_raw.setdefault("vocab", task_cfg.vocab_size)
    if seed_override is not None:
        model_raw["seed"] = seed_override
    model = ModelConfig.from_dict(model_raw)

    train = _resolve_section("train", raw.get("train", {}), _TRAIN_DEFAULTS)
    TrainConfig(**train)

    return {
        "model": model.to_dict(),
        "train": train,
        "task": task,
        "sweep": _resolve_section("sweep", raw.get("sweep", {}), _SWEEP_DEFAULTS),
        "analysis": _resolve_section("analysis", raw.get("analysis", {}), _ANALYSIS_DEFAULTS),
        "io": _resolve_section("io", raw.get("io", {}), _IO_DEFAULTS),
    }


# -- output plumbing ----------------------------------------------------------


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _finite_or_none(x: float):
    return float(x) if np.isfinite(x) else None


def _prepare_out(out: str | None, force: bool, names: tuple[str, ...], required: bool) -> Path | None:
    if out is None:
        if required:
            raise ConfigError("this subcommand writes artifacts; pass --out DIR")
        return None
    path = Path(out)
    if path.exists():
        for name in names + ("resolved-config.json",):
            if (path / name).exists() and not force:
                raise ConfigError(f"{path / name} exists; pass --force to overwrite")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_resolved(out: Path | None, config: dict) -> None:
    if out is not None:
        (out / "resolved-config.json").write_text(_json_text(config))


# -- subcommands ----------------------------------------------------------------


def _cmd_mqar_gen(args, config) -> int:
    task = config["task"]
    out = _prepare_out(args.out, args.force, tuple(f"batch_{b:03d}.txt" for b in range(task["batches"])), required=True)
    cfg = task_config(task)
    rng = np.random.default_rng(cfg.seed)
    for b in range(task["batches"]):
        mq.export_batch(out / f"batch_{b:03d}.txt", mq.generate(cfg, task["batch_size"], rng=rng))
    _write_resolved(out, config)
    print(f"wrote {task['batches']} batch file(s) of {task['batch_size']} sequences to {out}")
    return 0


def _train_artifacts(out: Path, config: dict, model: HybridModel, result: dict) -> None:
    lines = ["step,lr,loss,eval_accuracy"]
    for row in result["metrics"]:
        acc = row.get("eval_accuracy")
        lines.append(f"{row['step']},{row['lr']!r},{row['loss']!r},{'' if acc is None else repr(acc)}")
    (out / "metrics.csv").write_text("\n".join(lines) + "\n")
    report = {
        "final_loss": _finite_or_none(result["final_loss"]),
        "final_accuracy": result.get("final_accuracy"),
        "steps": len(result["metrics"]),
        "parameters": model.num_parameters(),
    }
    (out / "report.json").write_text(_json_text(report))
    save_checkpoint(out / "model.ckpt", model)
    _write_resolved(out, config)


def _cmd_train(args, config) -> int:
    out = _prepare_out(args.out, args.force, ("metrics.csv", "report.json", "model.ckpt"), required=True)
    model_cfg = ModelConfig.from_dict(config["model"])
    tcfg = TrainConfig(**config["train"])
    task_cfg = task_config(config["task"])
    if model_cfg.vocab < task_cfg.vocab_size:
        raise ConfigError(f"model.vocab={model_cfg.vocab} is smaller than the task vocabulary {task_cfg.vocab_size}")
    model = build(model_cfg)
    eval_batch = mq.generate(task_cfg, 256, rng=np.random.default_rng(task_cfg.seed + 1))
    log.info("training %s steps on MQAR(%s keys, %s pairs, N=%s)", tcfg.steps, task_cfg.num_keys, task_cfg.kv_pairs, task_cfg.seq_len)
    result = train_mqar(model, mq.stream(task_cfg, tcfg.batch_size), tcfg, eval_batch)
    _train_artifacts(out, config, model, result)
    loss = result["final_loss"]
    print(f"trained {len(result['metrics'])} steps: final loss {loss:.6f}, eval accuracy {result['final_accuracy']:.4f} -> {out}")
    return 0


def _cmd_eval(args, config) -> int:
    out = _prepare_out(args.out, args.force, ("report.json",), required=False)
    model = load_checkpoint(args.checkpoint)
    task_cfg = task_config(config["task"])
    batch = mq.generate(task_cfg, config["task"]["batch_size"], rng=np.random.default_rng(task_cfg.seed + 1))
    result = mq.evaluate(model, batch)
    print(f"accuracy {result['accuracy']:.4f} over {result['n_queries']} queries")
    for edge in sorted(result["by_gap"]):
        bucket = result["by_gap"][edge]
        print(f"  gap <= {edge}: {bucket['accuracy']:.4f} ({bucket['correct']}/{bucket['total']})")
    if out is not None:
        (out / "report.json").write_text(_json_text({"accuracy": result["accuracy"], "n_queries": result["n_queries"], "by_gap": {str(k): v for k, v in result["by_gap"].items()}}))
        _write_resolved(out, config)
    return 0


def _cmd_tradeoff(args, config) -> int:
    out = _prepare_out(args.out, args.force, ("tradeoff.csv", "tradeoff.json", "summary.json"), required=True)
    base = ModelConfig.from_dict(config["model"])
    tcfg = TrainConfig(**config["train"])
    task_cfg = task_config(config["task"])
    points = [
        analysis.sweep_point("Based", model_config=replace(base, d_prime=dp), train_config=tcfg, task=task_cfg, seed=base.seed)
        for dp in config["sweep"]["d_primes"]
    ]
    log.info("sweeping %d points with %d worker(s)", len(points), args.jobs)
    result = analysis.tradeoff_sweep(points, bytes_per_element=config["analysis"]["bytes_per_element"], jobs=args.jobs)
    analysis.write_sweep(out, result)
    _write_resolved(out, config)
    for row in result["rows"]:
        print(f"d'={row['d_prime']}: state {row['state_elems']} elements, accuracy {row['mqar_acc'] or 'n/a'} [{row['status']}]")
    for arch, ok in result["monotone"].items():
        print(f"{arch}: accuracy monotone in state size: {'yes' if ok else 'no'}")
    return 0


def _cmd_statesize(args, config) -> int:
    out = _prepare_out(args.out, args.force, ("report.json",), required=False)
    a = config["analysis"]
    spec = analysis.ArchSpec(kind=a["arch"], d=a["d"], n=a["n"], d_prime=a["d_prime"], window=a["window"], d_state=a["d_state"])
    report = analysis.state_size(spec, a["bytes_per_element"])
    print(f"{spec.kind}: {report.elements} elements ({report.bytes} bytes)  [{report.formula}]")
    if out is not None:
        (out / "report.json").write_text(_json_text({"arch": spec.kind, "elements": report.elements, "bytes": report.bytes, "formula": report.formula}))
        _write_resolved(out, config)
    return 0


def _cmd_iocost(args, config) -> int:
    out = _prepare_out(args.out, args.force, ("report.json",), required=False)
    io = config["io"]
    b, h, n, d, dp = io["b"], io["h"], io["n"], io["d"], io["d_prime"]
    bpe, tile = io["bytes_per_element"], io["pad_tile"]
    baseline = analysis.io_cost_prefill("baseline", b, h, n, d, dp, bpe, tile)
    ours = analysis.io_cost_prefill("ours", b, h, n, d, dp, bpe, tile)
    decode = analysis.io_cost_decode(b, h, d, dp, bpe, tile, io["state_resident"])
    print(f"prefill baseline: {baseline.hbm_total} elements HBM ({baseline.hbm_bytes} bytes)")
    print(f"prefill fused:    {ours.hbm_total} elements HBM ({ours.hbm_bytes} bytes)")
    print(f"featurize-phase savings: {ours.savings} elements ({ours.savings * bpe} bytes)")
    print(f"decode per token: {decode.per_token_elements} elements; state {decode.state_elements} elements")
    if out is not None:
        payload = {
            "baseline": {"featurize": baseline.featurize.hbm_sram, "read": baseline.read.hbm_sram, "write": baseline.write.hbm_sram, "sram_register": baseline.read.sram_register, "hbm_total": baseline.hbm_total},
            "ours": {"featurize": ours.featurize.hbm_sram, "read": ours.read.hbm_sram, "write": ours.write.hbm_sram, "hbm_total": ours.hbm_total},
            "savings": ours.savings,
            "decode": {"per_token": decode.per_token_elements, "state": decode.state_elements, "state_traffic": decode.state_traffic},
        }
        (out / "report.json").write_text(_json_text(payload))
        _write_resolved(out, config)
    return 0


def _cmd_verify(args, config) -> int:
    out = _prepare_out(args.out, args.force, ("report.json",), required=False)
    results = theory.run_all_checks()
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name} ({r.instances} instances)")
    if out is not None:
        (out / "report.json").write_text(_json_text([{"name": r.name, "passed": r.passed, "instances": r.instances} for r in results]))
        _write_resolved(out, config)
    if all(r.passed for r in results):
        return 0
    print("one or more theory checks failed", file=sys.stderr)
    return 1


_HANDLERS = {
    "mqar-gen": _cmd_mqar_gen,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "tradeoff": _cmd_tradeoff,
    "statesize": _cmd_statesize,
    "iocost": _cmd_iocost,
    "verify": _cmd_verify,
}

_HELP = {
    "mqar-gen": "write recall-task batches as text files",
    "train": "train a model on the recall task and checkpoint it",
    "eval": "evaluate a checkpoint on freshly drawn recall data",
    "tradeoff": "train across feature dimensions and tabulate state vs accuracy",
    "statesize": "print the recurrent-state size formula for one architecture",
    "iocost": "print the prefill/decode data-movement model",
    "verify": "run the exhaustive theory checks (exit 1 on any failure)",
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON run config; defaults apply when omitted")
    common.add_argument("--out", metavar="DIR", help="output directory (resolved-config.json is written alongside artifacts)")
    common.add_argument("--seed", type=int, metavar="U64", help="override model and task seeds")
    common.add_argument("--jobs", type=int, default=1, metavar="N", help="worker processes for sweeps (default 1)")
    common.add_argument("--force", action="store_true", help="allow overwriting existing outputs")
    parser = argparse.ArgumentParser(prog="basedlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _HANDLERS.items():
        p = sub.add_parser(name, parents=[common], help=_HELP[name])
        if name == "eval":
            p.add_argument("--checkpoint", metavar="PATH", required=True, help="checkpoint written by the train subcommand")
    return parser


def _log_level() -> int:
    name = os.environ.get("BASEDLAB_LOG", "error")
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if name not in levels:
        raise ConfigError(f"BASEDLAB_LOG: expected error, info, or debug, got {name!r}")
    return levels[name]


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        logging.basicConfig(level=_log_level(), stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        config = parse_config(args.config, args.seed)
        return _HANDLERS[args.command](args, config)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:  # a path that cannot be read or written, e.g. missing or a directory
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BasedLabError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
