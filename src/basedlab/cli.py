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
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis
from . import mqar as mq
from . import theory
from .errors import BasedLabError, ConfigError, integer
from .model import HybridModel, ModelConfig, TrainConfig, at_least, build, from_json, load_checkpoint, save_checkpoint, train_mqar

log = logging.getLogger("basedlab")


@dataclass(frozen=True)
class TaskConfig(mq.MqarConfig):
    """The `task` section: the recall task, plus the sequences per batch and
    the batch files `mqar-gen` writes."""

    num_keys: int = 32
    num_values: int = 32
    seq_len: int = 64
    kv_pairs: int | tuple[int, int] = 8
    batch_size: int = 64
    batches: int = 1

    def __post_init__(self):
        super().__post_init__()
        at_least(self, "task", 1, ("batch_size", "batches"))


@dataclass(frozen=True)
class SweepConfig:
    d_primes: tuple[int, ...] = (4, 8, 16)

    def __post_init__(self):
        if not self.d_primes:
            raise ConfigError("sweep.d_primes: expected a non-empty list of integers")


@dataclass(frozen=True)
class AnalysisConfig:
    arch: str = "Based"
    d: int = 64
    n: int | None = None
    d_prime: int = 16
    window: int | None = None
    d_state: int | None = None
    bytes_per_element: int = 2

    def __post_init__(self):
        at_least(self, "analysis", 1, ("bytes_per_element",))


@dataclass(frozen=True)
class IoConfig:
    b: int = 1
    h: int = 16
    n: int = 1024
    d: int = 64
    d_prime: int = 16
    bytes_per_element: int = 2
    pad_tile: int | None = None
    state_resident: bool = True

    def __post_init__(self):
        at_least(self, "io", 1, ("b", "h", "n", "d", "d_prime", "bytes_per_element", "pad_tile"))


@dataclass(frozen=True, eq=False)
class RunConfig:
    """All six sections; equal to its JSON form, which resolved-config.json holds."""

    model: ModelConfig
    train: TrainConfig
    task: TaskConfig
    sweep: SweepConfig
    analysis: AnalysisConfig
    io: IoConfig

    def __eq__(self, other) -> bool:
        as_json = lambda c: json.loads(_json_text(asdict(c))) if isinstance(c, RunConfig) else c
        return as_json(self) == as_json(other)


def parse_config(path: str | None, seed_override: int | None = None) -> RunConfig:
    """Load, validate, and fully resolve a run config.

    Absent file or sections mean pure defaults; the model vocabulary defaults
    to the task's. The result re-parses to itself, which is what makes
    resolved-config.json a complete record.
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
        if key not in RunConfig.__annotations__:
            raise ConfigError(f"{key}: unknown section")
    task = from_json(TaskConfig, "task", raw.get("task", {}))
    model = from_json(ModelConfig, "model", raw.get("model", {}), vocab=task.vocab_size)
    if seed_override is not None:
        task, model = replace(task, seed=seed_override), replace(model, seed=seed_override)
    return RunConfig(
        model=model,
        train=from_json(TrainConfig, "train", raw.get("train", {})),
        task=task,
        sweep=from_json(SweepConfig, "sweep", raw.get("sweep", {})),
        analysis=from_json(AnalysisConfig, "analysis", raw.get("analysis", {})),
        io=from_json(IoConfig, "io", raw.get("io", {})),
    )


def _check_fits(model: ModelConfig, task: TaskConfig) -> None:
    """The model's vocabulary must cover every token the task draws."""
    if model.vocab < task.vocab_size:
        raise ConfigError(f"model.vocab={model.vocab} is smaller than the task vocabulary {task.vocab_size}")


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


def _write_resolved(out: Path | None, config: RunConfig) -> None:
    if out is not None:
        (out / "resolved-config.json").write_text(_json_text(asdict(config)))


# -- subcommands ----------------------------------------------------------------


def _cmd_mqar_gen(args, config: RunConfig) -> int:
    task = config.task
    out = _prepare_out(args.out, args.force, tuple(f"batch_{b:03d}.txt" for b in range(task.batches)), required=True)
    rng = np.random.default_rng(task.seed)
    for b in range(task.batches):
        mq.export_batch(out / f"batch_{b:03d}.txt", mq.generate(task, task.batch_size, rng=rng))
    _write_resolved(out, config)
    print(f"wrote {task.batches} batch file(s) of {task.batch_size} sequences to {out}")
    return 0


def _train_artifacts(out: Path, config: RunConfig, model: HybridModel, result: dict) -> None:
    lines = ["step,lr,loss,grad_norm,clipped,eval_accuracy"]
    for row in result["metrics"]:
        acc = row.get("eval_accuracy")
        lines.append(f"{row['step']},{row['lr']!r},{row['loss']!r},{row['grad_norm']!r},{int(row['clipped'])},"
                     f"{'' if acc is None else repr(acc)}")
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


def _cmd_train(args, config: RunConfig) -> int:
    out = _prepare_out(args.out, args.force, ("metrics.csv", "report.json", "model.ckpt"), required=True)
    tcfg, task = config.train, config.task
    _check_fits(config.model, task)
    model = build(config.model)
    eval_batch = mq.generate(task, 256, rng=np.random.default_rng(task.seed + 1))
    log.info("training %s steps on MQAR(%s keys, %s pairs, N=%s)", tcfg.steps, task.num_keys, task.kv_pairs, task.seq_len)
    result = train_mqar(model, mq.stream(task, tcfg.batch_size), tcfg, eval_batch)
    _train_artifacts(out, config, model, result)
    loss = result["final_loss"]
    print(f"trained {len(result['metrics'])} steps: final loss {loss:.6f}, eval accuracy {result['final_accuracy']:.4f} -> {out}")
    return 0


def _cmd_eval(args, config: RunConfig) -> int:
    out = _prepare_out(args.out, args.force, ("report.json",), required=False)
    model = load_checkpoint(args.checkpoint)
    task = config.task
    _check_fits(model.config, task)
    batch = mq.generate(task, task.batch_size, rng=np.random.default_rng(task.seed + 1))
    result = mq.evaluate(model, batch)
    print(f"accuracy {result['accuracy']:.4f} over {result['n_queries']} queries")
    for edge in sorted(result["by_gap"]):
        bucket = result["by_gap"][edge]
        print(f"  gap <= {edge}: {bucket['accuracy']:.4f} ({bucket['correct']}/{bucket['total']})")
    if out is not None:
        (out / "report.json").write_text(_json_text({"accuracy": result["accuracy"], "n_queries": result["n_queries"], "by_gap": {str(k): v for k, v in result["by_gap"].items()}}))
        _write_resolved(out, config)
    return 0


def _cmd_tradeoff(args, config: RunConfig) -> int:
    out = _prepare_out(args.out, args.force, ("tradeoff.csv", "tradeoff.json", "summary.json"), required=True)
    base = config.model
    _check_fits(base, config.task)
    points = [
        analysis.sweep_point("Based", model_config=replace(base, d_prime=dp), train_config=config.train, task=config.task, seed=base.seed)
        for dp in config.sweep.d_primes
    ]
    log.info("sweeping %d points with %d worker(s)", len(points), args.jobs)
    result = analysis.tradeoff_sweep(points, bytes_per_element=config.analysis.bytes_per_element, jobs=args.jobs)
    analysis.write_sweep(out, result)
    _write_resolved(out, config)
    for row in result["rows"]:
        print(f"d'={row['d_prime']}: state {row['state_elems']} elements, accuracy {row['mqar_acc'] or 'n/a'} [{row['status']}]")
    for arch, ok in result["monotone"].items():
        print(f"{arch}: accuracy monotone in state size: {'yes' if ok else 'no'}")
    return 0


def _cmd_statesize(args, config: RunConfig) -> int:
    out = _prepare_out(args.out, args.force, ("report.json",), required=False)
    a = config.analysis
    spec = analysis.ArchSpec(kind=a.arch, d=a.d, n=a.n, d_prime=a.d_prime, window=a.window, d_state=a.d_state)
    report = analysis.state_size(spec, a.bytes_per_element)
    print(f"{spec.kind}: {report.elements} elements ({report.bytes} bytes)  [{report.formula}]")
    if out is not None:
        (out / "report.json").write_text(_json_text({"arch": spec.kind, "elements": report.elements, "bytes": report.bytes, "formula": report.formula}))
        _write_resolved(out, config)
    return 0


def _cmd_iocost(args, config: RunConfig) -> int:
    out = _prepare_out(args.out, args.force, ("report.json",), required=False)
    io = config.io
    shape = (io.b, io.h, io.n, io.d, io.d_prime, io.bytes_per_element, io.pad_tile)
    baseline = analysis.io_cost_prefill("baseline", *shape)
    ours = analysis.io_cost_prefill("ours", *shape)
    decode = analysis.io_cost_decode(io.b, io.h, io.d, io.d_prime, io.bytes_per_element, io.pad_tile, io.state_resident)
    print(f"prefill baseline: {baseline.hbm_total} elements HBM ({baseline.hbm_bytes} bytes)")
    print(f"prefill fused:    {ours.hbm_total} elements HBM ({ours.hbm_bytes} bytes)")
    print(f"featurize-phase savings: {ours.savings} elements ({ours.savings * io.bytes_per_element} bytes)")
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


def _cmd_verify(args, config: RunConfig) -> int:
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


# subcommand -> (handler, help)
_HANDLERS = {
    "mqar-gen": (_cmd_mqar_gen, "write recall-task batches as text files"),
    "train": (_cmd_train, "train a model on the recall task and checkpoint it"),
    "eval": (_cmd_eval, "evaluate a checkpoint on freshly drawn recall data"),
    "tradeoff": (_cmd_tradeoff, "train across feature dimensions and tabulate state vs accuracy"),
    "statesize": (_cmd_statesize, "print the recurrent-state size formula for one architecture"),
    "iocost": (_cmd_iocost, "print the prefill/decode data-movement model"),
    "verify": (_cmd_verify, "run the exhaustive theory checks (exit 1 on any failure)"),
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
    for name, (_, help_text) in _HANDLERS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
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
        if args.seed is not None:
            integer(args.seed, "--seed", 0, ConfigError)
        integer(args.jobs, "--jobs", 1, ConfigError)
        config = parse_config(args.config, args.seed)
        return _HANDLERS[args.command][0](args, config)
    except (ConfigError, OSError) as err:  # OSError: a path that cannot be read or written, e.g. missing or a directory
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BasedLabError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
