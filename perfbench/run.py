"""Run one basedlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_cl --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from `src/` next
to this directory, never from an installed copy. The lines printed before
the last name every metric with its unit and sample count; the last line is
one JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones, and the spans go to perfbench/out/. The exit code is 0 when
every correctness gate passed, 1 when one failed and 2 when the package
cannot be found.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
# The keys of workloads.WORKLOADS, which cannot be imported before the BLAS pin.
WORKLOAD_NAMES = ("train_cl", "train_cs", "prefill_long", "decode_streams")
# One BLAS thread (at most nproc on any box): one process with no worker threads.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def load_package() -> tuple[float, list[str]]:
    """Pin BLAS threads, import basedlab from ./src.

    Returns the seconds `import basedlab` took and the names of the modules
    that import added to `sys.modules`, which `import_seconds` imports again.
    numpy is imported first and untimed: no change to basedlab moves it, and
    it would double the noise of `setup_s`.
    """
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "basedlab", "__init__.py")):
        raise ImportError(f"no basedlab sources under {src}")
    sys.path.insert(0, src)
    import numpy  # noqa: F401

    before = set(sys.modules)
    start = time.perf_counter()
    import basedlab

    elapsed = time.perf_counter() - start
    if not os.path.abspath(basedlab.__file__).startswith(src + os.sep):
        raise ImportError(f"basedlab was imported from {basedlab.__file__}, not {src}")
    return elapsed, [name for name in sys.modules if name not in before]


def import_seconds(added: list[str]) -> float:
    """Seconds of one more fresh `import basedlab`.

    The modules the first import added are taken out of `sys.modules`,
    imported again and timed, then put back, so every caller keeps the
    modules it already holds.
    """
    saved = {name: sys.modules.pop(name) for name in added if name in sys.modules}
    start = time.perf_counter()
    try:
        importlib.import_module("basedlab")
        return time.perf_counter() - start
    finally:
        for name in added:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "cores": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "seed": seed,
        "commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        first_import_s, added = load_package()
    except ImportError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), lambda: import_seconds(added))
    gated, rows = workloads.end_to_end(result)
    env = environment(args.seed)
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "blas_threads") + f" blas_threads={BLAS_THREADS}")
    phase = "untraced half" if args.trace else "untraced"
    for name, value, unit, n, note in rows:
        print(f"{name:34s} {value:14.4f} {unit:9s} n={n:<7d} {phase}{'; ' + note if note else ''}")
    for name, value in result.counts.items():
        print(f"{name:34s} {value:14d} {'count':9s} {'':9s} computed")
    if args.trace:
        for name, (value, unit, n) in sorted(result.layers.items()):
            if name not in result.counts:
                print(f"{name:34s} {value:14.4f} {unit:9s} n={n:<7d} traced, median per call")
    for message in result.run.failures[:10]:
        print(f"# FAILED {message}")
    metrics = {name: (value, unit) for name, (value, unit, _) in result.layers.items()} if args.trace else gated
    record = {
        "correct": result.correct,
        "attempted": result.run.attempted,
        "failed": result.run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}.seed{args.seed}.trace{args.trace}")
    if result.tracer is not None:
        result.tracer.write(stem + ".spans.csv")
    with open(stem + ".json", "w") as fh:
        json.dump({**record, "env": env, "report": [dict(zip(("name", "value", "unit", "n", "note"), r)) for r in rows],
                   "computed": result.counts, "failures": result.run.failures,
                   "first_import_s": first_import_s, "import_s": result.import_s, "setup_s": result.setup_s, "op_s": result.samples.op_s}, fh)
    print(json.dumps(record))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
