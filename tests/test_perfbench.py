"""Smoke run of the committed benchmark against the committed package.

`perfbench/check_gates.py` and each workload, traced for half a second,
must exit 0 and report correct outputs. The tracer looks every entry point
up by name in its module, so renaming one fails here, not in a benchmark
run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run(*args: str) -> str:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return proc.stdout


def test_check_gates_passes():
    run("perfbench/check_gates.py")


@pytest.mark.parametrize("workload", ["train_cl", "train_cs", "prefill_long", "decode_streams"])
def test_traced_workload_is_correct(workload):
    out = run("perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.5", "--trace", "1")
    assert json.loads(out.splitlines()[-1])["correct"] is True
