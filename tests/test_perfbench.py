"""Smoke run of the committed benchmark against the committed package.

`perfbench/check_gates.py` and each workload, traced for half a second,
must exit 0 and report correct outputs, and a nonzero time for every layer
the workload runs. The tracer looks every entry point up by name in its
module, so renaming one, or no longer calling it, fails here, not in a
benchmark run.
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


# The per-layer spans each traced workload runs. prefill_long runs none: its
# forward streams through the decode caches' blocks, which no span wraps.
SPANS = {
    "train_cl": ("linear_attention.forward_ms", "linear_attention.core_ms", "baseconv.forward_ms"),
    "train_cs": ("sliding_window.forward_ms", "baseconv.forward_ms"),
    "prefill_long": (),
    "decode_streams": ("linear_attention.decode_us", "sliding_window.decode_us", "baseconv.decode_us"),
}


@pytest.mark.parametrize("workload", list(SPANS))
def test_traced_workload_is_correct(workload):
    out = run("perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.5", "--trace", "1")
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] is True
    zero = [name for name in SPANS[workload] if not result["metrics"][name]["value"] > 0]
    assert zero == [], f"{workload} ran these layers, but their spans read 0: {zero}"
