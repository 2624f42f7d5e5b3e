"""Short runs of every benchmark workload, untraced and traced.

The benchmark drives fairmoe from outside: it wraps public functions and
methods by name and checks every output.  A change that breaks one of those
names, or an output a check reads, makes ``perfbench/run.py`` exit non-zero.
These runs catch that here, before a full benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["train_plain", "train_moe", "eval_moe"])
def test_benchmark_workload_runs_clean(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
