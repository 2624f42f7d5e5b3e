"""Run one workload of the fairmoe benchmark and print its result.

    python3 perfbench/run.py --workload train_moe --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports fairmoe from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it records the machine and the failed checks.  A traced run
also writes its span summary to ``perfbench/_work/``.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORK = BENCH_DIR / "_work"
# one BLAS thread: the matrices are small, results are bit-identical with
# one or two threads, and one leaves the other core to the rest of the machine
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["train_plain", "train_moe", "eval_moe"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fairmoe" / "__init__.py").is_file():
        print(f"run.py: no fairmoe sources at {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # read by the BLAS library when numpy loads it
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import numpy as np

    import workloads

    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        result, run = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if run.tracer:
        summary = workloads.trace_summary(run.tracer, run.op_root)
        path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(summary, indent=1, sort_keys=True))
    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": int(BLAS_THREADS),
        "ops": len(run.op_seconds),
        "failed_checks": run.failures,
    }
    for failure in run.failures:
        print(f"CHECK FAILED {failure}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
