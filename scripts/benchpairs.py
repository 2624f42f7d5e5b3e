"""Run the benchmark in alternating pairs against another tree and judge each metric.

    python3 scripts/benchpairs.py REV_OR_DIR

REV_OR_DIR is a git revision of this repository, exported with
``git archive``, or a directory holding a source tree; it is the parent
side, the working tree the change side.  Workloads, run length and bounds
come from ``BENCHMARK.json``.  For every workload the script runs 10 pairs
with seeds 1-10, alternating which side runs first; each run is the
benchmark command inside its own tree.  Both trees must hold the same
``BENCHMARK.json`` and ``perfbench/*.py``, or the script exits 2 before any
run.

For each workload and end-to-end metric it prints each side's median and
quartiles, the pairs the change won (ties count for neither) and a verdict:

- ``regressed``: the change's median is worse than the parent's by more than
  the metric's bound;
- ``unresolved``: the parent's quartile spread is wider than the bound, and
  not every change run beats every parent run;
- ``gain``: the change won at least 9 in 10 pairs, and its median beats the
  parent's by more than the parent's quartile spread;
- ``ok`` otherwise.

It also counts incorrect runs and failed operations per side.  The exit
code is 1 on any incorrect run or any ``regressed``.  The last line is one
JSON object: ``{workload: {metric: {"parent": median, "change": median}}}``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import bitcheck

REPO = bitcheck.REPO
PAIRS = 10
GAIN_SHARE = 0.9


def benchmark_differences(a, b):
    """Relative paths of ``BENCHMARK.json`` and ``perfbench/*.py`` that differ between two trees."""
    same_bench = (a / "BENCHMARK.json").read_bytes() == (b / "BENCHMARK.json").read_bytes()
    code = [f"perfbench/{rel}" for rel, same in bitcheck.compare(a / "perfbench", b / "perfbench")
            if rel.endswith(".py") and "/" not in rel and not same]
    return ([] if same_bench else ["BENCHMARK.json"]) + code


def run_once(tree, command, workload, seed, seconds):
    """The result dict of one untraced run; a run that prints no result counts as incorrect.

    For an incorrect run, the ``failed_checks`` of the ``{"info": ...}`` line
    before the result go to stderr.
    """
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"{tree}: {workload} seed {seed} printed no result:\n{done.stderr[-2000:]}",
              file=sys.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    if not result["correct"]:
        try:
            failed = json.loads(lines[-2])["info"]["failed_checks"]
        except (IndexError, ValueError, KeyError, TypeError):
            failed = "no info line"
        print(f"{tree}: {workload} seed {seed} incorrect, failed checks: {json.dumps(failed)}",
              file=sys.stderr)
    return result


def summarize(runs, end_to_end):
    """Judge paired runs of one workload.

    ``runs`` is ``{"parent": [result, ...], "change": [result, ...]}``, pair i at
    index i on both sides; ``end_to_end`` is ``BENCHMARK.json``'s list.
    Returns ``{"incorrect": {side: n}, "failed": {side: n}, "metrics": {name: row}}``
    where a row holds each side's quartiles, the wins, the ties and the verdict.
    """
    summary = {"incorrect": {side: sum(not r["correct"] for r in rs) for side, rs in runs.items()},
               "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
               "metrics": {}}
    for spec in end_to_end:
        name, bound = spec["name"], spec["bound"]
        sign = 1.0 if spec["better"] == "higher" else -1.0  # sign * value: larger is better
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(runs["parent"], runs["change"])
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        parent, change = (np.array(side) for side in zip(*pairs))
        q_parent, q_change = np.percentile(parent, [25, 50, 75]), np.percentile(change, [25, 50, 75])
        spread, allowed = q_parent[2] - q_parent[0], bound * abs(q_parent[1])
        gain = sign * (q_change[1] - q_parent[1])  # positive when the change's median is better
        diff = sign * (change - parent)
        wins, ties = int(np.sum(diff > 0)), int(np.sum(diff == 0))
        if gain < -allowed:
            verdict = "regressed"
        elif spread > allowed and (sign * change).min() <= (sign * parent).max():
            verdict = "unresolved"
        elif wins >= GAIN_SHARE * len(pairs) and gain > spread:
            verdict = "gain"
        else:
            verdict = "ok"
        summary["metrics"][name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": bound, "pairs": len(pairs),
            "parent": [float(q) for q in q_parent], "change": [float(q) for q in q_change],
            "wins": wins, "ties": ties, "verdict": verdict,
        }
    return summary


def format_summary(workload, summary):
    lines = [f"{workload}: incorrect runs parent {summary['incorrect']['parent']} change "
             f"{summary['incorrect']['change']}; failed operations parent "
             f"{summary['failed']['parent']} change {summary['failed']['change']}"]
    for name, row in summary["metrics"].items():
        (p1, p2, p3), (c1, c2, c3) = row["parent"], row["change"]
        lines.append(
            f"  {name} ({row['unit']}, {row['better']} is better, bound {row['bound']:.0%}): "
            f"parent {p2:.4g} [{p1:.4g}, {p3:.4g}]  change {c2:.4g} [{c1:.4g}, {c3:.4g}]  "
            f"won {row['wins']}/{row['pairs']} (ties {row['ties']})  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", metavar="REV_OR_DIR", help="git revision or source tree")
    args = parser.parse_args(argv)
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory(prefix="benchpairs-") as tmp:
        parent = Path(args.other)
        if not parent.is_dir():
            parent = Path(tmp) / "tree"
            bitcheck.export(args.other, parent)
        differs = benchmark_differences(parent, REPO)
        if differs:
            print(f"the benchmarks differ: {', '.join(differs)}", file=sys.stderr)
            return 2
        trees = {"parent": parent.resolve(), "change": REPO}
        medians, bad = {}, False
        for workload in (w["name"] for w in bench["workloads"]):
            runs = {"parent": [], "change": []}
            for i in range(PAIRS):
                seed = i + 1
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    result = run_once(trees[side], bench["command"], workload, seed,
                                      bench["run_seconds"])
                    runs[side].append(result)
                    values = {k: v["value"] for k, v in result["metrics"].items()}
                    print(f"{workload} seed {seed} {side}: correct {result['correct']} "
                          f"failed {result['failed']}/{result['attempted']} {json.dumps(values)}",
                          flush=True)
            summary = summarize(runs, bench["end_to_end"])
            print(format_summary(workload, summary), flush=True)
            bad |= sum(summary["incorrect"].values()) > 0
            bad |= any(row["verdict"] == "regressed" for row in summary["metrics"].values())
            medians[workload] = {name: {"parent": row["parent"][1], "change": row["change"][1]}
                                 for name, row in summary["metrics"].items()}
    print(json.dumps(medians))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
