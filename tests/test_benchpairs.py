"""scripts/benchpairs.py's judgement of paired runs, on hand-made results; no benchmark runs."""

import json
import shutil
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "scripts"))
import benchpairs  # noqa: E402

LOWER = {"name": "ms", "unit": "ms", "better": "lower", "bound": 0.25}
HIGHER = {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25}


def results(values, correct=True, failed=0):
    return [{"correct": correct, "attempted": 100, "failed": failed,
             "metrics": {name: {"value": v} for name in ("ms", "rate")}} for v in values]


def judge(parent, change, spec):
    return benchpairs.summarize({"parent": results(parent), "change": results(change)},
                                [spec])["metrics"][spec["name"]]


def test_wins_ties_and_quartiles():
    row = judge([10, 11, 12, 13, 14], [9, 11, 13, 12, 10], LOWER)
    assert (row["wins"], row["ties"], row["pairs"]) == (3, 1, 5)
    assert row["parent"] == [11, 12, 13] and row["change"] == [10, 11, 12]
    assert row["verdict"] == "ok"
    row = judge([10, 11, 12, 13, 14], [9, 11, 13, 12, 10], HIGHER)
    assert (row["wins"], row["ties"], row["verdict"]) == (1, 1, "ok")


@pytest.mark.parametrize("spec, change, verdict", [
    (LOWER, 12.4, "ok"), (LOWER, 12.6, "regressed"),
    (HIGHER, 7.6, "ok"), (HIGHER, 7.4, "regressed"),
])
def test_bound_in_both_directions(spec, change, verdict):
    assert judge([10.0] * 10, [change] * 10, spec)["verdict"] == verdict


def test_wide_parent_spread_is_unresolved_unless_every_change_run_is_better():
    parent = [5, 10, 15, 20, 25]
    assert judge(parent, [6, 11, 14, 19, 24], LOWER)["verdict"] == "unresolved"
    assert judge(parent, [1, 2, 3, 4, 4.5], LOWER)["verdict"] == "gain"
    assert judge(parent, [26, 27, 28, 29, 30], HIGHER)["verdict"] == "gain"


def test_gain_needs_nine_in_ten_wins_and_a_margin_beyond_the_parent_spread():
    parent = [10.0 + 0.1 * i for i in range(10)]
    assert judge(parent, [9.0] * 10, LOWER)["verdict"] == "gain"
    assert judge(parent, [9.0] * 8 + [11.0] * 2, LOWER)["verdict"] == "ok"
    assert judge(parent, [p - 0.05 for p in parent], LOWER)["verdict"] == "ok"  # inside the spread


def test_incorrect_runs_and_failed_operations_are_counted():
    summary = benchpairs.summarize(
        {"parent": results([1, 1]), "change": results([1], correct=False, failed=3) + results([1])},
        [LOWER])
    assert summary["incorrect"] == {"parent": 0, "change": 1}
    assert summary["failed"] == {"parent": 0, "change": 3}


def test_benchmark_differences_names_changed_files(tmp_path):
    for side in ("a", "b"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        shutil.copy(REPO / "BENCHMARK.json", tmp_path / side)
        for path in (REPO / "perfbench").glob("*.py"):
            shutil.copy(path, tmp_path / side / "perfbench")
    a, b = tmp_path / "a", tmp_path / "b"
    assert benchpairs.benchmark_differences(a, b) == []
    (b / "perfbench" / "_work").mkdir()
    (b / "perfbench" / "_work" / "trace.json").write_text("{}")
    (b / "perfbench" / "run.py").write_text("changed")
    (b / "BENCHMARK.json").write_text("{}")
    assert benchpairs.benchmark_differences(a, b) == ["BENCHMARK.json", "perfbench/run.py"]


def test_an_incorrect_run_reports_its_failed_checks(tmp_path, capsys):
    info = {"info": {"failed_checks": ["mutual information: 0.5 vs 0.25"]}}
    result = {"correct": False, "attempted": 3, "failed": 0, "metrics": {}}
    code = f"print({json.dumps(json.dumps(info))}); print({json.dumps(json.dumps(result))})"
    got = benchpairs.run_once(tmp_path, [sys.executable, "-c", code], "train_moe", 7, 1)
    assert got == result
    err = capsys.readouterr().err
    assert err == (f"{tmp_path}: train_moe seed 7 incorrect, failed checks: "
                   '["mutual information: 0.5 vs 0.25"]\n')
