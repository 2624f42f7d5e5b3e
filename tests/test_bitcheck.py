"""scripts/bitcheck.py on a reduced artifact set: a copy of ``src`` matches, a mutation is named."""

import importlib.util
import shutil
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bitcheck", REPO / "scripts" / "bitcheck.py")
bitcheck = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bitcheck)

CONFIGS = {
    "synth.json": {"synth": {"n_samples": 200, "seed": 0}},
    "moe.json": {"model": {"moe_flags": [True] * 4}, "train": {"epochs": 1, "seed": 5}},
}
COMMANDS = [
    ["synth-data", "--config", "synth.json", "--out", "data"],
    ["train", "--config", "moe.json", "--data", "data", "--out", "run"],
    ["eval", "--checkpoint", "run/checkpoint.fmck", "--data", "data", "--out", "eval"],
    ["route-report", "--checkpoint", "run/checkpoint.fmck", "--data", "data",
     "--config", "moe.json", "--out", "route.csv"],
]
ARTIFACTS = ["data/data.fmds", "data/manifest.csv", "eval/predictions.csv", "eval/report.json",
             "eval/routing.csv", "route.csv", "run/checkpoint.fmck", "run/train_log.csv"]


@pytest.fixture
def reduced_set(monkeypatch):
    monkeypatch.setattr(bitcheck, "artifact_set", lambda: (CONFIGS, COMMANDS))


def copy_src(dest, old=None, new=None):
    shutil.copytree(REPO / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    if old is not None:
        path = dest / "src" / "fairmoe" / "training.py"
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
    return dest


def test_unmodified_copy_builds_the_same_files(tmp_path, reduced_set, capsys):
    assert bitcheck.main([str(copy_src(tmp_path))]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"same  {rel}" for rel in ARTIFACTS] + [f"{len(ARTIFACTS)} same, 0 differ"]


def test_mutated_copy_names_the_files_that_differ(tmp_path, reduced_set, capsys):
    tree = copy_src(tmp_path, "ADAM_EPS = 0.9, 0.999, 1e-8", "ADAM_EPS = 0.9, 0.999, 1e-7")
    assert bitcheck.main([str(tree)]) == 1
    *files, summary = capsys.readouterr().out.splitlines()
    assert summary == "4 same, 4 differ"
    verdicts = dict(reversed(line.split()) for line in files)
    assert sorted(verdicts) == ARTIFACTS
    # Adam's epsilon moves the weights, hence the router scores, but no argmax here
    assert sorted(rel for rel, verdict in verdicts.items() if verdict == "differs") == [
        "eval/routing.csv", "route.csv", "run/checkpoint.fmck", "run/train_log.csv"]


def test_a_file_built_on_one_side_only_differs(tmp_path):
    for side, names in (("a", ["x", "only_a"]), ("b", ["x"])):
        for name in names:
            (tmp_path / side).mkdir(exist_ok=True)
            (tmp_path / side / name).write_bytes(b"1")
    assert bitcheck.compare(tmp_path / "a", tmp_path / "b") == [("only_a", False), ("x", True)]
