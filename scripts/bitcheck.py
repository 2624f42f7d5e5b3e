"""Check that a git revision and the working tree build the same artifacts, bit for bit.

    python3 scripts/bitcheck.py REV_OR_DIR

REV_OR_DIR is a git revision of this repository, exported with
``git archive``, or a directory holding a source tree (``src/fairmoe``).
Both trees build one artifact set through the ``fairmoe`` command line only,
so revisions whose Python API differs still compare:

- ``synth-data``: the default dataset for seeds 0-4, a 2-channel 9x13 one,
  and the 600-sample dataset the runs below use;
- ``train`` on that dataset's configured 0.8 / seed-0 split (seed 5, 3
  epochs): the full-MoE and (F, T, F, T) models in ``sample`` and ``group``
  routing, and the plain model;
- ``eval`` of each MoE checkpoint in ``argmax`` and ``sample`` mode, with the
  plain one as ``--baseline``;
- ``route-report`` of each MoE checkpoint with both score kinds;
- ``ablate`` over two seeds, one epoch each.

Each tree builds in a subprocess of its own, with only that tree's ``src``
on ``PYTHONPATH`` and one BLAS thread, inside an output directory where
every path is relative, so both builds name the same paths (``report.json``
records the baseline's).  One line per file, ``same`` or ``differs``; a
file built by one tree only differs.  A last line counts them,
``<n> same, <m> differ``.  The exit code is 1 when any file differs.
"""

from __future__ import annotations

import argparse
import filecmp
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# run inside each tree's subprocess: the commands arrive as JSON on stdin
BUILD_SCRIPT = """
import contextlib, io, json, sys
from fairmoe.cli import main
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
"""


def artifact_set():
    """({config file name: JSON document}, [fairmoe argv, ...]) of the full set."""
    configs = {f"synth{seed}.json": {"synth": {"seed": seed}} for seed in range(5)}
    configs["synth_2ch.json"] = {"synth": {"channels": 2, "height": 9, "width": 13,
                                           "n_samples": 300, "seed": 7}}
    configs["synth600.json"] = {"synth": {"n_samples": 600, "seed": 0}}
    commands = [["synth-data", "--config", name, "--out", f"data/{Path(name).stem}"]
                for name in configs]

    data = "data/synth600"
    flags = {"plain": [False] * 4, "full": [True] * 4, "half": [False, True, False, True]}
    runs = {"plain": ("plain", "sample")}
    runs.update({f"{model}_{mode}": (model, mode)
                 for model in ("full", "half") for mode in ("sample", "group")})
    for run, (model, mode) in runs.items():
        configs[f"{run}.json"] = {
            "model": {"moe_flags": flags[model]},
            "train": {"epochs": 3, "seed": 5, "routing_mode": mode},
            "train_fraction": 0.8,
            "split_seed": 0,
        }
        commands.append(["train", "--config", f"{run}.json", "--data", data,
                         "--out", f"runs/{run}"])
    for run in runs:
        if run == "plain":
            continue
        ckpt = f"runs/{run}/checkpoint.fmck"
        for mode in ("argmax", "sample"):
            commands.append(["eval", "--checkpoint", ckpt, "--data", data, "--mode", mode,
                             "--baseline", "runs/plain/checkpoint.fmck",
                             "--out", f"eval/{run}_{mode}"])
        for kind in ("softmax", "balanced"):
            commands.append(["route-report", "--checkpoint", ckpt, "--data", data,
                             "--config", f"{run}.json", "--score-kind", kind,
                             "--out", f"route_{run}_{kind}.csv"])
    configs["ablate.json"] = {"model": {"moe_flags": flags["plain"]},
                              "train": {"epochs": 1, "seed": 5}, "ablation_seeds": [0, 1]}
    commands.append(["ablate", "--config", "ablate.json", "--data", data, "--out", "ablate"])
    return configs, commands


def export(rev, dest):
    """Extract ``git archive REV`` of this repository into ``dest``."""
    tar = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def build(tree, out, configs, commands):
    """Write ``configs`` into ``out`` and run ``commands`` there with ``tree``'s fairmoe."""
    out.mkdir(parents=True)
    for name, doc in configs.items():
        (out / name).write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", BUILD_SCRIPT], input=json.dumps(commands),
                          cwd=out, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"build with {tree} failed:\n{done.stderr}")


def compare(a, b):
    """[(relative path, same?)] over every file either directory holds, sorted."""
    def files(root):
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    in_a, in_b = files(a), files(b)
    return [(rel, rel in in_a and rel in in_b and filecmp.cmp(a / rel, b / rel, shallow=False))
            for rel in sorted(in_a | in_b)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", metavar="REV_OR_DIR", help="git revision or source tree")
    args = parser.parse_args(argv)
    configs, commands = artifact_set()
    with tempfile.TemporaryDirectory(prefix="bitcheck-") as tmp:
        tmp = Path(tmp)
        other = Path(args.other)
        if not other.is_dir():
            other = tmp / "tree"
            export(args.other, other)
        build(other, tmp / "other", configs, commands)
        build(REPO, tmp / "here", configs, commands)
        results = [r for r in compare(tmp / "other", tmp / "here") if r[0] not in configs]
    for rel, same in results:
        print(f"{'same' if same else 'differs'}  {rel}")
    n_same = sum(same for _, same in results)
    print(f"{n_same} same, {len(results) - n_same} differ")
    return 0 if n_same == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
