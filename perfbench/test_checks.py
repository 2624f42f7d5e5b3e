"""The benchmark's checks must pass on real fairmoe output and fail on corrupted output.

    python3 -m pytest perfbench/test_checks.py
"""

import contextlib
import csv
import io
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from fairmoe import cli, data, training  # noqa: E402
from fairmoe.data import SynthConfig  # noqa: E402
from fairmoe.model import ModelConfig, build_model, load_checkpoint  # noqa: E402
from fairmoe.objectives import estimate_joint, mutual_information  # noqa: E402
from fairmoe.tensor import Tensor  # noqa: E402
from fairmoe.training import TrainConfig  # noqa: E402


def fails():
    return pytest.raises(checks.CheckFailed)


# ---- training checks ------------------------------------------------------


def test_finite_losses():
    checks.check_finite_losses([1.0, 0.5], 2)
    with fails():
        checks.check_finite_losses([1.0, float("nan")], 2)
    with fails():
        checks.check_finite_losses([1.0], 2)


def test_ce_falls_and_accuracy():
    checks.check_ce_falls([1.0, 0.4])
    with fails():
        checks.check_ce_falls([1.0, 1.0])
    checks.check_accuracy([0, 1, 2, 3], [0, 1, 2, 0])
    with fails():
        checks.check_accuracy([0, 1, 2, 3], [1, 1, 3, 0])


def test_identical_trajectories():
    checks.check_identical([0.5, 0.25], [0.5, 0.25], "loss")
    with fails():
        checks.check_identical([0.5, 0.25], [0.5, np.nextafter(0.25, 1)], "loss")


@pytest.fixture(scope="module")
def tiny_moe():
    samples, stats = data.generate(SynthConfig(n_samples=200, seed=3))
    net = build_model(ModelConfig(moe_flags=(False, True, False, True)), seed=3)
    training.train(net, samples, stats, TrainConfig(epochs=1, seed=3))
    return net, samples, stats


def test_gradient_check_bites(tiny_moe):
    net, samples, stats = tiny_moe
    grads = workloads._gradient_samples(net, samples[:8], stats, seed=0)
    checks.check_gradients(grads, net.params.paths())
    path, index, analytic, numeric = grads[0]
    with fails():  # a backward off by 0.1%
        checks.check_gradients([(path, index, analytic * 1.001 + 1e-7, numeric)] + grads[1:],
                               net.params.paths())
    with fails():  # a parameter kind left unchecked
        checks.check_gradients([g for g in grads if g[0] != path], net.params.paths())


def test_mi_checks_bite(tiny_moe):
    net, samples, stats = tiny_moe
    images, _, groups, _ = data.stack(samples[:64])
    _, _, probs = net.forward(Tensor(images), stats, mode="argmax")
    p = probs[3].data
    sizes = np.bincount([s.group for s in samples], minlength=2)
    mi_np = checks.numpy_mi(p, groups, sizes)
    mi_prog = float(mutual_information(estimate_joint(p, groups, stats)).data)
    checks.check_mi(mi_np, mi_prog, mi_prog, "tiny")
    with fails():
        checks.check_mi(mi_np, mi_prog, mi_prog + 1e-10, "tiny")
    with fails():
        checks.check_mi(mi_np + 1e-10, mi_prog, mi_prog, "tiny")
    assert mi_np > 0
    with fails():
        checks.check_mi_positive(0.0, "tiny")
    checks.check_mi_zero(-5e-17, "init")
    with fails():
        checks.check_mi_zero(1e-9, "init")


def test_numpy_mi_oracle():
    groups = np.array([0, 0, 1, 1])
    perfect = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    assert abs(checks.numpy_mi(perfect, groups, [2, 2]) - np.log(2)) < 1e-15
    assert abs(checks.numpy_mi(np.full((4, 2), 0.5), groups, [2, 2])) < 1e-15


# ---- eval checks ----------------------------------------------------------


@pytest.fixture(scope="module")
def eval_dir(tmp_path_factory):
    wd = tmp_path_factory.mktemp("eval")
    samples, stats = data.generate(SynthConfig(n_samples=200, seed=5))
    data.save(samples, wd / "data")
    trained = {}
    for name, flags in (("moe", (True,) * 4), ("plain", (False,) * 4)):
        trained[name], _ = training.run_training(
            ModelConfig(moe_flags=flags), samples, stats, TrainConfig(epochs=2, seed=5),
            out_dir=wd / name,
        )
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(workloads.EvalWorkload.argv(wd, "moe", "eval", baseline="plain"))
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(workloads.EvalWorkload.argv(wd, "plain", "eval_baseline"))
    return wd, samples, trained, out.getvalue()


def _rewrite_csv(src, dst, edit):
    with open(src, newline="") as f:
        rows = list(csv.reader(f))
    edit(rows)
    with open(dst, "w", newline="") as f:
        csv.writer(f).writerows(rows)
    return dst


def test_report_check_bites(eval_dir, tmp_path):
    wd, samples, _, stdout = eval_dir
    report = checks.check_stdout_report(stdout, wd / "eval" / "report.json")
    preds = checks.read_predictions(wd / "eval" / "predictions.csv")
    base = checks.read_predictions(wd / "eval_baseline" / "predictions.csv")
    name = str(wd / "plain" / "checkpoint.fmck")
    checks.check_report(report, preds, base, 4, name)
    _, labels, groups, _ = data.stack(samples)
    checks.check_predictions_match_data(preds, labels, groups)

    flipped = dict(preds, pred=preds["pred"].copy())
    flipped["pred"][0] = (flipped["pred"][0] + 1) % 4
    with fails():  # one flipped prediction
        checks.check_report(report, flipped, base, 4, name)
    for key in ("eodd", "eopp0"):
        with fails():
            checks.check_report(dict(report, **{key: report[key] + 1e-6}), preds, base, 4, name)
    with fails():
        checks.check_report(dict(report, fate=dict(report["fate"], eodd=0.0)), preds, base, 4, name)
    with fails():  # FATE against the wrong baseline
        checks.check_report(report, preds, flipped, 4, name)
    with fails():
        checks.check_predictions_match_data(preds, labels, 1 - groups)
    with fails():
        checks.check_stdout_report(stdout.replace("eopp1", "eopp2"), wd / "eval" / "report.json")


def test_routing_check_bites(eval_dir, tmp_path):
    wd, samples, _, _ = eval_dir
    path = wd / "eval" / "routing.csv"
    sizes = np.bincount([s.group for s in samples], minlength=2)
    routing = checks.read_routing(path)
    checks.check_routing(routing, sizes, len(samples), [0, 1, 2, 3])

    def perturb_p(rows):
        rows[5][-1] = repr(checks._float(rows[5][-1]) + 1e-9)

    def swap_choice(rows):
        rows[7][3] = str(1 - int(rows[7][3]))

    def drop_row(rows):
        del rows[9]

    for edit in (perturb_p, swap_choice, drop_row):
        bad = checks.read_routing(_rewrite_csv(path, tmp_path / f"{edit.__name__}.csv", edit))
        with fails():
            checks.check_routing(bad, sizes, len(samples), [0, 1, 2, 3])
    with fails():  # the wrong group sizes
        checks.check_routing(routing, sizes[::-1] + [0, 1], len(samples), [0, 1, 2, 3])
    uniform = dict(routing, scores=np.full_like(routing["scores"], 0.5))
    uniform["probs"] = uniform["scores"] / sizes / (uniform["scores"] / sizes).sum(1, keepdims=True)
    uniform["chosen"] = np.argmax(uniform["probs"], axis=1)
    with fails():  # a router that never moved from its zero init
        checks.check_routing(uniform, sizes, len(samples), [0, 1, 2, 3])


def test_checkpoint_and_single_sample_checks_bite(eval_dir):
    wd, _, trained, _ = eval_dir
    loaded, _, _, _, _ = load_checkpoint(wd / "moe" / "checkpoint.fmck")
    want = {p: t.data for p, t in trained["moe"].params.items()}
    got = {p: t.data.copy() for p, t in loaded.params.items()}
    checks.check_params_equal(want, got)
    first = next(iter(got))
    got[first].flat[0] = np.nextafter(got[first].flat[0], np.inf)
    with fails():
        checks.check_params_equal(want, got)

    batch = np.array([0, 1, 2, 3])
    checks.check_single_sample_predictions(batch, {1: 1, 3: 3})
    with fails():
        checks.check_single_sample_predictions(batch, {1: 1, 3: 2})


def test_float_reader_accepts_only_numbers():
    assert checks._float("0.25") == 0.25
    assert checks._float("np.float64(0.25)") == 0.25
    with pytest.raises(ValueError):
        checks._float("np.float64(abc)")
