"""Correctness checks of the fairmoe benchmark.

Every check recomputes what it verifies from the definitions, in plain
NumPy, from arrays or files the program produced; none compares against a
stored copy of an earlier output.  A violated check raises ``CheckFailed``.
"""

from __future__ import annotations

import csv
import json
import math
import re

import numpy as np

# central differences with step 1e-5 on float64 are accurate to ~1e-10;
# anything beyond these tolerances is a wrong gradient, not rounding
GRAD_RTOL = 1e-5
GRAD_ATOL = 1e-8
# the same quantity computed in another order agrees to a few ulps
VALUE_RTOL = 1e-9
VALUE_ATOL = 1e-12
MI_INIT_ATOL = 1e-12  # a zero-initialised router head gives I(C;E) = 0 up to rounding
ACCURACY_FLOOR = 0.5  # chance is 1/4 on the four-class synthetic data


class CheckFailed(AssertionError):
    """A benchmark output violated a correctness property."""


def _close(a, b, rtol=VALUE_RTOL, atol=VALUE_ATOL):
    if a is None or b is None:
        return a is None and b is None
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---- training ------------------------------------------------------------


def check_finite_losses(losses, expected_steps):
    losses = np.asarray(losses, dtype=np.float64)
    _require(len(losses) == expected_steps,
             f"{len(losses)} step losses recorded for {expected_steps} steps")
    bad = np.flatnonzero(~np.isfinite(losses))
    _require(bad.size == 0, f"non-finite loss at step(s) {bad[:5].tolist()}")


def check_ce_falls(epoch_ce):
    _require(len(epoch_ce) >= 2, "need at least two epochs to compare cross-entropy")
    _require(epoch_ce[-1] < epoch_ce[0],
             f"mean CE did not fall: first epoch {epoch_ce[0]!r}, last {epoch_ce[-1]!r}")


def check_accuracy(true, pred, floor=ACCURACY_FLOOR):
    acc = float(np.mean(np.asarray(true) == np.asarray(pred)))
    _require(acc >= floor, f"held-out accuracy {acc:.3f} below {floor}")
    return acc


def check_gradients(samples, paths):
    """``samples``: (path, index, analytic, numeric) per sampled coordinate."""
    covered = {s[0] for s in samples}
    missing = [p for p in paths if p not in covered]
    _require(not missing, f"no gradient coordinate sampled for {missing}")
    for path, index, analytic, numeric in samples:
        err = abs(analytic - numeric)
        _require(err <= GRAD_ATOL + GRAD_RTOL * max(abs(analytic), abs(numeric)),
                 f"gradient of {path}{list(index)}: backward {analytic!r}, "
                 f"finite difference {numeric!r}")


def check_identical(a, b, what):
    _require(len(a) == len(b), f"{what}: lengths {len(a)} and {len(b)} differ")
    diff = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
    _require(not diff, f"{what}: first difference at position {diff[0] if diff else None}")


# ---- mutual information --------------------------------------------------


def numpy_mi(probs, groups, group_sizes):
    """I(C;E) in nats of the soft-count joint of a batch of selection probabilities.

    P(E|C=g) is the mean probability row of the batch's group-g samples;
    P(C) is the dataset group prior, renormalised over the groups present.
    """
    probs = np.asarray(probs, dtype=np.float64)
    groups = np.asarray(groups)
    sizes = np.asarray(group_sizes, dtype=np.float64)
    present = np.unique(groups)
    pc = sizes[present] / sizes[present].sum()
    cond = np.stack([probs[groups == g].mean(axis=0) for g in present])
    joint = cond * pc[:, None]
    indep = pc[:, None] * joint.sum(axis=0)[None, :]
    live = joint > 0
    return float(np.sum(joint[live] * np.log(joint[live] / indep[live])))


def check_mi(mi_numpy, mi_program, mi_run, what):
    for name, value in (("objectives.mutual_information", mi_program), ("training step", mi_run)):
        _require(_close(mi_numpy, value),
                 f"{what}: NumPy I(C;E) {mi_numpy!r} disagrees with {name} {value!r}")


def check_mi_positive(mi, what):
    _require(mi > 0, f"{what}: I(C;E) {mi!r} is not above 0")


def check_mi_zero(mi, what):
    _require(abs(mi) <= MI_INIT_ATOL, f"{what}: I(C;E) {mi!r} is not 0")


# ---- evaluation outputs -------------------------------------------------


def read_predictions(path):
    """predictions.csv -> dict of int arrays (sample_id, true, pred, group)."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    return {k: np.array([int(r[k]) for r in rows], dtype=np.int64)
            for k in ("sample_id", "true", "pred", "group")}


# write_routing_csv writes repr() of NumPy scalars, which NumPy 2 spells
# "np.float64(0.25)"; the number inside is still the exact value
_NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")


def _float(text):
    m = _NUMPY_REPR.fullmatch(text)
    return float(m.group(1) if m else text)


def read_routing(path):
    """routing.csv -> dict with int arrays and (rows, m) score/probability arrays."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        rows = list(reader)
    m = sum(1 for h in header if h.startswith("s_"))
    return {
        "sample_id": np.array([int(r[0]) for r in rows], dtype=np.int64),
        "layer_index": np.array([int(r[1]) for r in rows], dtype=np.int64),
        "mode": [r[2] for r in rows],
        "chosen": np.array([int(r[3]) for r in rows], dtype=np.int64),
        "scores": np.array([[_float(v) for v in r[4 : 4 + m]] for r in rows]).reshape(-1, m),
        "probs": np.array([[_float(v) for v in r[4 + m : 4 + 2 * m]] for r in rows]).reshape(-1, m),
    }


def fairness_from_predictions(true, pred, groups, n_classes, n_groups=2):
    """Per-group one-vs-rest counts, macro P/R/F1 and Eopp0/Eopp1/Eodd."""
    cm = np.zeros((n_groups, n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (groups, true, pred), 1)
    tp = np.diagonal(cm, axis1=1, axis2=2)
    fn = cm.sum(axis=2) - tp
    fp = cm.sum(axis=1) - tp
    tn = cm.sum(axis=(1, 2))[:, None] - tp - fn - fp

    def rate(num, den):
        out = np.full(num.shape, np.nan)
        np.divide(num, den, out=out, where=den > 0)
        return out

    with np.errstate(all="ignore"):
        prf = {
            "precision": np.nanmean(rate(tp, tp + fp), axis=1),
            "recall": np.nanmean(rate(tp, tp + fn), axis=1),
            "f1": np.nanmean(rate(2 * tp, 2 * tp + fp + fn), axis=1),
        }
        tpr, tnr = rate(tp, tp + fn), rate(tn, tn + fp)
        d_tpr, d_tnr = np.abs(tpr[0] - tpr[1]), np.abs(tnr[0] - tnr[1])
        d_fpr = np.abs((1 - tnr[0]) - (1 - tnr[1]))
        gaps = {
            "eopp0": float(np.nanmean(d_tnr)),
            "eopp1": float(np.nanmean(d_tpr)),
            "eodd": float(np.nanmean(0.5 * (d_tpr + d_fpr))),
        }
    return {
        "counts": {"tp": tp, "fp": fp, "tn": tn, "fn": fn},
        "per_group": {str(g): {k: float(v[g]) for k, v in prf.items()} for g in range(n_groups)},
        "avg": {k: float(np.mean(v)) for k, v in prf.items()},
        "diff": {k: float(abs(v[0] - v[1])) for k, v in prf.items()},
        **gaps,
    }


def check_report(report, preds, baseline_preds, n_classes, baseline_name):
    """Recompute report.json from predictions.csv and the baseline's predictions."""
    got = fairness_from_predictions(preds["true"], preds["pred"], preds["group"], n_classes)
    base = fairness_from_predictions(
        baseline_preds["true"], baseline_preds["pred"], baseline_preds["group"], n_classes
    )
    for g, row in got["per_group"].items():
        for k, v in row.items():
            _require(_close(v, report["per_group"][g][k]),
                     f"report per_group[{g}][{k}] {report['per_group'][g][k]!r}, recomputed {v!r}")
    for section in ("avg", "diff"):
        for k, v in got[section].items():
            _require(_close(v, report[section][k]),
                     f"report {section}[{k}] {report[section][k]!r}, recomputed {v!r}")
    for k in ("eopp0", "eopp1", "eodd"):
        _require(_close(got[k], report[k]), f"report {k} {report[k]!r}, recomputed {got[k]!r}")
    _require(report["baseline"] == baseline_name,
             f"report baseline {report['baseline']!r}, expected {baseline_name!r}")
    for k in ("eopp0", "eopp1", "eodd"):
        want = None
        if base[k] > 0:
            want = ((got["avg"]["f1"] - base["avg"]["f1"]) / base["avg"]["f1"]
                    - (got[k] - base[k]) / base[k])
        _require(_close(want, report["fate"][k]),
                 f"report fate[{k}] {report['fate'][k]!r}, recomputed {want!r}")
    return got


def check_predictions_match_data(preds, labels, groups):
    n = len(labels)
    _require(np.array_equal(preds["sample_id"], np.arange(n)),
             "predictions.csv sample ids are not 0..N-1 in order")
    _require(np.array_equal(preds["true"], labels), "predictions.csv true labels differ from the data")
    _require(np.array_equal(preds["group"], groups), "predictions.csv groups differ from the data")


def check_routing(routing, group_sizes, n_samples, moe_layers, mode="argmax"):
    """Every row: balanced p_k from s_k, chosen = argmax p; one row per sample and layer."""
    n_rows = len(routing["sample_id"])
    _require(n_rows == n_samples * len(moe_layers),
             f"routing.csv has {n_rows} rows, expected {n_samples} x {len(moe_layers)}")
    pairs = set(zip(routing["sample_id"].tolist(), routing["layer_index"].tolist()))
    want = {(i, y) for i in range(n_samples) for y in moe_layers}
    _require(pairs == want, "routing.csv does not hold exactly one row per sample and MoE layer")
    _require(all(m == mode for m in routing["mode"]), f"routing.csv mode is not {mode!r} throughout")
    s = routing["scores"]
    _require(np.all(s >= 0) and np.allclose(s.sum(axis=1), 1.0, rtol=0, atol=1e-9),
             "routing.csv router scores are not a distribution")
    balanced = s / np.asarray(group_sizes, dtype=np.float64)[None, :]
    expect = balanced / balanced.sum(axis=1, keepdims=True)
    err = np.abs(expect - routing["probs"])
    worst = int(np.argmax(err.max(axis=1)))
    _require(err.max() <= VALUE_ATOL,
             f"routing.csv row {worst}: p {routing['probs'][worst].tolist()}, "
             f"(s_k/N_k)/sum_j(s_j/N_j) gives {expect[worst].tolist()}")
    argmax = np.argmax(routing["probs"], axis=1)
    bad = np.flatnonzero(argmax != routing["chosen"])
    _require(bad.size == 0, f"routing.csv chosen_expert is not argmax p in rows {bad[:5].tolist()}")
    _require(not np.all(s == 1.0 / s.shape[1]), "router scores are uniform: routing was never trained")


def check_single_sample_predictions(batch_pred, single_pred):
    bad = [i for i, p in single_pred.items() if p != batch_pred[i]]
    _require(not bad, f"samples {bad[:5]} predicted differently alone than in the batch")


def check_params_equal(trained, loaded):
    _require(list(trained) == list(loaded),
             "loaded checkpoint parameter paths differ from the trained model's")
    for path, data in trained.items():
        _require(data.dtype == loaded[path].dtype and data.shape == loaded[path].shape
                 and data.tobytes() == loaded[path].tobytes(),
                 f"loaded parameter {path} is not bit-equal to the trained one")


def check_stdout_report(stdout_text, report_path):
    """The report `fairmoe eval` prints must be report.json; returns it parsed."""
    with open(report_path) as f:
        on_disk = f.read()
    _require(stdout_text.strip() == on_disk.strip(),
             "report printed by `fairmoe eval` differs from report.json")
    return json.loads(on_disk)
