"""Per-group accuracy metrics and two-group fairness metrics.

Equalized-opportunity / equalized-odds gaps are one-vs-rest per class,
aggregated by the mean over classes; classes with an undefined rate
(0/0) for either group are excluded from the mean rather than imputed.
FATE scores a model's relative accuracy gain minus its relative
fairness-gap change against a named baseline.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field

import numpy as np

CSV_COLUMNS = ("sample_id", "true", "pred", "group")


@dataclass
class PredictionLog:
    sample_ids: np.ndarray
    true_classes: np.ndarray
    predicted_classes: np.ndarray
    groups: np.ndarray

    def __post_init__(self):
        n = len(self.sample_ids)
        for name in ("true_classes", "predicted_classes", "groups"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length differs from sample_ids")
        if len(np.unique(self.sample_ids)) != n:
            raise ValueError("sample ids must be unique")

    def __len__(self):
        return len(self.sample_ids)

    @classmethod
    def from_rows(cls, rows):
        arr = np.asarray(rows, dtype=np.intp)
        return cls(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3])

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(CSV_COLUMNS)
            columns = (self.sample_ids, self.true_classes, self.predicted_classes, self.groups)
            w.writerows(np.column_stack(columns).astype(np.intp).tolist())

    @classmethod
    def read_csv(cls, path):
        with open(path, newline="") as f:
            return cls.from_rows([[int(r[k]) for k in CSV_COLUMNS] for r in csv.DictReader(f)])


@dataclass
class GroupClassConfusion:
    """One-vs-rest counts per (group, class): tp/fp/tn/fn each (G, K)."""

    tp: np.ndarray
    fp: np.ndarray
    tn: np.ndarray
    fn: np.ndarray

    @property
    def n_groups(self):
        return self.tp.shape[0]


def confusion(log, n_classes, n_groups):
    """Exact one-vs-rest counts from a prediction log."""
    if len(log) == 0:
        raise ValueError("prediction log is empty")
    for name, arr, hi in (
        ("class", log.true_classes, n_classes),
        ("predicted class", log.predicted_classes, n_classes),
        ("group", log.groups, n_groups),
    ):
        if arr.min() < 0 or arr.max() >= hi:
            raise ValueError(f"{name} index out of range [0, {hi})")
    # cells[g, t, p]: samples of group g with true class t predicted as p
    flat = (log.groups * n_classes + log.true_classes) * n_classes + log.predicted_classes
    cells = np.bincount(flat, minlength=n_groups * n_classes**2).reshape(
        n_groups, n_classes, n_classes
    )
    tp = cells.diagonal(axis1=1, axis2=2).copy()
    fn = cells.sum(axis=2) - tp
    fp = cells.sum(axis=1) - tp
    tn = cells.sum(axis=(1, 2))[:, None] - tp - fn - fp
    return GroupClassConfusion(tp, fp, tn, fn)


def _rate(num, den):
    """num/den with 0/0 -> nan (class excluded from means)."""
    den = np.asarray(den, dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.asarray(num, dtype=np.float64) / den
    r[den == 0] = np.nan
    return r


def eopp_eodd(conf):
    """(Eopp0, Eopp1, Eodd) for exactly two groups."""
    if conf.n_groups != 2:
        raise ValueError(f"fairness gaps are defined for 2 groups, got {conf.n_groups}")
    tpr = _rate(conf.tp, conf.tp + conf.fn)
    tnr = _rate(conf.tn, conf.tn + conf.fp)
    fpr = 1.0 - tnr
    d_tpr = np.abs(tpr[0] - tpr[1])
    d_tnr = np.abs(tnr[0] - tnr[1])
    d_fpr = np.abs(fpr[0] - fpr[1])
    eopp0 = float(np.nanmean(d_tnr))
    eopp1 = float(np.nanmean(d_tpr))
    eodd = float(np.nanmean(0.5 * (d_tpr + d_fpr)))
    return eopp0, eopp1, eodd


def fate(acc_model, acc_baseline, fair_model, fair_baseline):
    """Relative accuracy gain minus relative fairness-gap change vs a baseline.

    ``None`` when the baseline's gap is 0: a perfectly fair baseline leaves
    the relative gap change, and so FATE, undefined.
    """
    if acc_baseline <= 0:
        raise ValueError(f"baseline accuracy must be positive, got {acc_baseline!r}")
    if fair_baseline <= 0:
        return None
    return (acc_model - acc_baseline) / acc_baseline - (fair_model - fair_baseline) / fair_baseline


def group_prf1(conf):
    """Per-group macro precision/recall/F1 plus cross-group Avg and Diff rows."""
    precision = _rate(conf.tp, conf.tp + conf.fp)
    recall = _rate(conf.tp, conf.tp + conf.fn)
    # harmonic mean of precision and recall; 0/0 only when the class is
    # entirely absent for the group, which excludes it from the macro mean
    f1 = _rate(2 * conf.tp, 2 * conf.tp + conf.fp + conf.fn)

    rates = {"precision": precision, "recall": recall, "f1": f1}
    per_group = {
        g: {k: float(np.nanmean(r[g])) for k, r in rates.items()} for g in range(conf.n_groups)
    }
    avg = {k: float(np.mean([per_group[g][k] for g in per_group])) for k in rates}
    result = {"per_group": per_group, "avg": avg}
    if conf.n_groups == 2:
        result["diff"] = {k: abs(per_group[0][k] - per_group[1][k]) for k in rates}
    return result


@dataclass
class FairnessReport:
    """Accuracy and fairness summary for one evaluated model; its fields are report.json's keys."""

    per_group: dict
    avg: dict
    diff: dict
    eopp0: float
    eopp1: float
    eodd: float
    baseline: str | None = None
    fate: dict = field(default_factory=dict)

    def to_json(self):
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def build_report(log, n_classes, n_groups, baseline=None, baseline_name=None):
    """Assemble a FairnessReport; FATE terms use avg F1 as the accuracy side."""
    conf = confusion(log, n_classes, n_groups)
    eopp0, eopp1, eodd = eopp_eodd(conf)
    report = FairnessReport(**group_prf1(conf), eopp0=eopp0, eopp1=eopp1, eodd=eodd,
                            baseline=baseline_name)
    if baseline is not None:
        report.fate = {k: fate(report.avg["f1"], baseline.avg["f1"], getattr(report, k),
                               getattr(baseline, k)) for k in ("eopp0", "eopp1", "eodd")}
    return report
