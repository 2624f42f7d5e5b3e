import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmoe.fairness import (
    GroupClassConfusion,
    PredictionLog,
    build_report,
    confusion,
    eopp_eodd,
    fate,
    group_prf1,
)


def make_log(rows):
    return PredictionLog.from_rows(rows)


def test_confusion_perfect_predictions():
    log = make_log([(i, i % 3, i % 3, i % 2) for i in range(12)])
    conf = confusion(log, n_classes=3, n_groups=2)
    assert np.all(conf.fp == 0) and np.all(conf.fn == 0)


def test_confusion_single_misclassified_sample():
    log = make_log([(0, 0, 1, 0)])
    conf = confusion(log, n_classes=3, n_groups=1)
    assert conf.fn[0, 0] == 1 and conf.fp[0, 1] == 1
    assert conf.tn[0, 2] == 1 and conf.tp.sum() == 0


def test_confusion_sums_over_groups_match_group_agnostic():
    rng = np.random.default_rng(0)
    rows = [(i, rng.integers(0, 4), rng.integers(0, 4), rng.integers(0, 2)) for i in range(200)]
    log = make_log(rows)
    split_conf = confusion(log, 4, 2)
    merged = make_log([(i, t, p, 0) for i, t, p, _ in rows])
    whole = confusion(merged, 4, 1)
    for fld in ("tp", "fp", "tn", "fn"):
        np.testing.assert_array_equal(
            getattr(split_conf, fld).sum(axis=0), getattr(whole, fld)[0]
        )


def _loop_confusion(log, n_classes, n_groups):
    """Reference: one-vs-rest counts by a loop over every (group, class) cell."""
    counts = {k: np.zeros((n_groups, n_classes), dtype=np.int64) for k in ("tp", "fp", "tn", "fn")}
    for g in range(n_groups):
        sel = log.groups == g
        t, p = log.true_classes[sel], log.predicted_classes[sel]
        for c in range(n_classes):
            counts["tp"][g, c] = np.sum((t == c) & (p == c))
            counts["fp"][g, c] = np.sum((t != c) & (p == c))
            counts["tn"][g, c] = np.sum((t != c) & (p != c))
            counts["fn"][g, c] = np.sum((t == c) & (p != c))
    return counts


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5), st.integers(1, 3), st.integers(1, 60), st.integers(0, 2**32 - 1)
)
def test_confusion_matches_loop_oracle(n_classes, n_groups, n, seed):
    rng = np.random.default_rng(seed)
    log = PredictionLog(
        np.arange(n), rng.integers(0, n_classes, n), rng.integers(0, n_classes, n),
        rng.integers(0, n_groups, n),
    )
    conf = confusion(log, n_classes, n_groups)
    for name, expected in _loop_confusion(log, n_classes, n_groups).items():
        got = getattr(conf, name)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)


def test_confusion_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        confusion(make_log([(0, 5, 0, 0)]), n_classes=3, n_groups=1)


def test_confusion_rejects_empty_log():
    log = PredictionLog(np.array([], dtype=np.intp), np.array([]), np.array([]), np.array([]))
    with pytest.raises(ValueError, match="empty"):
        confusion(log, 2, 2)


def _two_group_recall_confusion():
    # 2 classes, 10 samples of each class per group
    # group 0 recalls (0.9, 0.8); group 1 recalls (0.9, 0.6)
    rows, sid = [], 0

    def add(group, cls, correct, wrong):
        nonlocal sid
        for _ in range(correct):
            rows.append((sid, cls, cls, group)); sid += 1
        for _ in range(wrong):
            rows.append((sid, cls, 1 - cls, group)); sid += 1

    add(0, 0, 9, 1); add(0, 1, 8, 2)
    add(1, 0, 9, 1); add(1, 1, 6, 4)
    return confusion(make_log(rows), 2, 2)


def test_eopp_eodd_hand_example():
    eopp0, eopp1, eodd = eopp_eodd(_two_group_recall_confusion())
    assert eopp1 == pytest.approx(0.1, abs=1e-12)
    assert eopp0 == pytest.approx(0.1, abs=1e-12)
    assert eodd == pytest.approx(0.1, abs=1e-12)


def test_eopp_eodd_identical_groups_are_fair():
    rows = [(i, i % 2, (i + i // 7) % 2, 0) for i in range(28)]
    rows += [(100 + i, t, p, 1) for i, t, p, _ in rows]
    eopp0, eopp1, eodd = eopp_eodd(confusion(make_log(rows), 2, 2))
    assert eopp0 == eopp1 == eodd == 0.0


def test_eopp_eodd_excludes_undefined_classes():
    # class 2 never occurs for group 1: its TPR is 0/0 there and it drops
    # out of the means; classes 0 and 1 remain defined for both groups
    rows = [
        (0, 0, 0, 0), (1, 1, 1, 0), (2, 2, 2, 0), (3, 2, 2, 0),
        (4, 0, 0, 1), (5, 0, 1, 1), (6, 1, 1, 1), (7, 1, 1, 1),
    ]
    eopp0, eopp1, eodd = eopp_eodd(confusion(make_log(rows), 3, 2))
    assert np.isfinite([eopp0, eopp1, eodd]).all()
    assert eopp1 == pytest.approx(0.25)  # mean of class-0 gap 0.5, class-1 gap 0


def test_eopp_eodd_requires_two_groups():
    conf = confusion(make_log([(0, 0, 0, 0), (1, 0, 0, 1), (2, 0, 0, 2)]), 2, 3)
    with pytest.raises(ValueError, match="2 groups"):
        eopp_eodd(conf)


def test_eopp_eodd_group_relabeling_invariant():
    conf = _two_group_recall_confusion()
    flipped = GroupClassConfusion(conf.tp[::-1], conf.fp[::-1], conf.tn[::-1], conf.fn[::-1])
    assert eopp_eodd(conf) == eopp_eodd(flipped)


# reference cases: (acc_model, acc_base, fair_model, fair_base, expected)
REFERENCE_FATE = [
    ("case-a-eopp0", 0.502, 0.468, 0.0030, 0.0031, 0.105),
    ("case-a-eopp1", 0.502, 0.468, 0.285, 0.332, 0.214),
    ("case-a-eodd", 0.502, 0.468, 0.154, 0.180, 0.217),
    ("case-b-eodd", 0.476, 0.468, 0.164, 0.180, 0.106),
    ("case-c-eodd", 0.767, 0.741, 0.046, 0.078, 0.445),
]


@pytest.mark.parametrize("name,am,av,fm,fv,expected", REFERENCE_FATE)
def test_fate_reproduces_reference_entries(name, am, av, fm, fv, expected):
    assert fate(am, av, fm, fv) == pytest.approx(expected, abs=1e-3)


def test_fate_of_baseline_is_zero():
    assert fate(0.468, 0.468, 0.180, 0.180) == 0.0


def test_fate_rejects_zero_baselines():
    with pytest.raises(ValueError, match="positive"):
        fate(0.5, 0.0, 0.1, 0.2)


def test_group_prf1_perfect_classifier():
    log = make_log([(i, i % 3, i % 3, i % 2) for i in range(30)])
    out = group_prf1(confusion(log, 3, 2))
    for g in (0, 1):
        assert out["per_group"][g]["f1"] == 1.0
    assert out["diff"]["f1"] == 0.0


def test_group_prf1_all_wrong():
    log = make_log([(i, 0, 1, 0) for i in range(10)])
    out = group_prf1(confusion(log, 2, 1))
    assert out["per_group"][0]["f1"] == 0.0


def test_group_prf1_macro_recall_hand_example():
    conf = GroupClassConfusion(
        tp=np.array([[9, 8]]), fp=np.array([[2, 1]]),
        tn=np.array([[8, 9]]), fn=np.array([[1, 2]]),
    )
    out = group_prf1(conf)
    assert out["per_group"][0]["recall"] == pytest.approx(0.85, abs=1e-12)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_metrics_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    n = 60
    rows = [
        (i, int(rng.integers(0, 3)), int(rng.integers(0, 3)), int(rng.integers(0, 2)))
        for i in range(n)
    ]
    # both groups and all classes present for stable comparison
    rows[0], rows[1] = (0, 0, 0, 0), (1, 1, 1, 1)
    perm = rng.permutation(n)
    shuffled = [rows[j] for j in perm]
    r1 = build_report(make_log(rows), 3, 2)
    r2 = build_report(make_log(shuffled), 3, 2)
    assert (r1.eopp0, r1.eopp1, r1.eodd) == (r2.eopp0, r2.eopp1, r2.eodd)
    assert r1.avg == r2.avg


def test_fairness_gaps_bounded():
    rng = np.random.default_rng(7)
    for _ in range(50):
        rows = [
            (i, int(rng.integers(0, 4)), int(rng.integers(0, 4)), int(rng.integers(0, 2)))
            for i in range(40)
        ]
        rows[0], rows[1] = (0, 0, 0, 0), (1, 0, 0, 1)
        eopp0, eopp1, eodd = eopp_eodd(confusion(make_log(rows), 4, 2))
        for v in (eopp0, eopp1, eodd):
            assert 0.0 <= v <= 1.0


def test_report_fate_against_itself_is_zero():
    log = make_log([(i, i % 2, (i + i // 7) % 2, i // 20) for i in range(40)])
    base = build_report(log, 2, 2)
    rep = build_report(log, 2, 2, baseline=base, baseline_name="self")
    assert all(v == 0.0 for v in rep.fate_scores.values())


def test_prediction_log_csv_roundtrip(tmp_path):
    log = make_log([(i, i % 3, (i + 1) % 3, i % 2) for i in range(9)])
    path = tmp_path / "pred.csv"
    log.write_csv(path)
    back = PredictionLog.read_csv(path)
    np.testing.assert_array_equal(back.true_classes, log.true_classes)
    np.testing.assert_array_equal(back.predicted_classes, log.predicted_classes)
    np.testing.assert_array_equal(back.groups, log.groups)


def test_prediction_log_csv_bytes_match_per_row_writer(tmp_path):
    rng = np.random.default_rng(4)
    n = 300
    log = PredictionLog(rng.permutation(n), rng.integers(0, 4, n), rng.integers(0, 4, n),
                        rng.integers(0, 2, n))
    log.write_csv(tmp_path / "pred.csv")
    with open(tmp_path / "ref.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["sample_id", "true", "pred", "group"])
        for row in zip(log.sample_ids, log.true_classes, log.predicted_classes, log.groups):
            w.writerow([int(v) for v in row])
    assert (tmp_path / "pred.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_prediction_log_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="unique"):
        make_log([(0, 0, 0, 0), (0, 1, 1, 1)])
