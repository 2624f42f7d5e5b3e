"""Acceptance suite: one test per shipped claim, one printed verdict line each.

The heavyweight fixtures (multi-seed training runs) are shared between the
criteria that use the same trained models.
"""

import numpy as np
import pytest

from fairmoe.data import SynthConfig, generate, load, save, split
from fairmoe.fairness import PredictionLog, build_report, fate
from fairmoe.model import ModelConfig, load_checkpoint
from fairmoe.moe import GroupStats, selection_probabilities
from fairmoe.objectives import JointDistribution, estimate_joint, mutual_information
from fairmoe.tensor import Tensor, conv2d, cross_entropy, dense, global_avg_pool, no_grad
from fairmoe.training import TrainConfig, ablate_moe_layers, evaluate, router_depth_report, run_training

from gradcheck import finite_difference, max_relative_error

SEEDS = (0, 1, 2, 3, 4)
LN2 = float(np.log(2))


def verdict(index, name, ok, detail):
    print(f"ACCEPTANCE {index} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {index} ({name}): {detail}"


def jd_from_matrix(joint):
    joint = np.asarray(joint, dtype=np.float64)
    return JointDistribution(joint=Tensor(joint), group_priors=joint.sum(axis=1))


def final_layer_mi(model, samples, stats):
    """I(C;E) at the deepest MoE layer over a full dataset pass."""
    from fairmoe import data as dm

    images, _, groups, _ = dm.stack(samples)
    layer = max(model.moe_layer_indices)
    chunks = []
    with no_grad():
        for start in range(0, len(samples), 400):
            _, _, probs = model.forward(Tensor(images[start : start + 400]), stats, mode="argmax")
            chunks.append(probs[layer].data)
    probs_all = np.concatenate(chunks)
    return float(mutual_information(estimate_joint(probs_all, groups, stats)).data)


# ---- shared training fixtures -------------------------------------------


@pytest.fixture(scope="module")
def default_data():
    samples, stats = generate(SynthConfig())
    train_s, test_s = split(samples, 0.8, seed=0)
    return train_s, test_s, stats


@pytest.fixture(scope="module")
def specialization_runs(default_data):
    """Five seeds of the default full-MoE model, with and without the MI term."""
    train_s, test_s, stats = default_data
    cfg = ModelConfig(moe_flags=(True, True, True, True))
    out = {"with_mi": [], "without_mi": []}
    for seed in SEEDS:
        model, _ = run_training(cfg, train_s, stats, TrainConfig(epochs=70, seed=seed))
        out["with_mi"].append(
            {
                "mi": final_layer_mi(model, train_s, stats),
                "depth_rows": router_depth_report(model, test_s, train_s, stats),
            }
        )
        model0, _ = run_training(
            cfg, train_s, stats, TrainConfig(epochs=70, seed=seed, mi_weight=0.0)
        )
        out["without_mi"].append({"mi": final_layer_mi(model0, train_s, stats)})
    return out


# ---- criteria ------------------------------------------------------------


def test_criterion_1_fate_recomputation():
    table = [
        (0.502, 0.468, 0.0030, 0.0031, 0.105),
        (0.502, 0.468, 0.285, 0.332, 0.214),
        (0.502, 0.468, 0.154, 0.180, 0.217),
        (0.476, 0.468, 0.164, 0.180, 0.106),
        (0.767, 0.741, 0.046, 0.078, 0.445),
    ]
    errors = [abs(fate(am, av, fm, fv) - want) for am, av, fm, fv, want in table]
    ok = max(errors) <= 1e-3
    verdict(1, "FATE recomputation", ok, f"max |error| {max(errors):.2e} over {len(table)} reference entries (tol 1e-3)")


def test_criterion_2_mutual_information_oracle():
    mi_indep = float(mutual_information(jd_from_matrix([[0.25, 0.25], [0.25, 0.25]])).data)
    mi_perfect = float(mutual_information(jd_from_matrix([[0.5, 0.0], [0.0, 0.5]])).data)
    mi_asym = float(mutual_information(jd_from_matrix([[0.54, 0.06], [0.08, 0.32]])).data)
    ok = abs(mi_indep) <= 1e-12 and abs(mi_perfect - LN2) <= 1e-12 and abs(mi_asym - 0.26886) <= 1e-5

    def entropy(p):
        p = p[p > 0]
        return -float(np.sum(p * np.log(p)))

    rng = np.random.default_rng(0)
    worst_violation = 0.0
    for _ in range(1000):
        joint = rng.uniform(size=(2, 2))
        joint /= joint.sum()
        mi = float(mutual_information(jd_from_matrix(joint)).data)
        bound = min(entropy(joint.sum(axis=1)), entropy(joint.sum(axis=0)))
        worst_violation = max(worst_violation, -mi, mi - bound)
    ok = ok and worst_violation <= 1e-9
    verdict(
        2,
        "mutual information oracle",
        ok,
        f"independent {mi_indep:.1e}, perfect {mi_perfect:.12f} vs ln2, asymmetric {mi_asym:.5f}, "
        f"worst bound violation {worst_violation:.1e} over 1000 random joints",
    )


def test_criterion_3_balanced_routing_closed_forms():
    stats = GroupStats(np.array([100.0, 200.0]))
    p = selection_probabilities(Tensor([[0.5, 0.5]]), stats).data[0]
    closed_form_err = float(np.max(np.abs(p - [2 / 3, 1 / 3])))
    exact = closed_form_err <= 1e-15

    equal = GroupStats(np.array([300.0, 300.0]))
    scores = np.array([[0.9, 0.1], [0.25, 0.75]])
    cancel = float(np.max(np.abs(selection_probabilities(Tensor(scores), equal).data - scores)))

    scaled = GroupStats(np.array([1000.0, 2000.0]))
    drift = float(
        np.max(
            np.abs(
                selection_probabilities(Tensor(scores), stats).data
                - selection_probabilities(Tensor(scores), scaled).data
            )
        )
    )
    ok = exact and cancel <= 1e-12 and drift <= 1e-12
    verdict(
        3,
        "balanced routing closed forms",
        ok,
        f"(0.5,0.5)@N=(100,200) -> {p.tolist()} (exact {exact}), "
        f"alpha cancellation {cancel:.1e}, 10x group-size drift {drift:.1e}",
    )


def test_criterion_4_gradient_suite():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(3, 2, 6, 6)))
        kern = Tensor(rng.normal(size=(4, 2, 3, 3)) * 0.3, requires_grad=True)
        bias = Tensor(rng.normal(size=4) * 0.1, requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3)) * 0.5, requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        y = rng.integers(0, 3, size=3)

        def loss(kt=None, bt=None, wt=None, bt2=None):
            kt, bt = kern if kt is None else kt, bias if bt is None else bt
            wt, bt2 = w if wt is None else wt, b if bt2 is None else bt2
            h = conv2d(x, kt, bt, stride=2, padding=1).relu()
            return cross_entropy(dense(global_avg_pool(h), wt, bt2), y)

        for t in (kern, bias, w, b):
            t.grad = np.zeros_like(t.data)
        loss().backward()
        for t, sub in ((kern, "kt"), (bias, "bt"), (w, "wt"), (b, "bt2")):
            fd = finite_difference(lambda: loss(**{sub: Tensor(t.data)}), t)
            worst = max(worst, max_relative_error(t.grad, fd))

    stats = GroupStats(np.array([60.0, 40.0]))
    for seed in range(10):
        rng = np.random.default_rng(seed)
        groups = rng.integers(0, 2, size=8)
        groups[:2] = [0, 1]
        logits = Tensor(rng.normal(size=(8, 2)), requires_grad=True)

        def neg_mi(lt=None):
            lt = logits if lt is None else lt
            probs = selection_probabilities(lt.softmax(axis=1), stats)
            return Tensor(-1.0) * mutual_information(estimate_joint(probs, groups, stats))

        logits.grad = np.zeros_like(logits.data)
        neg_mi().backward()
        fd = finite_difference(lambda: neg_mi(Tensor(logits.data)), logits)
        worst = max(worst, max_relative_error(logits.grad, fd))
    ok = worst < 1e-6
    verdict(4, "gradient suite", ok, f"worst relative error {worst:.2e} over 30 seeded instances (tol 1e-6)")


def test_criterion_5_specialization(specialization_runs):
    with_mi = [r["mi"] for r in specialization_runs["with_mi"]]
    without = [r["mi"] for r in specialization_runs["without_mi"]]
    n_specialized = sum(v >= 0.8 * LN2 for v in with_mi)
    n_flat = sum(v < 0.2 * LN2 for v in without)
    ok = n_specialized >= 4 and n_flat == len(SEEDS)
    verdict(
        5,
        "specialization",
        ok,
        f"final-layer I(C;E) with MI term: {[round(v, 3) for v in with_mi]} "
        f"({n_specialized}/5 >= 0.8*ln2); without: {[round(v, 3) for v in without]} "
        f"({n_flat}/5 < 0.2*ln2)",
    )


def _band_accuracy(model, samples, stats, mode, halfwidth):
    log, _, _ = evaluate(model, samples, stats, mode=mode)
    attrs = np.array([s.attribute for s in samples])
    sel = np.abs(attrs - 0.5) < halfwidth
    return float(np.mean(log.predicted_classes[sel] == log.true_classes[sel]))


def test_criterion_6_soft_vs_hard_routing():
    data_cfg = SynthConfig(noise_sigma=0.3, seed=0)
    samples, stats = generate(data_cfg)
    train_s, test_s = split(samples, 0.8, seed=0)
    model_cfg = ModelConfig(
        blocks=(
            {"out_channels": 6, "kernel": 3, "stride": 2, "padding": 1},
            {"out_channels": 12, "kernel": 3, "stride": 2, "padding": 1},
        ),
        moe_flags=(True, True),
    )
    soft_acc, hard_acc = [], []
    for seed in SEEDS:
        soft, _ = run_training(
            model_cfg, train_s, stats, TrainConfig(epochs=60, seed=seed, routing_mode="sample")
        )
        soft_acc.append(_band_accuracy(soft, test_s, stats, "argmax", 0.2))
        hard, _ = run_training(
            model_cfg, train_s, stats, TrainConfig(epochs=60, seed=seed, routing_mode="group")
        )
        hard_acc.append(_band_accuracy(hard, test_s, stats, "group", 0.2))
    soft_mean, hard_mean = float(np.mean(soft_acc)), float(np.mean(hard_acc))
    ok = soft_mean >= hard_mean
    verdict(
        6,
        "soft vs hard routing",
        ok,
        f"boundary-band accuracy soft {soft_mean:.4f} vs hard {hard_mean:.4f} (5-seed means)",
    )


def test_criterion_7_depth_trend(specialization_runs):
    hits = 0
    summaries = []
    for run in specialization_runs["with_mi"]:
        by = {(r["layer_index"], r["group"]): r["mean_own_score"] for r in run["depth_rows"]}
        deepest, shallowest = max(r["layer_index"] for r in run["depth_rows"]), min(
            r["layer_index"] for r in run["depth_rows"]
        )
        gain = any(by[(deepest, g)] > by[(shallowest, g)] for g in (0, 1))
        hits += gain
        summaries.append(round(max(by[(deepest, g)] - by[(shallowest, g)] for g in (0, 1)), 3))
    ok = hits >= 3
    verdict(
        7,
        "depth trend",
        ok,
        f"deepest-minus-shallowest own-expert score gains {summaries}; {hits}/5 seeds positive (need >= 3)",
    )


def test_criterion_8_moe_layer_ablation(default_data):
    train_s, test_s, stats = default_data
    table = ablate_moe_layers(
        ModelConfig(), train_s, test_s, stats, TrainConfig(epochs=12), seeds=SEEDS
    )
    counts = [row["moe_layers"] for row in table]
    f1 = {row["moe_layers"]: row["avg_f1"] for row in table}
    ok = counts == [0, 1, 2, 3, 4] and f1[4] >= f1[0]
    verdict(
        8,
        "MoE layer ablation",
        ok,
        f"5-seed mean avg-F1 by MoE layer count {[round(f1[c], 4) for c in counts]}; "
        f"full {f1[4]:.4f} >= zero {f1[0]:.4f}",
    )


def test_criterion_9_determinism_and_roundtrips(tmp_path, default_data):
    train_s, test_s, stats = default_data
    cfg = ModelConfig(
        blocks=(
            {"out_channels": 4, "kernel": 3, "stride": 2, "padding": 1},
            {"out_channels": 8, "kernel": 3, "stride": 2, "padding": 1},
        ),
        moe_flags=(False, True),
    )
    reports = []
    for arm in ("a", "b"):
        out = tmp_path / arm
        model, _ = run_training(cfg, train_s[:400], stats, TrainConfig(epochs=3, seed=7), out_dir=out)
        _, report, _ = evaluate(model, test_s, stats)
        reports.append(report.to_json())
    same_ckpt = (tmp_path / "a" / "checkpoint.fmck").read_bytes() == (
        tmp_path / "b" / "checkpoint.fmck"
    ).read_bytes()
    same_report = reports[0] == reports[1]

    save(test_s[:50], tmp_path / "ds")
    data_rt = all(
        a.image.tobytes() == b.image.tobytes()
        and (a.label, a.group, a.attribute) == (b.label, b.group, b.attribute)
        for a, b in zip(load(tmp_path / "ds"), test_s[:50])
    )
    loaded, _, _, _, _ = load_checkpoint(tmp_path / "a" / "checkpoint.fmck")
    model_a, _ = run_training(cfg, train_s[:400], stats, TrainConfig(epochs=3, seed=7))
    ckpt_rt = all(
        t1.data.tobytes() == t2.data.tobytes()
        for (_, t1), (_, t2) in zip(model_a.params.items(), loaded.params.items())
    )

    rng = np.random.default_rng(0)
    rows = [(i, int(rng.integers(0, 4)), int(rng.integers(0, 4)), int(rng.integers(0, 2))) for i in range(200)]
    perm = rng.permutation(len(rows))
    r1 = build_report(PredictionLog.from_rows(rows), 4, 2)
    r2 = build_report(PredictionLog.from_rows([rows[j] for j in perm]), 4, 2)
    perm_ok = (r1.eopp0, r1.eopp1, r1.eodd, r1.avg) == (r2.eopp0, r2.eopp1, r2.eodd, r2.avg)

    ok = same_ckpt and same_report and data_rt and ckpt_rt and perm_ok
    verdict(
        9,
        "determinism and round-trips",
        ok,
        f"identical-seed checkpoints bit-equal {same_ckpt}, reports equal {same_report}, "
        f"dataset round-trip {data_rt}, checkpoint round-trip {ckpt_rt}, "
        f"metric permutation invariance {perm_ok}",
    )
