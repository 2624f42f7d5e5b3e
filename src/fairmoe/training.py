"""Training loop, evaluation, ablation, and the router-depth report."""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .fairness import PredictionLog, build_report, fate
from .model import build_model, check_int, is_real, save_checkpoint
from .moe import ROUTING_MODES
from .objectives import LossConfig, estimate_joint, total_loss
from .tensor import Tensor, no_grad


BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 1e-3
    mi_weight: float = 0.01
    seed: int = 0
    routing_mode: str = "sample"  # training-time expert selection
    eval_mode: str = "argmax"

    def __post_init__(self):
        check_int("train epochs", self.epochs)
        check_int("train batch_size", self.batch_size)
        check_int("train seed", self.seed, low=0)
        lr, mi = self.learning_rate, self.mi_weight
        if not (is_real(lr) and np.isfinite(lr) and lr > 0):
            raise ValueError(f"train learning_rate must be finite and > 0, got {lr!r}")
        if not (is_real(mi) and np.isfinite(mi) and mi >= 0):
            raise ValueError(f"train mi_weight must be finite and >= 0, got {self.mi_weight!r}")
        for name in ("routing_mode", "eval_mode"):
            if getattr(self, name) not in ROUTING_MODES:
                raise ValueError(
                    f"unknown {name} {getattr(self, name)!r}; expected one of {ROUTING_MODES}"
                )

    def to_dict(self):
        return asdict(self)


class Adam:
    def __init__(self, params, lr=1e-3):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m, self.v = np.zeros((2, params.data.size))  # flat first and second moments

    def step(self):
        """One update; a non-finite gradient raises ``TrainingDiverged`` before any write."""
        g = self.params.grad
        if not np.isfinite(g).all():
            bad = next(p for p, t in self.params.items() if not np.isfinite(t.grad).all())
            raise TrainingDiverged(f"non-finite gradient in {bad} at step {self.t}")
        self.t += 1
        self.m *= BETA1
        self.m += (1 - BETA1) * g
        self.v *= BETA2
        self.v += (1 - BETA2) * g * g
        mh = self.m / (1 - BETA1 ** self.t)
        vh = self.v / (1 - BETA2 ** self.t)
        self.params.data -= self.lr * mh / (np.sqrt(vh) + ADAM_EPS)


def check_labels(labels, n_classes):
    """The dataset has samples, and every label indexes one of the model's ``n_classes`` outputs."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("the dataset has no samples")
    bad = np.flatnonzero((labels < 0) | (labels >= n_classes))
    if bad.size:
        i = bad[0]
        raise ValueError(f"sample at position {i} has label {labels[i]}, not in [0, {n_classes})")


def train(model, samples, stats, cfg):
    """Minibatch training with sampled soft routing and per-layer MI terms.

    Returns (log_rows, rng) where rng is the generator's end-of-training
    state owner, for checkpointing.
    """
    labels, groups = samples.labels, samples.groups
    check_labels(labels, model.config.n_classes)
    if model.moe_layer_indices and model.config.m != stats.m:
        raise ValueError(
            f"model config has m={model.config.m} experts per MoE layer, "
            f"but the data has {stats.m} groups"
        )
    n = len(samples)
    rng = np.random.default_rng(cfg.seed)
    opt = Adam(model.params, lr=cfg.learning_rate)
    loss_cfg = LossConfig(mi_weight=cfg.mi_weight, moe_layer_indices=model.moe_layer_indices)
    log_rows = []
    step = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_parts, correct, seen = [], 0, 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            x = Tensor(samples.images(idx))
            y, g = labels[idx], groups[idx]
            logits, _, probs_by_layer = model.forward(
                x, stats, mode=cfg.routing_mode, rng=rng, groups=g
            )
            joints = {
                layer: estimate_joint(probs, g, stats) for layer, probs in probs_by_layer.items()
            }
            loss, parts = total_loss(logits, y, joints, loss_cfg)
            if not np.isfinite(loss.data):
                raise TrainingDiverged(f"non-finite loss at step {step}")
            model.params.zero_grad()
            loss.backward()
            opt.step()
            correct += int(np.sum(np.argmax(logits.data, axis=1) == y))
            seen += len(idx)
            epoch_parts.append(parts)
            step += 1
        row = {"epoch": epoch, "step": step, "train_acc": correct / seen}
        keys = epoch_parts[0].keys()
        row.update({k: float(np.mean([p[k] for p in epoch_parts])) for k in keys})
        log_rows.append(row)
    return log_rows, rng


def run_training(model_config, train_samples, stats, cfg, out_dir=None):
    """Build, train, and optionally persist a checkpoint + log CSV."""
    model = build_model(model_config, seed=cfg.seed)
    if out_dir:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    log_rows, rng = train(model, train_samples, stats, cfg)
    if out_dir:
        write_dict_csv(log_rows, Path(out_dir) / "train_log.csv")
        save_checkpoint(
            Path(out_dir) / "checkpoint.fmck",
            model,
            stats,
            step=log_rows[-1]["step"],
            rng_state=rng.bit_generator.state,
            train_config=cfg.to_dict(),
        )
    return model, log_rows


def evaluate(model, samples, stats, mode="argmax", baseline_report=None, baseline_name=None):
    """Returns (PredictionLog, FairnessReport, routing batches); sampled routing uses seed 0."""
    labels, groups = samples.labels, samples.groups
    check_labels(labels, model.config.n_classes)
    rng = np.random.default_rng(0)
    preds, batches = [], []
    bs = 256
    with no_grad():
        for start in range(0, len(samples), bs):
            sl = slice(start, start + bs)
            logits, layer_batches, _ = model.forward(
                Tensor(samples.images(sl)),
                stats,
                mode=mode,
                rng=rng,
                sample_ids=np.arange(start, min(start + bs, len(samples))),
                groups=groups[sl],
            )
            preds.append(np.argmax(logits.data, axis=1))
            batches.extend(layer_batches)
    log = PredictionLog(
        sample_ids=np.arange(len(samples)),
        true_classes=labels,
        predicted_classes=np.concatenate(preds),
        groups=groups,
    )
    report = build_report(
        log,
        n_classes=model.config.n_classes,
        n_groups=stats.m,
        baseline=baseline_report,
        baseline_name=baseline_name,
    )
    return log, report, batches


def write_dict_csv(rows, path):
    """CSV with a header row from the first dict's keys, then one row per dict."""
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def write_routing_csv(batches, path):
    """One row per (sample, MoE layer); scores and probabilities as plain floats."""
    if not batches:
        raise ValueError("no routing batches to write")
    m = batches[0].scores.shape[1]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(
            ["sample_id", "layer_index", "mode", "chosen_expert"]
            + [f"s_{k}" for k in range(m)]
            + [f"p_{k}" for k in range(m)]
        )
        for b in batches:
            columns = (b.sample_ids.tolist(), b.chosen.tolist(), b.scores.tolist(),
                       b.probabilities.tolist())
            w.writerows(
                [sample_id, b.layer_index, b.mode, chosen, *scores, *probs]
                for sample_id, chosen, scores, probs in zip(*columns)
            )


def moe_flags_for_count(n_blocks, count):
    """MoE flags covering ``count`` layers, starting from the final conv."""
    if not 0 <= count <= n_blocks:
        raise ValueError(f"MoE layer count must lie in [0, {n_blocks}]")
    return tuple(i >= n_blocks - count for i in range(n_blocks))


def ablate_moe_layers(base_config, train_samples, test_samples, stats, cfg, seeds=(0,)):
    """One row per MoE-layer count, deeper layers converted first.

    Every row shares the same data and seed list; metrics are averaged
    over seeds and FATE is scored against the zero-MoE row, ``None`` if its eodd is 0.
    """
    if len(seeds) == 0:
        raise ValueError("ablation_seeds is empty: the ablation needs at least one seed")
    n_blocks = len(base_config.blocks)
    table = []
    for count in range(n_blocks + 1):
        config = replace(base_config, moe_flags=moe_flags_for_count(n_blocks, count))
        reports = []
        for seed in seeds:
            model, _ = run_training(config, train_samples, stats, replace(cfg, seed=seed))
            _, report, _ = evaluate(model, test_samples, stats, mode=cfg.eval_mode)
            reports.append(report)
        row = {"moe_layers": count, "avg_f1": float(np.mean([r.avg["f1"] for r in reports]))}
        row.update({k: float(np.mean([getattr(r, k) for r in reports]))
                    for k in ("eopp0", "eopp1", "eodd")})
        base = table[0] if table else row
        row["fate_eodd"] = fate(row["avg_f1"], base["avg_f1"], row["eodd"], base["eodd"])
        table.append(row)
    return table


def router_depth_report(model, test_samples, train_samples, stats, score_kind="softmax"):
    """Per MoE layer and group: mean router score given to the group's own expert.

    The group->expert assignment maximizes P(E|C), the mean balanced
    probability, on the training set whatever ``score_kind`` is;
    ``score_kind`` selects the reported score: raw softmax scores or
    balanced probabilities.
    """
    if not model.moe_layer_indices:
        raise ValueError("model has no MoE layers to report on")

    def layer_batches(samples):
        with no_grad():
            _, batches, _ = model.forward(Tensor(samples.images()), stats, mode="argmax")
        return {b.layer_index: b for b in batches}, samples.groups

    train_batches, train_groups = layer_batches(train_samples)
    test_batches, test_groups = layer_batches(test_samples)
    kind = "scores" if score_kind == "softmax" else "probabilities"
    rows = []
    for layer_idx in sorted(test_batches):
        train_probs = train_batches[layer_idx].probabilities
        scores = getattr(test_batches[layer_idx], kind)
        for g in range(stats.m):
            own = int(np.argmax(train_probs[train_groups == g].mean(axis=0)))
            mean_score = float(scores[test_groups == g][:, own].mean())
            rows.append({"layer_index": layer_idx, "group": g, "own_expert": own,
                         "mean_own_score": mean_score})
    return rows
