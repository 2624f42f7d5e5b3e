"""Training loop, evaluation, ablation, and the router-depth report."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data as data_mod
from .fairness import PredictionLog, build_report
from .model import ModelConfig, build_model, save_checkpoint
from .moe import ROUTING_MODES, selection_probabilities
from .objectives import LossConfig, estimate_joint, total_loss
from .tensor import Tensor


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    mi_weight: float = 0.01
    seed: int = 0
    routing_mode: str = "sample"  # training-time expert selection
    eval_mode: str = "argmax"

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_size <= 0 or self.learning_rate <= 0:
            raise ValueError("epochs, batch size, and learning rate must be positive")
        for name in ("routing_mode", "eval_mode"):
            if getattr(self, name) not in ROUTING_MODES:
                raise ValueError(
                    f"unknown {name} {getattr(self, name)!r}; expected one of {ROUTING_MODES}"
                )

    def to_dict(self):
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, d):
        return cls(**{k: v for k, v in d.items() if k in cls.__dataclass_fields__})


class Adam:
    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {p: np.zeros_like(t.data) for p, t in params.items()}
        self.v = {p: np.zeros_like(t.data) for p, t in params.items()}

    def step(self):
        self.t += 1
        for p, tensor in self.params.items():
            g = tensor.grad
            if g is None:
                continue
            self.m[p] = self.beta1 * self.m[p] + (1 - self.beta1) * g
            self.v[p] = self.beta2 * self.v[p] + (1 - self.beta2) * g * g
            mh = self.m[p] / (1 - self.beta1 ** self.t)
            vh = self.v[p] / (1 - self.beta2 ** self.t)
            tensor.data -= self.lr * mh / (np.sqrt(vh) + self.eps)


def train(model, samples, stats, cfg, log_path=None):
    """Minibatch training with sampled soft routing and per-layer MI terms.

    Returns (log_rows, rng) where rng is the generator's end-of-training
    state owner, for checkpointing.
    """
    images, labels, groups, _ = data_mod.stack(samples)
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
            x = Tensor(images[idx])
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
    if log_path is not None:
        with open(log_path, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=list(log_rows[0]))
            writer.writeheader()
            writer.writerows(log_rows)
    return log_rows, rng


def run_training(model_config, train_samples, stats, cfg, out_dir=None):
    """Build, train, and optionally persist a checkpoint + log CSV."""
    if any(model_config.moe_flags) and model_config.m != stats.m:
        raise ValueError(
            f"model config has m={model_config.m} experts per MoE layer, "
            f"but the data has {stats.m} groups"
        )
    model = build_model(model_config, seed=cfg.seed)
    log_path = Path(out_dir) / "train_log.csv" if out_dir else None
    if out_dir:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    log_rows, rng = train(model, train_samples, stats, cfg, log_path=log_path)
    if out_dir:
        save_checkpoint(
            Path(out_dir) / "checkpoint.fmck",
            model,
            stats,
            step=log_rows[-1]["step"],
            rng_state=rng.bit_generator.state,
            train_config=cfg.to_dict(),
        )
    return model, log_rows


def evaluate(model, samples, stats, mode="argmax", seed=0, baseline_report=None, baseline_name=None):
    """Returns (PredictionLog, FairnessReport, routing batches)."""
    images, labels, groups, _ = data_mod.stack(samples)
    rng = np.random.default_rng(seed)
    preds, batches = [], []
    bs = 256
    for start in range(0, len(samples), bs):
        sl = slice(start, start + bs)
        logits, layer_batches, _ = model.forward(
            Tensor(images[sl]),
            stats,
            mode=mode,
            rng=rng,
            sample_ids=np.arange(start, min(start + bs, len(samples))),
            groups=groups[sl],
        )
        preds.extend(np.argmax(logits.data, axis=1))
        batches.extend(layer_batches)
    log = PredictionLog(
        sample_ids=np.arange(len(samples)),
        true_classes=labels,
        predicted_classes=np.asarray(preds, dtype=np.intp),
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
    over seeds and FATE is scored against the zero-MoE row.
    """
    n_blocks = len(base_config.blocks)
    per_count = {}
    for count in range(n_blocks + 1):
        config = ModelConfig(
            blocks=base_config.blocks,
            moe_flags=moe_flags_for_count(n_blocks, count),
            m=base_config.m,
            router_width=base_config.router_width,
            n_classes=base_config.n_classes,
            in_channels=base_config.in_channels,
        )
        reports = []
        for seed in seeds:
            run_cfg = TrainConfig(**{**cfg.to_dict(), "seed": seed})
            if count == 0:
                run_cfg.mi_weight = 0.0
            model, _ = run_training(config, train_samples, stats, run_cfg)
            _, report, _ = evaluate(model, test_samples, stats, mode=cfg.eval_mode)
            reports.append(report)
        per_count[count] = reports

    def mean(count, fn):
        return float(np.mean([fn(r) for r in per_count[count]]))

    base_f1 = mean(0, lambda r: r.avg["f1"])
    base_fair = {k: mean(0, lambda r, k=k: getattr(r, k)) for k in ("eopp0", "eopp1", "eodd")}
    table = []
    for count in range(n_blocks + 1):
        row = {
            "moe_layers": count,
            "avg_f1": mean(count, lambda r: r.avg["f1"]),
            "eopp0": mean(count, lambda r: r.eopp0),
            "eopp1": mean(count, lambda r: r.eopp1),
            "eodd": mean(count, lambda r: r.eodd),
        }
        from .fairness import fate

        row["fate_eodd"] = (
            0.0
            if count == 0
            else fate(row["avg_f1"], base_f1, max(row["eodd"], 1e-12), max(base_fair["eodd"], 1e-12))
        )
        table.append(row)
    return table


def router_depth_report(model, test_samples, train_samples, stats, score_kind="softmax"):
    """Per MoE layer and group: mean router score given to the group's own expert.

    The group->expert assignment maximizes P(E|C) on the training set;
    ``score_kind`` selects raw softmax scores or balanced probabilities.
    """
    if not model.moe_layer_indices:
        raise ValueError("model has no MoE layers to report on")

    def layer_scores(samples):
        images, _, groups, _ = data_mod.stack(samples)
        _, batches, _ = model.forward(Tensor(images), stats, mode="argmax")
        kind = "scores" if score_kind == "softmax" else "probabilities"
        return {b.layer_index: getattr(b, kind) for b in batches}, groups

    train_scores, train_groups = layer_scores(train_samples)
    # own expert per group: argmax of P(E|C_j) estimated on training data
    expert_of_group = {}
    for layer_idx, sc in train_scores.items():
        probs = selection_probabilities(Tensor(sc), stats).data
        per_group = [probs[train_groups == g].mean(axis=0) for g in range(stats.m)]
        expert_of_group[layer_idx] = [int(np.argmax(v)) for v in per_group]

    test_scores, test_groups = layer_scores(test_samples)
    rows = []
    for layer_idx in sorted(test_scores):
        for g in range(stats.m):
            own = expert_of_group[layer_idx][g]
            mean_score = float(test_scores[layer_idx][test_groups == g][:, own].mean())
            rows.append(
                {
                    "layer_index": layer_idx,
                    "group": g,
                    "own_expert": own,
                    "mean_own_score": mean_score,
                }
            )
    return rows
