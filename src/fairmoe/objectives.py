"""Training objective: task cross-entropy plus per-layer group/expert
mutual-information terms.

The joint P(C, E) is estimated from soft selection probabilities (hard
sampled counts would give the router zero gradient), with dataset-level
group priors.  Mutual information is in nats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, cross_entropy, matmul


@dataclass
class LossConfig:
    mi_weight: float = 0.01
    moe_layer_indices: tuple = ()

    def __post_init__(self):
        if self.mi_weight < 0:
            raise ValueError(f"mi_weight must be nonnegative, got {self.mi_weight}")


@dataclass
class JointDistribution:
    """Joint P(C_i, E_j), differentiable, with the group priors P(C_i) as its row marginals."""

    joint: Tensor
    group_priors: np.ndarray

    def __post_init__(self):
        j = self.joint.data
        if np.any(j < -1e-12):
            raise ValueError("joint entries must be nonnegative")
        if abs(j.sum() - 1.0) > 1e-9:
            raise ValueError(f"joint mass sums to {j.sum()!r}, expected 1")
        if np.max(np.abs(j.sum(axis=1) - self.group_priors)) > 1e-9:
            raise ValueError("row marginals disagree with group priors")


def estimate_joint(probs, groups, stats):
    """Soft-count joint from per-sample selection probabilities.

    P(E|C_j) is the mean probability vector over the batch's group-j
    samples; P(C,E) = P(E|C) P(C) with dataset-level priors, renormalized
    over the groups actually present in the batch.
    """
    groups = np.asarray(groups, dtype=np.intp)
    if groups.size == 0:
        raise ValueError("cannot estimate a joint from an empty batch")
    if groups.min() < 0 or groups.max() >= stats.m:
        raise ValueError(f"group labels must lie in [0, {stats.m})")

    present = np.unique(groups)
    pc = stats.priors[present]
    pc = pc / pc.sum()

    # constant averaging matrix: row j picks out group present[j]'s samples
    member = groups == present[:, None]
    avg = member / member.sum(axis=1, keepdims=True)
    cond = matmul(Tensor(avg), probs)  # (groups present, m) rows P(E|C_j)
    return JointDistribution(joint=cond * Tensor(pc[:, None]), group_priors=pc)


def mutual_information(jd):
    """I(C;E) in nats from a joint distribution; differentiable scalar Tensor."""
    pc = Tensor(jd.group_priors[:, None])
    pe = jd.joint.sum(axis=0, keepdims=True)
    ratio_log = jd.joint.log() - (pc * pe).log()
    return (jd.joint * ratio_log).sum()


def total_loss(logits, targets, joints, config):
    """CE plus sum over configured layers of mi_weight * (-I(C; E_layer)).

    ``joints`` maps MoE layer index -> JointDistribution for this batch.
    """
    missing = [y for y in config.moe_layer_indices if y not in joints]
    if missing:
        raise ValueError(f"missing joint distribution for MoE layer(s) {missing}")
    loss = cross_entropy(logits, targets)
    parts = {"ce": float(loss.data)}
    for y in config.moe_layer_indices:
        mi = mutual_information(joints[y])
        parts[f"mi_layer{y}"] = float(mi.data)
        loss = loss + Tensor(-config.mi_weight) * mi
    parts["total"] = float(loss.data)
    return loss, parts
