import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmoe.moe import GroupStats, selection_probabilities
from fairmoe.objectives import (
    JointDistribution,
    LossConfig,
    estimate_joint,
    mutual_information,
    total_loss,
)
from fairmoe.tensor import Tensor, cross_entropy

from gradcheck import finite_difference, max_relative_error


def jd_from_matrix(joint):
    joint = np.asarray(joint, dtype=np.float64)
    return JointDistribution(joint=Tensor(joint), group_priors=joint.sum(axis=1))


def entropy(p):
    p = p[p > 0]
    return -np.sum(p * np.log(p))


def test_estimate_joint_hard_assignments():
    probs = np.array([[1.0, 0], [1, 0], [0, 1], [0, 1]])
    stats = GroupStats(np.array([500.0, 500.0]))
    jd = estimate_joint(probs, [0, 0, 1, 1], stats)
    np.testing.assert_allclose(jd.joint.data, [[0.5, 0], [0, 0.5]], atol=1e-15)


def test_estimate_joint_uniform_routing_gives_independence():
    probs = np.full((6, 2), 0.5)
    stats = GroupStats(np.array([100.0, 100.0]))
    jd = estimate_joint(probs, [0, 1, 0, 1, 0, 1], stats)
    np.testing.assert_allclose(jd.joint.data, 0.25, atol=1e-15)


def test_estimate_joint_single_group_renormalizes():
    probs = np.array([[0.9, 0.1], [0.7, 0.3]])
    stats = GroupStats(np.array([100.0, 300.0]))
    jd = estimate_joint(probs, [0, 0], stats)
    assert jd.joint.data.shape == (1, 2)
    np.testing.assert_allclose(jd.joint.data[0], [0.8, 0.2], atol=1e-15)
    np.testing.assert_allclose(jd.group_priors, [1.0], atol=1e-15)


def test_estimate_joint_rejects_empty_batch():
    with pytest.raises(ValueError, match="empty"):
        estimate_joint(np.zeros((0, 2)), [], GroupStats(np.array([1.0, 1.0])))


def test_mutual_information_independent_joint_is_zero():
    mi = mutual_information(jd_from_matrix([[0.25, 0.25], [0.25, 0.25]]))
    assert abs(float(mi.data)) < 1e-12


def test_mutual_information_perfect_correlation_is_ln2():
    mi = mutual_information(jd_from_matrix([[0.5, 0.0], [0.0, 0.5]]))
    assert float(mi.data) == pytest.approx(np.log(2), abs=1e-12)


def test_mutual_information_derived_asymmetric_joint():
    # priors (0.6, 0.4), P(E|C0)=(0.9,0.1), P(E|C1)=(0.2,0.8)
    mi = mutual_information(jd_from_matrix([[0.54, 0.06], [0.08, 0.32]]))
    assert float(mi.data) == pytest.approx(0.26886, abs=1e-5)


def test_mutual_information_symmetric_under_transpose():
    joint = np.array([[0.4, 0.1], [0.15, 0.35]])
    a = float(mutual_information(jd_from_matrix(joint)).data)
    b = float(mutual_information(jd_from_matrix(joint.T)).data)
    assert a == pytest.approx(b, abs=1e-12)


def test_mutual_information_invariant_to_expert_relabeling():
    joint = np.array([[0.4, 0.1], [0.15, 0.35]])
    a = float(mutual_information(jd_from_matrix(joint)).data)
    b = float(mutual_information(jd_from_matrix(joint[:, ::-1])).data)
    assert a == pytest.approx(b, abs=1e-12)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_mutual_information_bounds(seed):
    rng = np.random.default_rng(seed)
    joint = rng.uniform(size=(2, 2))
    joint /= joint.sum()
    mi = float(mutual_information(jd_from_matrix(joint)).data)
    assert mi >= -1e-9
    assert mi <= min(entropy(joint.sum(axis=1)), entropy(joint.sum(axis=0))) + 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_negative_mi_gradient_wrt_router_logits(seed):
    rng = np.random.default_rng(seed)
    logits_data = rng.normal(size=(8, 2))
    groups = rng.integers(0, 2, size=8)
    groups[:2] = [0, 1]  # both groups present
    stats = GroupStats(np.array([60.0, 40.0]))

    logits = Tensor(logits_data, requires_grad=True)

    def neg_mi(lt=None):
        lt = logits if lt is None else lt
        probs = selection_probabilities(lt.softmax(axis=1), stats)
        return Tensor(-1.0) * mutual_information(estimate_joint(probs, groups, stats))

    logits.grad = np.zeros_like(logits_data)
    neg_mi().backward()
    fd = finite_difference(lambda: neg_mi(Tensor(logits.data)), logits)
    assert max_relative_error(logits.grad, fd) < 1e-6


def test_total_loss_zero_weight_is_plain_ce():
    logits, targets = Tensor([[2.0, -1.0], [0.5, 0.5]]), [0, 1]
    jd = jd_from_matrix([[0.5, 0.0], [0.0, 0.5]])
    loss, parts = total_loss(logits, targets, {0: jd}, LossConfig(mi_weight=0.0, moe_layer_indices=(0,)))
    assert float(loss.data) == pytest.approx(float(cross_entropy(logits, targets).data), abs=1e-15)


def test_total_loss_uniform_routing_is_plain_ce():
    logits, targets = Tensor([[1.0, 0.0]]), [0]
    jd = jd_from_matrix([[0.25, 0.25], [0.25, 0.25]])
    loss, _ = total_loss(logits, targets, {0: jd}, LossConfig(moe_layer_indices=(0,)))
    assert float(loss.data) == pytest.approx(float(cross_entropy(logits, targets).data), abs=1e-12)


def test_total_loss_perfect_correlation_three_layers():
    logits, targets = Tensor([[1.0, 0.0]]), [0]
    jd = jd_from_matrix([[0.5, 0.0], [0.0, 0.5]])
    cfg = LossConfig(mi_weight=0.01, moe_layer_indices=(1, 2, 3))
    loss, parts = total_loss(logits, targets, {1: jd, 2: jd, 3: jd}, cfg)
    ce = float(cross_entropy(logits, targets).data)
    assert float(loss.data) == pytest.approx(ce - 0.03 * np.log(2), abs=1e-12)


def test_total_loss_missing_joint_rejected():
    with pytest.raises(ValueError, match="missing joint"):
        total_loss(Tensor([[0.0, 0.0]]), [0], {}, LossConfig(moe_layer_indices=(2,)))


def test_loss_config_rejects_negative_weight():
    with pytest.raises(ValueError):
        LossConfig(mi_weight=-0.1)


def test_router_alone_can_specialize():
    # frozen experts: optimizing -I over router parameters on a linearly
    # group-separable batch should drive I(C;E) close to ln 2
    from fairmoe.model import ModelConfig, build_model
    from fairmoe.training import Adam

    model = build_model(ModelConfig(moe_flags=(True, False, False, False)), seed=0)
    layer = model.layers[0]
    rng = np.random.default_rng(0)
    # nudge the head off its exactly-symmetric zero init; at that saddle the
    # MI gradient is identically zero
    layer.router[2].data += 1e-3 * rng.normal(size=layer.router[2].shape)
    n = 64
    groups = rng.integers(0, 2, size=n)
    # group signal: overall brightness
    x = Tensor(0.25 + 0.5 * groups[:, None, None, None] + 0.05 * rng.normal(size=(n, 1, 16, 16)))
    stats = GroupStats.from_labels(groups, m=2)

    from fairmoe.moe import route_scores

    # only the router gets a gradient; Adam leaves zero-gradient parameters bit-unchanged
    opt = Adam(model.params, lr=1e-2)
    mi_val = 0.0
    for _ in range(500):
        scores = route_scores(x, layer)
        probs = selection_probabilities(scores, stats)
        mi = mutual_information(estimate_joint(probs, groups, stats))
        loss = Tensor(-1.0) * mi
        model.params.zero_grad()
        loss.backward()
        opt.step()
        mi_val = float(mi.data)
    assert mi_val >= 0.95 * np.log(2)
