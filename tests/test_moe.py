import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmoe.model import ModelConfig, build_model
from fairmoe.moe import (
    GroupStats,
    RoutingBatch,
    moe_forward,
    route_scores,
    select_expert,
    selection_probabilities,
)
from fairmoe.tensor import Tensor, conv2d


@pytest.fixture
def moe_model():
    return build_model(ModelConfig(moe_flags=(True, False, False, False)), seed=0)


@pytest.fixture
def layer(moe_model):
    return moe_model.layers[0]


def test_group_stats_derived_fields():
    stats = GroupStats(np.array([100.0, 300.0]))
    np.testing.assert_allclose(stats.priors, [0.25, 0.75], atol=1e-15)
    np.testing.assert_allclose(stats.alphas, [0.01, 1 / 300], atol=1e-15)
    assert abs(stats.priors.sum() - 1.0) < 1e-12


def test_group_stats_rejects_nonpositive():
    with pytest.raises(ValueError, match="positive"):
        GroupStats(np.array([10.0, 0.0]))


def test_router_is_smaller_than_one_expert(layer):
    assert sum(t.data.size for t in layer.router) < sum(t.data.size for t in layer.experts[0])


def test_route_scores_uniform_at_zero_init(layer):
    x = Tensor(np.random.default_rng(0).uniform(size=(5, 1, 16, 16)))
    s = route_scores(x, layer)
    np.testing.assert_array_equal(s.data, np.full((5, 2), 0.5))


def test_route_scores_sum_to_one_after_training(layer):
    # perturb the router head so scores are nontrivial
    layer.router[2].data += np.random.default_rng(1).normal(size=layer.router[2].shape)
    x = Tensor(np.random.default_rng(2).uniform(size=(8, 1, 16, 16)))
    s = route_scores(x, layer)
    np.testing.assert_allclose(s.data.sum(axis=1), 1.0, atol=1e-12)


def test_route_scores_deterministic(layer):
    x = np.random.default_rng(3).uniform(size=(4, 1, 16, 16))
    a = route_scores(Tensor(x), layer).data
    b = route_scores(Tensor(x), layer).data
    assert a.tobytes() == b.tobytes()


def test_selection_probabilities_eq_closed_form():
    stats = GroupStats(np.array([100.0, 200.0]))
    p = selection_probabilities(np.array([0.5, 0.5]), stats)
    np.testing.assert_allclose(p.data, [2 / 3, 1 / 3], atol=1e-15)


def test_selection_probabilities_alpha_cancels_for_equal_groups():
    stats = GroupStats(np.array([40.0, 40.0]))
    p = selection_probabilities(np.array([0.8, 0.2]), stats)
    np.testing.assert_allclose(p.data, [0.8, 0.2], atol=1e-15)


def test_selection_probabilities_zero_score_stays_zero():
    stats = GroupStats(np.array([10.0, 90.0]))
    p = selection_probabilities(np.array([1.0, 0.0]), stats)
    np.testing.assert_allclose(p.data, [1.0, 0.0], atol=0)


@given(
    scale=st.floats(min_value=0.1, max_value=1e6),
    n0=st.integers(min_value=1, max_value=10_000),
    n1=st.integers(min_value=1, max_value=10_000),
    s0=st.floats(min_value=1e-6, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_selection_probabilities_scale_invariant(scale, n0, n1, s0):
    scores = np.array([s0, 1.0 - s0 + 1e-9])
    scores /= scores.sum()
    p1 = selection_probabilities(scores, GroupStats(np.array([n0, n1], dtype=float)))
    p2 = selection_probabilities(scores, GroupStats(scale * np.array([n0, n1], dtype=float)))
    np.testing.assert_allclose(p1.data, p2.data, atol=1e-12)


def test_select_expert_argmax_with_tie_break():
    assert select_expert(np.array([0.7, 0.3]), "argmax") == 0
    assert select_expert(np.array([0.5, 0.5]), "argmax") == 0  # lowest index wins ties


def test_select_expert_sampling_frequencies():
    rng = np.random.default_rng(0)
    p = np.array([2 / 3, 1 / 3])
    draws = [select_expert(p, "sample", rng) for _ in range(10_000)]
    freq0 = draws.count(0) / 10_000
    assert abs(freq0 - 2 / 3) < 0.02


def test_select_expert_deterministic_given_seed():
    p = np.array([0.4, 0.6])
    a = [select_expert(p, "sample", np.random.default_rng(9)) for _ in range(50)]
    b = [select_expert(p, "sample", np.random.default_rng(9)) for _ in range(50)]
    assert a == b


def test_moe_forward_single_expert_degenerates_to_conv():
    model = build_model(ModelConfig(moe_flags=(True, False, False, False), m=1), seed=0)
    layer = model.layers[0]
    stats = GroupStats(np.array([10.0]))
    x = Tensor(np.random.default_rng(4).uniform(size=(3, 1, 16, 16)))
    out, _, _ = moe_forward(x, layer, stats, "argmax")
    ref = conv2d(x, *layer.experts[0], stride=layer.stride, padding=layer.padding)
    np.testing.assert_array_equal(out.data, ref.data)


def test_moe_forward_identical_experts_give_identical_output(layer):
    stats = GroupStats(np.array([50.0, 50.0]))
    x = Tensor(np.random.default_rng(5).uniform(size=(6, 1, 16, 16)))
    rng = np.random.default_rng(0)
    out, recs, _ = moe_forward(x, layer, stats, "sample", rng=rng)
    # experts start from one shared draw, so either choice matches either conv
    for k in range(len(layer.experts)):
        ref = conv2d(x, *layer.experts[k], stride=layer.stride, padding=layer.padding)
        np.testing.assert_allclose(out.data, ref.data, atol=1e-12)


def test_moe_forward_chosen_expert_matches_per_expert_oracle(layer):
    # make the experts genuinely different
    rng = np.random.default_rng(6)
    layer.experts[1][0].data += rng.normal(size=layer.experts[1][0].shape)
    stats = GroupStats(np.array([30.0, 70.0]))
    x = Tensor(rng.uniform(size=(2, 1, 16, 16)))
    for forced in (0, 1):
        out, batch, _ = moe_forward(x, layer, stats, "group", groups=[forced, forced])
        ref = conv2d(x, *layer.experts[forced], stride=layer.stride, padding=layer.padding)
        np.testing.assert_array_equal(out.data, ref.data)
        assert len(batch) == 2
        np.testing.assert_array_equal(batch.chosen, [forced, forced])


def test_moe_forward_record_matches_executed_expert(layer):
    rng = np.random.default_rng(7)
    layer.experts[1][0].data += rng.normal(size=layer.experts[1][0].shape)
    stats = GroupStats(np.array([30.0, 70.0]))
    x = Tensor(rng.uniform(size=(10, 1, 16, 16)))
    out, batch, _ = moe_forward(x, layer, stats, "sample", rng=np.random.default_rng(1))
    assert len(batch) == 10
    for i, chosen in enumerate(batch.chosen.tolist()):
        ref = conv2d(
            Tensor(x.data[[i]]), *layer.experts[chosen],
            stride=layer.stride, padding=layer.padding,
        )
        np.testing.assert_allclose(out.data[i], ref.data[0], atol=1e-12)


def test_single_layer_record_reproducible_in_isolation(moe_model):
    # routing at one layer depends only on its input and seed
    layer = moe_model.layers[0]
    stats = GroupStats(np.array([30.0, 70.0]))
    x = Tensor(np.random.default_rng(8).uniform(size=(5, 1, 16, 16)))
    _, b1, _ = moe_forward(x, layer, stats, "sample", rng=np.random.default_rng(3))
    _, b2, _ = moe_forward(x, layer, stats, "sample", rng=np.random.default_rng(3))
    assert b1.chosen.tolist() == b2.chosen.tolist()
    assert b1.scores.tobytes() == b2.scores.tobytes()
    assert b1.probabilities.tobytes() == b2.probabilities.tobytes()


@st.composite
def probability_rows(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    m = draw(st.integers(min_value=1, max_value=12))
    cell = st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1e3))
    rows = draw(st.lists(st.lists(cell, min_size=m, max_size=m), min_size=n, max_size=n))
    p = np.array(rows, dtype=np.float64).reshape(n, m)
    p[p.sum(axis=1) == 0, draw(st.integers(0, m - 1))] = 1.0  # one-hot rows
    return p


@given(p=probability_rows(), seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_select_expert_batch_equals_sequential_choice(p, seed):
    sequential, batched = np.random.default_rng(seed), np.random.default_rng(seed)
    want = [int(sequential.choice(p.shape[1], p=row / row.sum())) for row in p]
    got = select_expert(p, "sample", batched)
    assert got.shape == (len(p),)
    assert got.tolist() == want
    assert batched.bit_generator.state == sequential.bit_generator.state


def test_select_expert_batch_argmax_and_bad_rows():
    p = np.array([[0.2, 0.8], [0.5, 0.5], [0.9, 0.1]])
    np.testing.assert_array_equal(select_expert(p, "argmax"), [1, 0, 0])
    rng = np.random.default_rng(0)
    for bad in ([[0.5, -0.1]], [[0.0, 0.0]], [[np.nan, 1.0]]):
        with pytest.raises(ValueError):
            select_expert(np.array(bad), "sample", rng)
    with pytest.raises(ValueError, match="unknown routing mode"):
        select_expert(p, "mix")


def test_routing_batch_validates_once_per_batch():
    scores = np.array([[0.5, 0.5], [0.25, 0.75]])
    ok = RoutingBatch(np.arange(2), 0, "argmax", np.array([0, 1]), scores, scores)
    assert len(ok) == 2
    with pytest.raises(ValueError, match="out of range"):
        RoutingBatch(np.arange(2), 0, "argmax", np.array([0, 2]), scores, scores)
    with pytest.raises(ValueError, match="sum to 1"):
        RoutingBatch(np.arange(2), 0, "argmax", np.array([0, 1]), scores, scores * 1.01)
