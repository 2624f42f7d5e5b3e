import gc
import weakref

import numpy as np
import pytest

from fairmoe.tensor import (
    ParamSet,
    ShapeError,
    Tensor,
    conv2d,
    cross_entropy,
    dense,
    global_avg_pool,
)

from gradcheck import check_params


def test_conv2d_hand_example():
    x = Tensor([[[[1, 2, 3], [4, 5, 6], [7, 8, 9]]]])
    k = Tensor(np.ones((1, 1, 2, 2)))
    out = conv2d(x, k, Tensor([0.0]))
    np.testing.assert_array_equal(out.data, [[[[12, 16], [24, 28]]]])


def test_conv2d_identity_kernel():
    x = Tensor(np.random.default_rng(0).normal(size=(2, 1, 5, 5)))
    k = Tensor(np.ones((1, 1, 1, 1)))
    out = conv2d(x, k, Tensor([0.0]))
    np.testing.assert_array_equal(out.data, x.data)


def test_conv2d_zero_kernel():
    x = Tensor(np.random.default_rng(1).normal(size=(1, 2, 4, 4)))
    out = conv2d(x, Tensor(np.zeros((3, 2, 3, 3))), Tensor(np.zeros(3)), padding=1)
    assert np.all(out.data == 0.0)


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("padding", [0, 1, 2])
def test_conv2d_output_shape_formula(stride, padding):
    h = w = 9
    kh = kw = 3
    x = Tensor(np.zeros((1, 1, h, w)))
    out = conv2d(x, Tensor(np.zeros((2, 1, kh, kw))), Tensor(np.zeros(2)), stride, padding)
    expect = (h + 2 * padding - kh) // stride + 1
    assert out.data.shape == (1, 2, expect, expect)


def test_conv2d_channel_mismatch_names_dimension():
    x = Tensor(np.zeros((1, 3, 4, 4)))
    with pytest.raises(ShapeError, match="channel"):
        conv2d(x, Tensor(np.zeros((2, 4, 3, 3))), Tensor(np.zeros(2)))


def test_conv2d_kernel_larger_than_input_rejected():
    with pytest.raises(ShapeError):
        conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))), Tensor(np.zeros(1)))


def test_dense_identity():
    x = Tensor(np.random.default_rng(2).normal(size=(3, 4)))
    out = dense(x, Tensor(np.eye(4)), Tensor(np.zeros(4)))
    np.testing.assert_array_equal(out.data, x.data)


def test_dense_hand_example():
    out = dense(Tensor([[1.0, 2.0]]), Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([3.0, 4.0]))
    np.testing.assert_array_equal(out.data, [[4.0, 6.0]])


def test_dense_zero_input_gives_bias():
    b = np.array([1.5, -2.0, 0.25])
    out = dense(Tensor(np.zeros((4, 2))), Tensor(np.zeros((2, 3))), Tensor(b))
    np.testing.assert_array_equal(out.data, np.tile(b, (4, 1)))


def test_dense_shape_mismatch():
    with pytest.raises(ShapeError, match="inner"):
        dense(Tensor(np.zeros((1, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))


def test_softmax_symmetry_and_normalization():
    out = Tensor([[0.0, 0.0]]).softmax(axis=1)
    np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=0)
    rng = np.random.default_rng(3)
    y = Tensor(rng.normal(scale=10, size=(50, 7))).softmax(axis=1)
    assert np.all(y.data > 0)
    np.testing.assert_allclose(y.data.sum(axis=1), 1.0, atol=1e-12)


def test_cross_entropy_closed_form():
    loss = cross_entropy(Tensor([[0.0, 0.0]]), [0])
    assert loss.data == pytest.approx(np.log(2), abs=1e-12)


def test_cross_entropy_bad_target():
    with pytest.raises(ValueError, match="out of range"):
        cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])


def test_relu():
    out = Tensor([-1.0, 2.0]).relu()
    np.testing.assert_array_equal(out.data, [0.0, 2.0])


def test_log_clamps_at_eps():
    out = Tensor([0.0, 1.0]).log()
    assert out.data[0] == pytest.approx(np.log(1e-12))
    assert out.data[1] == 0.0


def test_backward_sum_of_squares():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    (x * x).sum().backward()
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_requires_scalar():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with pytest.raises(ShapeError, match="scalar"):
        (x * x).backward()


def test_unused_leaf_gradient_is_exact_zero():
    params = ParamSet()
    x = params.add("x", Tensor(np.array([1.0, 2.0])))
    unused = params.add("unused", Tensor(np.array([5.0])))
    params.zero_grad()
    (x * x).sum().backward()
    np.testing.assert_array_equal(params.grads()["unused"], [0.0])
    assert unused.grad is not None and np.all(unused.grad == 0.0)


def test_backward_accumulates_until_zeroed():
    x = Tensor(np.array([3.0]), requires_grad=True)
    (x * x).sum().backward()
    (x * x).sum().backward()
    np.testing.assert_array_equal(x.grad, [12.0])


def test_paramset_rejects_duplicates():
    params = ParamSet()
    params.add("a", Tensor([1.0]))
    with pytest.raises(ValueError, match="duplicate"):
        params.add("a", Tensor([2.0]))


def _small_net_loss(params, x, y):
    def fn():
        h = conv2d(x, params["k"], params["kb"], stride=2, padding=1).relu()
        f = global_avg_pool(h)
        return cross_entropy(dense(f, params["w"], params["wb"]), y)

    return fn


@pytest.mark.parametrize("seed", range(20))
def test_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    params = ParamSet()
    params.add("k", Tensor(rng.normal(scale=0.5, size=(3, 2, 3, 3))))
    params.add("kb", Tensor(rng.normal(scale=0.1, size=3)))
    params.add("w", Tensor(rng.normal(scale=0.5, size=(3, 4))))
    params.add("wb", Tensor(rng.normal(scale=0.1, size=4)))
    x = Tensor(rng.normal(size=(2, 2, 6, 6)))
    y = rng.integers(0, 4, size=2)
    err = check_params(_small_net_loss(params, x, y), params)
    assert err < 1e-6


def test_forward_and_gradients_deterministic():
    def run():
        rng = np.random.default_rng(42)
        params = ParamSet()
        params.add("k", Tensor(rng.normal(size=(2, 1, 3, 3))))
        params.add("kb", Tensor(np.zeros(2)))
        params.add("w", Tensor(rng.normal(size=(2, 3))))
        params.add("wb", Tensor(np.zeros(3)))
        x = Tensor(rng.normal(size=(4, 1, 8, 8)))
        loss = _small_net_loss(params, x, np.array([0, 1, 2, 0]))()
        params.zero_grad()
        loss.backward()
        return loss.data.copy(), {p: t.grad.copy() for p, t in params.items()}

    l1, g1 = run()
    l2, g2 = run()
    assert l1.tobytes() == l2.tobytes()
    for p in g1:
        assert g1[p].tobytes() == g2[p].tobytes()


def test_backward_graph_freed_without_cyclic_gc():
    # backward must not leave a reference cycle that keeps the graph alive
    w = Tensor(np.ones((3, 4)), requires_grad=True)
    gc.disable()
    try:
        hidden = (w * Tensor(2.0)).relu()
        alive = weakref.ref(hidden.data)
        loss = hidden.sum()
        del hidden
        loss.backward()
        del loss
        assert alive() is None
    finally:
        gc.enable()
    np.testing.assert_array_equal(w.grad, np.full((3, 4), 2.0))
