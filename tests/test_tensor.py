import gc
import operator
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fairmoe.tensor import (
    ParamSet,
    ShapeError,
    Tensor,
    conv2d,
    cross_entropy,
    dense,
    expert_conv2d,
    global_avg_pool,
    no_grad,
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
    x, unused = Tensor(np.array([1.0, 2.0])), Tensor(np.array([5.0]))
    params = ParamSet([("x", x), ("unused", unused)])
    params.zero_grad()
    (x * x).sum().backward()
    assert unused.grad is not None and np.all(unused.grad == 0.0)


def test_backward_accumulates_until_zeroed():
    x = Tensor(np.array([3.0]), requires_grad=True)
    (x * x).sum().backward()
    (x * x).sum().backward()
    np.testing.assert_array_equal(x.grad, [12.0])


def test_paramset_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        ParamSet([("a", Tensor([1.0])), ("a", Tensor([2.0]))])


def test_paramset_rejects_one_tensor_under_two_paths():
    t = Tensor([1.0, 2.0])
    with pytest.raises(ValueError, match="parameters 'a' and 'b' are one tensor"):
        ParamSet([("a", t), ("b", t)])


def test_paramset_rejects_non_leaf_tensor():
    leaf = Tensor([1.0], requires_grad=True)
    with pytest.raises(ValueError, match="'sum' is not a leaf tensor"):
        ParamSet([("leaf", leaf), ("sum", leaf + leaf)])


def test_no_grad_builds_no_graph_and_restores_the_flag():
    w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    with no_grad():
        out = conv2d(Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((1, 1, 1, 1)), requires_grad=True),
                     Tensor([0.0], requires_grad=True))
        y = (w * w).relu().sum()
    for t in (out, y):
        assert not t.requires_grad and t._parents == () and t._backward is None
    assert (w * w).requires_grad
    with pytest.raises(RuntimeError, match="inside"):
        with no_grad():
            raise RuntimeError("inside")
    assert (w * w).sum()._parents != ()


def _small_net_loss(params, x, y):
    def fn():
        h = conv2d(x, params["k"], params["kb"], stride=2, padding=1).relu()
        f = global_avg_pool(h)
        return cross_entropy(dense(f, params["w"], params["wb"]), y)

    return fn


@pytest.mark.parametrize("seed", range(20))
def test_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    params = ParamSet([
        ("k", Tensor(rng.normal(scale=0.5, size=(3, 2, 3, 3)))),
        ("kb", Tensor(rng.normal(scale=0.1, size=3))),
        ("w", Tensor(rng.normal(scale=0.5, size=(3, 4)))),
        ("wb", Tensor(rng.normal(scale=0.1, size=4))),
    ])
    x = Tensor(rng.normal(size=(2, 2, 6, 6)))
    y = rng.integers(0, 4, size=2)
    err = check_params(_small_net_loss(params, x, y), params)
    assert err < 1e-6


BINARY_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _check_binary_op(op, a_shape, b_shape, result_shape, seed):
    fn = BINARY_OPS[op]
    rng = np.random.default_rng(seed)
    b = rng.normal(size=b_shape)
    if op == "/":
        b = np.sign(b) * (0.5 + np.abs(b))  # denominators at least 0.5 away from 0
    params = ParamSet([("a", Tensor(rng.normal(size=a_shape))), ("b", Tensor(b))])
    a, b = params["a"], params["b"]
    weight = Tensor(rng.normal(size=result_shape))
    assert fn(a, b).data.tobytes() == fn(a.data, b.data).tobytes()
    assert check_params(lambda: (fn(a, b) * fn(a, b) * weight).sum(), params) < 1e-6


@pytest.mark.parametrize(
    "a_shape, b_shape", [((3, 4), (1, 4)), ((3, 4), ()), ((1, 4), (3, 4))],
    ids=["b-broadcast-rows", "b-scalar", "a-broadcast-rows"],
)
def test_sub_matches_numpy_and_finite_differences(a_shape, b_shape):
    _check_binary_op("-", a_shape, b_shape, (3, 4), seed=0)


@settings(max_examples=30, deadline=None)
@given(op=st.sampled_from(sorted(BINARY_OPS)), seed=st.integers(0, 2**32 - 1),
       shapes=hnp.mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=3, max_side=3))
def test_broadcast_ops_match_numpy_and_finite_differences(op, shapes, seed):
    _check_binary_op(op, *shapes.input_shapes, shapes.result_shape, seed)


@settings(max_examples=20, deadline=None)
@given(shape=hnp.array_shapes(min_dims=1, max_dims=3, max_side=3), keepdims=st.booleans(),
       data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_sum_over_an_axis_matches_numpy_and_finite_differences(shape, keepdims, data, seed):
    axis = data.draw(st.integers(-len(shape), len(shape) - 1), label="axis")
    rng = np.random.default_rng(seed)
    params = ParamSet([("x", Tensor(rng.normal(size=shape)))])
    x = params["x"]
    total = x.sum(axis=axis, keepdims=keepdims)
    assert total.data.tobytes() == x.data.sum(axis=axis, keepdims=keepdims).tobytes()
    weight = Tensor(rng.normal(size=total.shape))

    def loss():
        total = x.sum(axis=axis, keepdims=keepdims)
        return (total * total * weight).sum()

    assert check_params(loss, params) < 1e-6


def test_forward_and_gradients_deterministic():
    def run():
        rng = np.random.default_rng(42)
        params = ParamSet([
            ("k", Tensor(rng.normal(size=(2, 1, 3, 3)))),
            ("kb", Tensor(np.zeros(2))),
            ("w", Tensor(rng.normal(size=(2, 3)))),
            ("wb", Tensor(np.zeros(3))),
        ])
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


def test_interior_node_of_a_diamond_gets_both_contributions():
    x = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    a = x * Tensor(3.0)  # interior, used by a*a and by the outer +
    (a * a + a).sum().backward()
    np.testing.assert_array_equal(a.grad, 2 * a.data + 1)
    np.testing.assert_array_equal(x.grad, 3 * (2 * a.data + 1))


def test_nodes_that_receive_one_gradient_array_match_finite_differences():
    # t + t hands t one array twice; u + v hands u and v the same array, and
    # u * v adds a second contribution to each: an in-place sum corrupts the other
    rng = np.random.default_rng(3)
    params = ParamSet([("x", Tensor(rng.normal(size=(2, 3)))), ("w", Tensor(rng.normal(size=3)))])
    x, w = params["x"], params["w"]

    def loss():
        t, u, v = x * w, x * x, x + w
        return ((t + t) * (u + v)).sum() + (u * v).sum()

    assert check_params(loss, params) < 1e-6


def test_two_backward_calls_give_twice_one_calls_gradients():
    rng = np.random.default_rng(4)
    params = ParamSet([("x", Tensor(rng.normal(size=(2, 3)))), ("w", Tensor(rng.normal(size=3)))])
    x, w = params["x"], params["w"]
    a = (x * w).relu()  # each leaf gets one contribution a call, so two sum exactly
    loss = (a * a + a).sum()
    loss.backward()
    once = params.grad.copy()
    params.zero_grad()
    loss.backward()
    loss.backward()
    np.testing.assert_array_equal(params.grad, 2 * once)


def test_adopted_interior_gradients_freed_with_the_graph():
    w = Tensor(np.ones((3, 4)), requires_grad=True)
    gc.disable()
    try:
        a = w * Tensor(2.0)
        loss = (a * a + a).sum()
        loss.backward()
        alive = [weakref.ref(a.data), weakref.ref(a.grad)]
        del a, loss
        assert [ref() for ref in alive] == [None, None]
    finally:
        gc.enable()
    np.testing.assert_array_equal(w.grad, np.full((3, 4), 10.0))


def _experts(rng, m, cout=3, cin=2, k=3, **extra_shapes):
    """One ParamSet of m experts' kernels and biases, then one leaf per extra shape, drawn in order."""
    pairs = []
    for e in range(m):
        pairs.append((f"e{e}.kernel", Tensor(rng.normal(size=(cout, cin, k, k)))))
        pairs.append((f"e{e}.bias", Tensor(rng.normal(size=cout))))
    pairs += [(path, Tensor(rng.normal(size=shape))) for path, shape in extra_shapes.items()]
    params = ParamSet(pairs)
    return params, [(params[f"e{e}.kernel"], params[f"e{e}.bias"]) for e in range(m)]


@pytest.mark.parametrize("x_grad", [True, False])
@pytest.mark.parametrize(
    "chosen", [[0, 2, 0, 2, 2], [1, 1, 1, 1, 1]], ids=["expert-without-rows", "one-expert"]
)
def test_expert_conv2d_equals_conv2d_on_each_experts_rows(chosen, x_grad):
    rng = np.random.default_rng(0)
    _, experts = _experts(rng, 3)
    x = Tensor(rng.normal(size=(5, 2, 6, 6)), requires_grad=x_grad)
    weight = rng.normal(size=(5, 3, 3, 3))
    chosen = np.array(chosen)
    out = expert_conv2d(x, experts, chosen, stride=2, padding=1)
    (out * Tensor(weight)).sum().backward()
    assert (x.grad is not None) == x_grad
    for e, (kernel, bias) in enumerate(experts):
        idx = np.flatnonzero(chosen == e)
        ref_k = Tensor(kernel.data, requires_grad=True)
        ref_b = Tensor(bias.data, requires_grad=True)
        xe = Tensor(x.data[idx], requires_grad=True)
        ref = conv2d(xe, ref_k, ref_b, stride=2, padding=1)
        (ref * Tensor(weight[idx])).sum().backward()
        np.testing.assert_array_equal(out.data[idx], ref.data)
        np.testing.assert_array_equal(kernel.grad, ref_k.grad)
        np.testing.assert_array_equal(bias.grad, ref_b.grad)
        if x_grad:
            np.testing.assert_array_equal(x.grad[idx], xe.grad)


def test_expert_conv2d_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    params, experts = _experts(rng, 3, x=(5, 2, 5, 5))
    x = params["x"]
    weight = Tensor(rng.normal(size=(5, 3, 3, 3)))
    chosen = np.array([2, 0, 2, 2, 0])

    def loss():
        out = expert_conv2d(x, experts, chosen, stride=2, padding=1)
        return (out * out * weight).sum()

    assert check_params(loss, params) < 1e-6  # every expert's kernel and bias, and x
    np.testing.assert_array_equal(params["e1.kernel"].grad, 0.0)  # expert 1 has no rows


def test_expert_conv2d_rejects_bad_input():
    rng = np.random.default_rng(2)
    _, experts = _experts(rng, 2)
    x = Tensor(rng.normal(size=(4, 2, 6, 6)))
    for bad in ([0, 1, 0], [[0, 1, 0, 1]], [0.0, 1.0, 0.0, 1.0]):
        with pytest.raises(ShapeError, match=r"chosen must be \(4,\) ints"):
            expert_conv2d(x, experts, np.array(bad))
    for bad in (-1, 2):
        with pytest.raises(ValueError, match=f"row 2 chose expert {bad}, not in \\[0, 2\\)"):
            expert_conv2d(x, experts, np.array([0, 1, bad, 1]))
    with pytest.raises(ValueError, match="2 experts need a chosen expert per row"):
        expert_conv2d(x, experts, None)
    with pytest.raises(ValueError, match="at least one expert"):
        expert_conv2d(x, [], np.zeros(4, dtype=int))
    kernel, bias = experts[0]
    for odd in ((Tensor(np.zeros((3, 2, 1, 1))), bias), (kernel, Tensor(np.zeros(4)))):
        with pytest.raises(ShapeError, match="every expert needs kernel"):
            expert_conv2d(x, [experts[0], odd], np.array([0, 1, 0, 1]))


@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 4), cin=st.integers(1, 5), cout=st.integers(1, 5), h=st.integers(1, 5),
       w=st.integers(1, 5), x_grad=st.booleans(), x_transposed=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
# tensordot's reshapes keep views here, and a GEMM on a view can give other bits:
@example(n=1, cin=2, cout=1, h=1, w=4, x_grad=False, x_transposed=False, seed=0)  # kernel gradient
@example(n=3, cin=2, cout=1, h=1, w=1, x_grad=False, x_transposed=False, seed=0)  # forward
def test_1x1_conv_equals_the_unfolded_dispatch_path(n, cin, cout, h, w, x_grad, x_transposed, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=shape) for shape in ((n, cin, h, w), (cout, cin, 1, 1), (cout,))]
    if x_transposed:  # (cin, n)-major memory, as a conv output's relu leaves it
        arrays[0] = np.ascontiguousarray(arrays[0].transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    weight = Tensor(rng.normal(size=(n, cout, h, w)))

    def run(chosen):  # chosen=None takes the 1x1 branch; a chosen row per sample unfolds x
        x, kernel, bias = (Tensor(a.copy(order="K"), requires_grad=r)
                           for a, r in zip(arrays, (x_grad, True, True)))
        out = expert_conv2d(x, [(kernel, bias)], chosen)
        (out * weight).sum().backward()
        return out.data, x.grad, kernel.grad, bias.grad

    out, *grads = run(None)
    ref, *ref_grads = run(np.zeros(n, dtype=int))
    np.testing.assert_array_equal(out, ref)
    assert out.transpose(1, 0, 2, 3).flags.c_contiguous  # (cout, n)-major, as the GEMM leaves it
    assert (grads[0] is None) == (not x_grad)
    for g, ref_g in zip(grads, ref_grads):
        np.testing.assert_array_equal(g, ref_g)


@pytest.mark.parametrize("k, padding", [(1, 0), (3, 1)], ids=["1x1", "3x3-padded"])
def test_conv2d_gradients_match_finite_differences(k, padding):
    rng = np.random.default_rng(5)
    params, [(kernel, bias)] = _experts(rng, 1, k=k, x=(3, 2, 4, 5))
    x = params["x"]
    weight = Tensor(rng.normal(size=(3, 3, 4 + 2 * padding - k + 1, 5 + 2 * padding - k + 1)))

    def loss():
        out = conv2d(x * x, kernel, bias, padding=padding)  # x * x: the conv's input is interior
        return (out * out * weight).sum()

    assert check_params(loss, params) < 1e-6
