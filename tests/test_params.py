"""The flat parameter buffer: Adam against its per-parameter reference, views that stay views."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fairmoe.data import SynthConfig, generate
from fairmoe.model import ModelConfig, build_model, load_checkpoint, save_checkpoint
from fairmoe.tensor import ParamSet, Tensor, cross_entropy
from fairmoe.training import Adam, TrainConfig, train

from reference_adam import ReferenceAdam

SMALL_BLOCKS = (
    {"out_channels": 4, "kernel": 3, "stride": 2, "padding": 1},
    {"out_channels": 8, "kernel": 3, "stride": 2, "padding": 1},
)
MOE = ModelConfig(blocks=SMALL_BLOCKS, moe_flags=(True, True))

GRADIENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e150, -1e150]),
    st.floats(min_value=-1e3, max_value=1e3),
)


def flat(arrays):
    return np.concatenate([a.ravel() for a in arrays]).tobytes()


@given(
    shapes=st.lists(hnp.array_shapes(min_dims=0, max_dims=3, max_side=3), min_size=1, max_size=4),
    lr=st.sampled_from([1e-3, 1e-2]),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_flat_adam_equals_per_parameter_reference(shapes, lr, data):
    rng = np.random.default_rng(0)
    inits = {f"p{i}": rng.normal(size=shape) for i, shape in enumerate(shapes)}
    params = ParamSet([(p, Tensor(a.copy())) for p, a in inits.items()])
    reference = {p: Tensor(a.copy()) for p, a in inits.items()}
    opt, ref_opt = Adam(params, lr=lr), ReferenceAdam(reference, lr=lr)
    ends = np.cumsum([a.size for a in inits.values()])[:-1]
    for _ in range(data.draw(st.integers(min_value=3, max_value=5))):
        g = data.draw(hnp.arrays(np.float64, params.data.size, elements=GRADIENTS))
        params.grad[:] = g
        for t, piece in zip(reference.values(), np.split(g, ends)):
            t.grad = piece.reshape(t.shape)
        opt.step()
        ref_opt.step()
        assert params.data.tobytes() == flat(t.data for t in reference.values())
        assert opt.m.tobytes() == flat(ref_opt.m.values())
        assert opt.v.tobytes() == flat(ref_opt.v.values())


def assert_views_of_the_buffer(params):
    for p, t in params.items():
        assert np.shares_memory(t.data, params.data), p
        assert np.shares_memory(t.grad, params.grad), p
    assert flat(t.data for _, t in params.items()) == params.data.tobytes()


def test_parameters_stay_views_after_build_load_and_train(tmp_path):
    model = build_model(MOE, seed=0)
    assert_views_of_the_buffer(model.params)
    samples, stats = generate(SynthConfig(n_samples=64, seed=0))
    train(model, samples, stats, TrainConfig(epochs=1, batch_size=32))
    assert_views_of_the_buffer(model.params)
    save_checkpoint(tmp_path / "c.fmck", model, stats, step=2, rng_state=None)
    loaded = load_checkpoint(tmp_path / "c.fmck")[0]
    assert_views_of_the_buffer(loaded.params)
    assert loaded.params.data.tobytes() == model.params.data.tobytes()


def test_two_backward_calls_accumulate_twice_one_gradient():
    model = build_model(MOE, seed=0)
    samples, stats = generate(SynthConfig(n_samples=16, seed=1))
    logits, _, _ = model.forward(Tensor(samples.images()), stats, mode="argmax")
    loss = cross_entropy(logits, samples.labels)
    loss.backward()
    once = model.params.grad.copy()
    assert np.any(once != 0.0)
    model.params.zero_grad()
    loss.backward()
    loss.backward()
    assert model.params.grad.tobytes() == (2 * once).tobytes()
