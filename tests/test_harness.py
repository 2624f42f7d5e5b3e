import csv
import functools
import json
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmoe import cli, training
from fairmoe.cli import main as cli_main
from fairmoe.data import SynthConfig, generate, load, save, split
from fairmoe.fairness import FairnessReport
from fairmoe.moe import GroupStats
from fairmoe.model import (
    BLOCK_KEYS,
    CheckpointFormatError,
    ModelConfig,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from fairmoe.tensor import ShapeError, Tensor, cross_entropy
from fairmoe.training import (
    TrainConfig,
    TrainingDiverged,
    ablate_moe_layers,
    evaluate,
    moe_flags_for_count,
    router_depth_report,
    run_training,
    train,
    write_routing_csv,
)

SMALL_BLOCKS = (
    {"out_channels": 4, "kernel": 3, "stride": 2, "padding": 1},
    {"out_channels": 8, "kernel": 3, "stride": 2, "padding": 1},
)


@pytest.fixture(scope="module")
def dataset():
    samples, stats = generate(SynthConfig(n_samples=300, seed=0))
    train_s, test_s = split(samples, 0.8, seed=0)
    return train_s, test_s, stats


def param_count(model):
    return sum(t.data.size for _, t in model.params.items())


def cli_error(argv, capsys):
    """The one stderr line ``cli_main(argv)`` ends with; checks for argparse's exit code 2."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exited:
        cli_main(argv)
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("fairmoe: error: ") and err.count("\n") == 1, err
    return err


def test_plain_model_parameter_count():
    cfg = ModelConfig(blocks=SMALL_BLOCKS, moe_flags=(False, False))
    model = build_model(cfg, seed=0)
    expect = (4 * 1 * 9 + 4) + (8 * 4 * 9 + 8) + (8 * 4 + 4)
    assert param_count(model) == expect


def test_moe_layer_doubles_expert_parameters():
    plain = build_model(ModelConfig(blocks=SMALL_BLOCKS, moe_flags=(False, False)), seed=0)
    moe = build_model(ModelConfig(blocks=SMALL_BLOCKS, moe_flags=(False, True), m=2), seed=0)
    layer_params = 8 * 4 * 9 + 8
    router_params = (8 * 4 + 8) + (8 * 2 + 2)
    assert param_count(moe) == param_count(plain) + layer_params + router_params


def test_build_model_same_seed_identical():
    cfg = ModelConfig(moe_flags=(True, False, True, False))
    a, b = build_model(cfg, seed=3), build_model(cfg, seed=3)
    for (pa, ta), (pb, tb) in zip(a.params.items(), b.params.items()):
        assert pa == pb and ta.data.tobytes() == tb.data.tobytes()


def test_model_config_validation():
    with pytest.raises(ValueError, match="at least one"):
        ModelConfig(blocks=(), moe_flags=())
    with pytest.raises(ValueError, match="flag"):
        ModelConfig(moe_flags=(True,))


@pytest.mark.parametrize("flags", [("false",) * 4, "FFFF", (0, 0, 0, 1)])
def test_model_config_moe_flags_must_be_bools(flags):
    with pytest.raises(ValueError, match=r"model moe_flags must be bools, got ('false'|'F'|0)$"):
        ModelConfig(moe_flags=flags)
    numpy_flags = ModelConfig(moe_flags=np.array([False, False, True, True]))
    assert numpy_flags.moe_flags == (False, False, True, True)


def test_moe_flags_for_count_fills_from_final_layer():
    assert moe_flags_for_count(4, 0) == (False, False, False, False)
    assert moe_flags_for_count(4, 2) == (False, False, True, True)
    assert moe_flags_for_count(4, 4) == (True, True, True, True)
    with pytest.raises(ValueError):
        moe_flags_for_count(4, 5)


def test_training_decreases_loss(dataset):
    train_s, _, stats = dataset
    cfg = ModelConfig(blocks=SMALL_BLOCKS, moe_flags=(False, False))
    model, log = run_training(cfg, train_s, stats, TrainConfig(epochs=5, seed=0, mi_weight=0.0))
    ce = [row["ce"] for row in log]
    assert ce[-1] < ce[0]


def test_training_deterministic(dataset):
    train_s, _, stats = dataset
    cfg = ModelConfig(blocks=SMALL_BLOCKS, moe_flags=(True, True))
    tc = TrainConfig(epochs=2, seed=1)
    m1, log1 = run_training(cfg, train_s, stats, tc)
    m2, log2 = run_training(cfg, train_s, stats, tc)
    assert log1 == log2
    for (_, t1), (_, t2) in zip(m1.params.items(), m2.params.items()):
        assert t1.data.tobytes() == t2.data.tobytes()


def test_training_divergence_reports_step(dataset):
    train_s, _, stats = dataset
    cfg = ModelConfig(blocks=SMALL_BLOCKS, moe_flags=(False, False))
    model = build_model(cfg, seed=0)
    model.head_w.data[:] = np.nan  # force a non-finite loss immediately
    with pytest.raises(TrainingDiverged, match="step 0"):
        train(model, train_s, stats, TrainConfig(epochs=1, seed=0))


def test_non_finite_gradient_raises_before_adam_writes(dataset, monkeypatch):
    train_s, _, stats = dataset
    model = build_model(ModelConfig(blocks=SMALL_BLOCKS, moe_flags=(False, True)), seed=0)
    real_backward, seen = Tensor.backward, {}

    def backward(loss):  # the real sweep, then NaNs in two gradients at step 1
        real_backward(loss)
        seen["calls"] = seen.get("calls", 0) + 1
        if seen["calls"] == 2:
            seen["weights"] = {p: t.data.tobytes() for p, t in model.params.items()}
            model.params["layer1.expert1.bias"].grad[0] = np.nan
            model.params["head.weights"].grad[1, 2] = np.inf

    monkeypatch.setattr(Tensor, "backward", backward)
    with pytest.raises(TrainingDiverged, match=r"gradient in layer1\.expert1\.bias at step 1$"):
        train(model, train_s, stats, TrainConfig(epochs=1, seed=0))
    assert {p: t.data.tobytes() for p, t in model.params.items()} == seen["weights"]


def test_full_moe_step_builds_at_most_92_graph_nodes(dataset, monkeypatch):
    train_s, _, stats = dataset
    model = build_model(ModelConfig(moe_flags=(True, True, True, True)), seed=0)
    real_backward, counts = Tensor.backward, []

    def backward(loss):  # count the op nodes (those with parents) reachable from the loss
        seen, stack, ops = {id(loss)}, [loss], 0
        while stack:
            node = stack.pop()
            ops += bool(node._parents)
            for p in node._parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append(p)
        counts.append(ops)
        real_backward(loss)

    monkeypatch.setattr(Tensor, "backward", backward)
    train(model, train_s[:64], stats, TrainConfig(epochs=1, batch_size=64))
    assert len(counts) == 1 and counts[0] <= 92, counts


def test_checkpoint_roundtrip_bit_exact(tmp_path, dataset):
    train_s, test_s, stats = dataset
    cfg = ModelConfig(blocks=SMALL_BLOCKS, moe_flags=(True, True))
    model, log = run_training(cfg, train_s, stats, TrainConfig(epochs=2, seed=2), out_dir=tmp_path)
    path = tmp_path / "checkpoint.fmck"
    loaded, stats2, step, rng_state, train_cfg = load_checkpoint(path)
    assert step == log[-1]["step"]
    assert train_cfg["seed"] == 2
    np.testing.assert_array_equal(stats2.sizes, stats.sizes)
    for (p1, t1), (p2, t2) in zip(model.params.items(), loaded.params.items()):
        assert p1 == p2 and t1.data.tobytes() == t2.data.tobytes()
    # same bytes when re-saved
    save_checkpoint(tmp_path / "again.fmck", loaded, stats2, step, rng_state, train_cfg)
    assert path.read_bytes() == (tmp_path / "again.fmck").read_bytes()


def test_checkpoint_rejects_corruption(tmp_path, dataset):
    train_s, _, stats = dataset
    cfg = ModelConfig(blocks=SMALL_BLOCKS, moe_flags=(False, False))
    model, _ = run_training(cfg, train_s, stats, TrainConfig(epochs=1, seed=0), out_dir=tmp_path)
    path = tmp_path / "checkpoint.fmck"
    raw = path.read_bytes()
    (tmp_path / "bad.fmck").write_bytes(b"ZZZZ" + raw[4:])
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(tmp_path / "bad.fmck")
    (tmp_path / "short.fmck").write_bytes(raw[:-50])
    with pytest.raises(CheckpointFormatError, match="truncated"):
        load_checkpoint(tmp_path / "short.fmck")


@functools.cache
def small_fmck():
    config = ModelConfig(
        blocks=({"out_channels": 2, "kernel": 3, "stride": 2, "padding": 1},),
        moe_flags=(True,), router_width=1, n_classes=2,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "small.fmck"
        save_checkpoint(path, build_model(config, seed=0), GroupStats(np.array([3.0, 5.0])),
                        step=7, rng_state=None, train_config=TrainConfig().to_dict())
        return path.read_bytes()


def _load_or_format_error(raw):
    """Loads ``raw``; a malformed file may raise CheckpointFormatError and nothing else."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.fmck"
        path.write_bytes(raw)
        try:
            load_checkpoint(path)
        except CheckpointFormatError:
            return False
    return True


def test_every_checkpoint_truncation_raises_format_error():
    raw = small_fmck()
    assert _load_or_format_error(raw)
    for cut in range(len(raw)):
        assert not _load_or_format_error(raw[:cut]), f"cut at byte {cut} loaded"


def test_checkpoint_with_trailing_bytes_raises_format_error(tmp_path):
    path = tmp_path / "c.fmck"
    path.write_bytes(small_fmck() + bytes(8))
    with pytest.raises(CheckpointFormatError, match="8 trailing bytes"):
        load_checkpoint(path)


def test_checkpoint_cut_inside_a_parameter_names_it(tmp_path):
    raw = small_fmck()
    (meta_len,) = struct.unpack_from("<I", raw, 6)
    offset = 10 + meta_len
    path = tmp_path / "c.fmck"
    meta = json.loads(raw[10:offset])
    for p in meta["param_order"]:
        path.write_bytes(raw[: offset + 4])  # half of the parameter's first value
        with pytest.raises(CheckpointFormatError,
                           match=f"truncated in parameter {re.escape(p)} at byte {offset}$"):
            load_checkpoint(path)
        offset += 8 * int(np.prod(meta["param_shapes"][p]))
    assert offset == len(raw)


def test_checkpoint_rejects_expert_group_mismatch(tmp_path):
    model = build_model(ModelConfig(blocks=SMALL_BLOCKS, moe_flags=(False, True), m=3), seed=0)
    save_checkpoint(tmp_path / "c.fmck", model, GroupStats(np.array([3.0, 5.0])), 0, None)
    with pytest.raises(CheckpointFormatError, match="3 experts.*2 group sizes"):
        load_checkpoint(tmp_path / "c.fmck")


@given(
    cut=st.integers(min_value=0, max_value=2**16),
    pos=st.integers(min_value=0, max_value=2**16),
    flip=st.integers(min_value=1, max_value=255),
)
@settings(max_examples=400, deadline=None)
def test_checkpoint_fuzz_raises_only_format_error(cut, pos, flip):
    raw = small_fmck()
    assert not _load_or_format_error(raw[: cut % len(raw)])
    mutated = bytearray(raw)
    mutated[pos % len(raw)] ^= flip
    _load_or_format_error(bytes(mutated))  # may load: most bytes are parameter values


@pytest.mark.parametrize(
    "old, new", [(b'"stride": 2', b'"stride": 0'), (b'"m": 2', b'"q": 2')]
)
def test_checkpoint_with_bad_model_config_raises_format_error(old, new):
    raw = small_fmck()
    assert raw.count(old) == 1
    assert not _load_or_format_error(raw.replace(old, new))


def test_checkpoint_with_zero_router_width_raises_format_error(tmp_path):
    raw = small_fmck()
    assert raw.count(b'"router_width": 1') == 1
    path = tmp_path / "c.fmck"
    path.write_bytes(raw.replace(b'"router_width": 1', b'"router_width": 0'))
    with pytest.raises(CheckpointFormatError, match="model router_width must be an int >= 1"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "key, value", [("stride", 0), ("kernel", 0), ("out_channels", 0), ("padding", -1)]
)
def test_model_config_rejects_bad_block_geometry(key, value):
    block = {**SMALL_BLOCKS[1], key: value}
    with pytest.raises(ValueError, match=f"block 1 {key} must be an int >= "):
        ModelConfig(blocks=(SMALL_BLOCKS[0], block), moe_flags=(False, False))


def test_model_config_rejects_a_router_not_smaller_than_one_expert(tmp_path):
    # one expert: 2*1*3*3 + 2 = 20 parameters; router: r*1 + r + r*2 + 2 = 4r + 2
    block = {"out_channels": 2, "kernel": 3, "stride": 2, "padding": 1}
    ModelConfig(blocks=(block,), moe_flags=(True,), router_width=4)
    with pytest.raises(ValueError, match="block 0 router has 22 parameters, not smaller "
                                         "than one expert's 20"):
        ModelConfig(blocks=(block,), moe_flags=(True,), router_width=5)
    ModelConfig(blocks=(block,), moe_flags=(False,), router_width=5)  # no router, no limit
    raw = small_fmck()
    assert raw.count(b'"router_width": 1') == 1
    path = tmp_path / "c.fmck"
    path.write_bytes(raw.replace(b'"router_width": 1', b'"router_width": 5'))
    with pytest.raises(CheckpointFormatError, match="22 parameters, not smaller"):
        load_checkpoint(path)


@pytest.mark.parametrize("field", ["m", "router_width", "n_classes", "in_channels"])
@pytest.mark.parametrize("value", [0, -1, True, 1.5, "2", None])
def test_model_config_rejects_bad_scalar_fields(field, value):
    with pytest.raises(ValueError, match=f"model {field} must be an int >= 1, got {value!r}"):
        ModelConfig(blocks=SMALL_BLOCKS, moe_flags=(False, True), **{field: value})


def test_model_config_rejects_missing_and_unknown_block_keys():
    with pytest.raises(ValueError, match="block 0 is missing key 'padding'"):
        ModelConfig(blocks=({"out_channels": 4, "kernel": 3, "stride": 2},), moe_flags=(False,))
    with pytest.raises(ValueError, match="block 0 has unknown key 'strde'"):
        ModelConfig(blocks=({**SMALL_BLOCKS[0], "strde": 1},), moe_flags=(False,))


_block_values = st.integers(min_value=-1, max_value=4) | st.sampled_from(
    [True, None, 1.5, float("nan"), "2", [1]]
)


@given(
    block=st.fixed_dictionaries(
        {k: _block_values for k in BLOCK_KEYS}, optional={"strde": _block_values}
    ) | st.dictionaries(st.sampled_from(BLOCK_KEYS), _block_values),
    moe=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_random_blocks_raise_only_value_error(block, moe):
    try:
        config = ModelConfig(blocks=(block,), moe_flags=(moe,), router_width=1)
        model = build_model(config, seed=0)  # a router as big as an expert is a ValueError
    except ValueError:
        return
    # accepted geometry runs unless the kernel outgrows the input
    try:
        model.forward(np.ones((2, 1, 3, 3)), GroupStats(np.array([1.0, 1.0])))
    except ShapeError as exc:
        assert "smaller than kernel" in str(exc)


def test_reloaded_checkpoint_reproduces_eval_exactly(tmp_path, dataset):
    train_s, test_s, stats = dataset
    cfg = ModelConfig(blocks=SMALL_BLOCKS, moe_flags=(True, True))
    model, _ = run_training(cfg, train_s, stats, TrainConfig(epochs=2, seed=4), out_dir=tmp_path)
    log1, rep1, _ = evaluate(model, test_s, stats, mode="argmax")
    loaded, stats2, _, _, _ = load_checkpoint(tmp_path / "checkpoint.fmck")
    log2, rep2, _ = evaluate(loaded, test_s, stats2, mode="argmax")
    np.testing.assert_array_equal(log1.predicted_classes, log2.predicted_classes)
    assert rep1.to_json() == rep2.to_json()


def test_evaluate_handles_wider_head(dataset):
    train_s, test_s, stats = dataset
    cfg = ModelConfig(blocks=SMALL_BLOCKS, moe_flags=(False, False), n_classes=7)
    model = build_model(cfg, seed=0)
    _, rep, _ = evaluate(model, test_s, stats, mode="argmax")
    # labels fit inside the wider head; never-seen classes drop out of macro means
    assert np.isfinite(rep.avg["f1"])


def test_routing_csv_schema(tmp_path, dataset):
    train_s, test_s, stats = dataset
    cfg = ModelConfig(blocks=SMALL_BLOCKS, moe_flags=(False, True))
    model = build_model(cfg, seed=0)
    _, _, records = evaluate(model, test_s, stats, mode="argmax")
    path = tmp_path / "routing.csv"
    write_routing_csv(records, path)
    header = path.read_text().splitlines()[0]
    assert header == "sample_id,layer_index,mode,chosen_expert,s_0,s_1,p_0,p_1"


def test_routing_csv_round_trip(tmp_path, dataset):
    train_s, test_s, stats = dataset
    cfg = ModelConfig(blocks=SMALL_BLOCKS, moe_flags=(True, True))
    model, _ = run_training(cfg, train_s, stats, TrainConfig(epochs=1, seed=0))
    _, _, batches = evaluate(model, test_s, stats, mode="argmax")
    path = tmp_path / "routing.csv"
    write_routing_csv(batches, path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))[1:]
    assert len(rows) == 2 * len(test_s)
    assert {(int(r[0]), int(r[1])) for r in rows} == {
        (i, layer) for i in range(len(test_s)) for layer in (0, 1)
    }
    cells = np.array([[float(v) for v in r[4:]] for r in rows])  # plain floats, no np.float64(...)
    scores, probs = cells[:, :2], cells[:, 2:]
    want = np.concatenate([np.hstack([b.scores, b.probabilities]) for b in batches])
    assert cells.tobytes() == want.tobytes()  # round trip is exact
    balanced = scores / stats.sizes
    np.testing.assert_allclose(
        probs, balanced / balanced.sum(axis=1, keepdims=True), rtol=0, atol=1e-12
    )
    assert [int(r[3]) for r in rows] == np.argmax(probs, axis=1).tolist()


def test_router_depth_report_uniform_at_init(dataset):
    train_s, test_s, stats = dataset
    model = build_model(ModelConfig(blocks=SMALL_BLOCKS, moe_flags=(True, True)), seed=0)
    rows = router_depth_report(model, test_s, train_s, stats)
    assert {r["layer_index"] for r in rows} == {0, 1}
    for r in rows:
        assert r["mean_own_score"] == 0.5  # zero-init router head


def test_evaluate_and_route_report_leave_gradients_unchanged(dataset):
    train_s, test_s, stats = dataset
    cfg = ModelConfig(blocks=SMALL_BLOCKS, moe_flags=(True, True))
    evaluated, untouched = build_model(cfg, seed=3), build_model(cfg, seed=3)
    evaluate(evaluated, test_s, stats, mode="sample")
    router_depth_report(evaluated, test_s, train_s, stats)
    for model in (evaluated, untouched):
        logits, _, _ = model.forward(Tensor(train_s.images(slice(0, 32))), stats, mode="argmax")
        model.params.zero_grad()
        cross_entropy(logits, train_s.labels[:32]).backward()
    assert np.any(untouched.params.grad != 0.0)
    assert evaluated.params.grad.tobytes() == untouched.params.grad.tobytes()
    assert evaluated.params.data.tobytes() == untouched.params.data.tobytes()


def test_route_report_assigns_own_expert_from_balanced_probabilities(dataset):
    train_s, test_s, _ = dataset
    stats = GroupStats(np.array([200.0, 100.0]))
    model = build_model(ModelConfig(moe_flags=(False, False, False, True)), seed=0)
    # dense weights start at zero, so every sample scores (0.7, 0.3) and P(E|C) favours expert 0
    model.params["layer3.router.dense.bias"].data[:] = np.log([0.7, 0.3])
    balanced = (0.7 / 200) / (0.7 / 200 + 0.3 / 100)
    for kind, score in (("softmax", 0.7), ("balanced", balanced)):
        rows = router_depth_report(model, test_s, train_s, stats, score_kind=kind)
        assert [r["own_expert"] for r in rows] == [0, 0], kind
        assert [r["mean_own_score"] for r in rows] == pytest.approx([score, score])


def test_cli_end_to_end(tmp_path, capsys):
    config = {
        "synth": {"n_samples": 200, "seed": 0},
        "model": {"blocks": list(SMALL_BLOCKS), "moe_flags": [True, True]},
        "train": {"epochs": 1, "seed": 0},
        "train_fraction": 0.8,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    data_dir = tmp_path / "data"
    run_dir = tmp_path / "run"

    cli_main(["synth-data", "--config", str(cfg_path), "--out", str(data_dir)])
    assert (data_dir / "data.fmds").exists() and (data_dir / "manifest.csv").exists()

    cli_main(["train", "--config", str(cfg_path), "--data", str(data_dir), "--out", str(run_dir)])
    ckpt = run_dir / "checkpoint.fmck"
    assert ckpt.exists() and (run_dir / "train_log.csv").exists()

    eval_dir = tmp_path / "eval"
    cli_main([
        "eval", "--checkpoint", str(ckpt), "--data", str(data_dir),
        "--baseline", str(ckpt), "--out", str(eval_dir),
    ])
    report = json.loads((eval_dir / "report.json").read_text())
    assert set(report["fate"]) == {"eopp0", "eopp1", "eodd"}
    # scored against itself: zero wherever the baseline gap is nonzero
    assert all(v in (0.0, None) for v in report["fate"].values())
    assert (eval_dir / "predictions.csv").exists()
    assert (eval_dir / "routing.csv").exists()

    rr = tmp_path / "route.csv"
    cli_main(["route-report", "--checkpoint", str(ckpt), "--data", str(data_dir), "--out", str(rr)])
    assert rr.read_text().splitlines()[0] == "layer_index,group,own_expert,mean_own_score"
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, section, key",
    [
        ("synth-data", "synth", "n_sample"),
        ("train", "model", "moe_flag"),
        ("train", "train", "mi_wieght"),
        ("train", "train", "optimizer"),
        ("ablate", "model", "moe_flag"),
        ("ablate", "train", "mi_wieght"),
    ],
)
def test_cli_rejects_unknown_config_keys(tmp_path, capsys, command, section, key):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({section: {key: 1}}))
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    if command != "synth-data":
        argv += ["--data", str(tmp_path / "no-data")]
    assert re.search(f"section '{section}' has unknown key '{key}'", cli_error(argv, capsys))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("key", ["train_fracton", "ablation_seed"])
def test_cli_rejects_unknown_top_level_config_keys(tmp_path, capsys, command, key):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"train": {"epochs": 1}, key: 0.7}))
    argv = [command, "--config", str(cfg_path), "--data", str(tmp_path / "no-data"),
            "--out", str(tmp_path / "out")]
    assert re.search(f"config has unknown key '{key}'", cli_error(argv, capsys))
    assert not (tmp_path / "out").exists()


def test_ablation_rejects_empty_seed_list(dataset, tmp_path, monkeypatch, capsys):
    train_s, test_s, stats = dataset

    def no_training(*args, **kwargs):
        raise AssertionError("trained before rejecting the seed list")

    monkeypatch.setattr(training, "run_training", no_training)
    cfg = ModelConfig(blocks=SMALL_BLOCKS, moe_flags=(False, False))
    with pytest.raises(ValueError, match="ablation_seeds"):
        ablate_moe_layers(cfg, train_s, test_s, stats, TrainConfig(epochs=1), seeds=())

    samples, _ = generate(SynthConfig(n_samples=40, seed=3))
    save(samples, tmp_path / "data")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"model": {"blocks": list(SMALL_BLOCKS),
                                              "moe_flags": [False, False]},
                                    "train": {"epochs": 1}, "ablation_seeds": []}))
    assert re.search("ablation_seeds", cli_error(
        ["ablate", "--config", str(cfg_path), "--data", str(tmp_path / "data"),
         "--out", str(tmp_path / "out")], capsys))
    assert not (tmp_path / "out").exists()


def test_ablation_fate_against_a_perfectly_fair_plain_row_is_none(dataset, monkeypatch):
    train_s, test_s, stats = dataset

    def fake_training(config, *args, **kwargs):
        return config, []

    def fake_evaluate(config, *args, **kwargs):
        moe = sum(config.moe_flags)
        report = FairnessReport(per_group={}, avg={"f1": 0.5 + 0.1 * moe}, diff={},
                                eopp0=0.1, eopp1=0.1, eodd=0.05 * moe)
        return None, report, []

    monkeypatch.setattr(training, "run_training", fake_training)
    monkeypatch.setattr(training, "evaluate", fake_evaluate)
    cfg = ModelConfig(blocks=SMALL_BLOCKS, moe_flags=(False, False))
    table = ablate_moe_layers(cfg, train_s, test_s, stats, TrainConfig(epochs=1), seeds=(0, 1))
    assert [row["eodd"] for row in table] == [0.0, 0.05, 0.1]
    assert [row["fate_eodd"] for row in table] == [None, None, None]


def test_ablation_rejects_a_negative_mi_weight_before_training(tmp_path, monkeypatch, capsys):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before rejecting mi_weight")

    monkeypatch.setattr(training, "run_training", no_training)
    samples, _ = generate(SynthConfig(n_samples=40, seed=3))
    save(samples, tmp_path / "data")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"model": {"blocks": list(SMALL_BLOCKS),
                                              "moe_flags": [False, True]},
                                    "train": {"epochs": 1, "mi_weight": -1},
                                    "ablation_seeds": [0, 1]}))
    err = cli_error(["ablate", "--config", str(cfg_path), "--data", str(tmp_path / "data"),
                     "--out", str(tmp_path / "out")], capsys)
    assert re.search(r"train mi_weight must be finite and >= 0, got -1$", err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["header-only FMDS", "truncated FMCK", "unknown config key"])
def test_cli_reports_input_errors_in_one_line(tmp_path, capsys, case):
    ckpt, data_dir, cfg_path = tmp_path / "c.fmck", tmp_path / "data", tmp_path / "config.json"
    samples, _ = generate(SynthConfig(n_samples=40, seed=3))
    save(samples[:0], data_dir)
    ckpt.write_bytes(small_fmck()[:-4] if case == "truncated FMCK" else small_fmck())
    cfg_path.write_text(json.dumps({"train": {"optimizer": "sgd"}}))
    argv, message = {
        "header-only FMDS": (["eval", "--checkpoint", str(ckpt), "--data", str(data_dir)],
                             "the dataset has no samples"),
        "truncated FMCK": (["eval", "--checkpoint", str(ckpt), "--data", str(data_dir)],
                           "truncated in parameter"),
        "unknown config key": (["train", "--config", str(cfg_path), "--data", str(data_dir)],
                               "section 'train' has unknown key 'optimizer'"),
    }[case]
    assert message in cli_error([*argv, "--out", str(tmp_path / "out")], capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc, message", [
    ({"train_fraction": "0.8"}, "config train_fraction must be a number, got '0.8'"),
    ({"split_seed": "0"}, "config split_seed must be an int >= 0, got '0'"),
    ({"ablation_seeds": 3}, "config ablation_seeds must be a list, got 3"),
], ids=["train_fraction", "split_seed", "ablation_seeds"])
def test_cli_rejects_bad_top_level_config_values(tmp_path, capsys, doc, message):
    samples, _ = generate(SynthConfig(n_samples=40, seed=3))
    save(samples, tmp_path / "data")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"model": {"blocks": list(SMALL_BLOCKS),
                                              "moe_flags": [False, True]},
                                    "train": {"epochs": 1}, **doc}))
    err = cli_error(["ablate", "--config", str(cfg_path), "--data", str(tmp_path / "data"),
                     "--out", str(tmp_path / "out")], capsys)
    assert err == f"fairmoe: error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_cli_rejects_a_bad_synth_config_in_one_line(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"synth": {"n_samples": 2.5}}))
    err = cli_error(["synth-data", "--config", str(cfg_path), "--out", str(tmp_path / "d")],
                    capsys)
    assert err == "fairmoe: error: synth n_samples must be an int >= 1, got 2.5\n"
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("field, value", [
    ("epochs", 1.5), ("epochs", 0), ("batch_size", 8.0), ("batch_size", True),
    ("seed", -3), ("seed", 1.0), ("learning_rate", float("nan")), ("learning_rate", 0.0),
    ("learning_rate", float("inf")), ("mi_weight", -1.0), ("mi_weight", float("nan")),
    ("mi_weight", float("inf")),
])
def test_train_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=f"train {field} must be "):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("make, message", [
    (lambda: SynthConfig(noise_sigma="0.1"), "synth noise_sigma must be finite and >= 0, got '0.1'"),
    (lambda: SynthConfig(threshold="0.5"), "threshold must lie in (0, 1), got '0.5'"),
    (lambda: SynthConfig(class_priors=[["0.5", "0.5"]] * 2, n_classes=2),
     "class_priors must be numbers, got [['0.5', '0.5'], ['0.5', '0.5']]"),
    (lambda: TrainConfig(learning_rate="0.01"),
     "train learning_rate must be finite and > 0, got '0.01'"),
    (lambda: TrainConfig(learning_rate=True), "train learning_rate must be finite and > 0, got True"),
    (lambda: TrainConfig(mi_weight="0"), "train mi_weight must be finite and >= 0, got '0'"),
    (lambda: ModelConfig(moe_flags=True), "model moe_flags must be a sequence of bools, got True"),
], ids=["noise_sigma", "threshold", "class_priors", "learning_rate-str", "learning_rate-bool", "mi_weight", "moe_flags"])
def test_config_values_of_the_wrong_type_are_value_errors(make, message):
    with pytest.raises(ValueError) as raised:
        make()
    assert str(raised.value) == message


def test_numpy_floats_pass_the_number_checks():
    cfg = TrainConfig(learning_rate=np.float64(0.01), mi_weight=np.float64(0.0))
    assert cfg.learning_rate == 0.01
    assert SynthConfig(noise_sigma=np.float64(0.2), threshold=np.float64(0.4)).threshold == 0.4


def test_cli_rejects_a_string_noise_sigma_in_one_line(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"synth": {"noise_sigma": "0.1"}}))
    err = cli_error(["synth-data", "--config", str(cfg_path), "--out", str(tmp_path / "d")],
                    capsys)
    assert err == "fairmoe: error: synth noise_sigma must be finite and >= 0, got '0.1'\n"


def test_train_config_rejects_unknown_modes():
    with pytest.raises(ValueError, match="routing_mode 'mix'.*sample"):
        TrainConfig(routing_mode="mix")
    with pytest.raises(ValueError, match="eval_mode 'soft'.*argmax"):
        TrainConfig(eval_mode="soft")


def test_run_training_rejects_expert_group_mismatch(dataset):
    train_s, _, stats = dataset
    cfg = ModelConfig(blocks=SMALL_BLOCKS, moe_flags=(False, True), m=3)
    with pytest.raises(ValueError, match="m=3.*2 groups"):
        run_training(cfg, train_s, stats, TrainConfig(epochs=1))
    plain = ModelConfig(blocks=SMALL_BLOCKS, moe_flags=(False, False), m=3)
    run_training(plain, train_s, stats, TrainConfig(epochs=1))  # no MoE layer routes


def test_train_rejects_expert_group_mismatch_before_the_first_step(dataset):
    train_s, _, stats = dataset
    model = build_model(ModelConfig(moe_flags=(False, True, False, False), m=3), 0)
    before = model.params.data.copy()
    with pytest.raises(ValueError, match="m=3 experts per MoE layer, but the data has 2 groups"):
        train(model, train_s, stats, TrainConfig(epochs=1))
    assert model.params.data.tobytes() == before.tobytes()


def test_train_rejects_an_empty_dataset(dataset):
    train_s, _, stats = dataset
    model = build_model(ModelConfig(blocks=SMALL_BLOCKS, moe_flags=(False, True)), seed=0)
    with pytest.raises(ValueError, match="the dataset has no samples"):
        train(model, train_s[:0], stats, TrainConfig(epochs=1))


def test_evaluate_rejects_an_empty_dataset(dataset):
    _, test_s, stats = dataset
    model = build_model(ModelConfig(blocks=SMALL_BLOCKS, moe_flags=(False, True)), seed=0)
    with pytest.raises(ValueError, match="the dataset has no samples"):
        evaluate(model, test_s[:0], stats)


def test_route_report_uses_config_split(tmp_path, monkeypatch, capsys):
    config = {
        "synth": {"n_samples": 200, "seed": 0},
        "model": {"blocks": list(SMALL_BLOCKS), "moe_flags": [False, True]},
        "train": {"epochs": 1, "seed": 0},
        "split_seed": 1,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    data_dir, run_dir = tmp_path / "data", tmp_path / "run"
    cli_main(["synth-data", "--config", str(cfg_path), "--out", str(data_dir)])

    seen = {}
    real_run_training, real_report = cli.run_training, cli.router_depth_report

    def spy_run_training(model_cfg, train_samples, *args, **kwargs):
        seen["train"] = train_samples
        return real_run_training(model_cfg, train_samples, *args, **kwargs)

    def spy_report(model, test_samples, train_samples, *args, **kwargs):
        seen["report"] = (train_samples, test_samples)
        return real_report(model, test_samples, train_samples, *args, **kwargs)

    monkeypatch.setattr(cli, "run_training", spy_run_training)
    monkeypatch.setattr(cli, "router_depth_report", spy_report)
    cli_main(["train", "--config", str(cfg_path), "--data", str(data_dir), "--out", str(run_dir)])

    def key(s):
        return s.image.tobytes(), s.label, s.group

    ckpt = str(run_dir / "checkpoint.fmck")
    all_keys = {key(s) for s in load(data_dir)}
    trained = {key(s) for s in seen["train"]}
    for extra, same_split in ((["--config", str(cfg_path)], True), ([], False)):
        cli_main(["route-report", "--checkpoint", ckpt, "--data", str(data_dir),
                  "--out", str(tmp_path / "route.csv"), *extra])
        report_train, report_test = ({key(s) for s in part} for part in seen["report"])
        assert (report_test == all_keys - trained) is same_split
        assert (report_train == trained) is same_split
    capsys.readouterr()


def test_out_of_range_label_names_sample_and_class_count(tmp_path, capsys):
    samples, stats = generate(SynthConfig(n_samples=40, seed=3))
    data_dir = tmp_path / "data"
    save(samples, data_dir)
    cfg = ModelConfig(blocks=SMALL_BLOCKS, moe_flags=(False, True))
    run_training(cfg, samples, stats, TrainConfig(epochs=1), out_dir=tmp_path / "run")
    ckpt = str(tmp_path / "run" / "checkpoint.fmck")

    raw = bytearray((data_dir / "data.fmds").read_bytes())
    label_at = 22 + 5 * (12 + 8 * 16 * 16) + 8  # sample 5's label field
    raw[label_at : label_at + 2] = (9).to_bytes(2, "little")
    (data_dir / "data.fmds").write_bytes(bytes(raw))
    message = r"sample at position 5 has label 9, not in \[0, 4\)"
    assert re.search(message, cli_error(["eval", "--checkpoint", ckpt, "--data", str(data_dir),
                                         "--out", str(tmp_path / "eval")], capsys))
    with pytest.raises(ValueError, match=message):
        run_training(cfg, load(data_dir), stats, TrainConfig(epochs=1))
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_cli_label_check_names_the_file_index(tmp_path, command, capsys):
    samples, _ = generate(SynthConfig(n_samples=40, seed=3))
    data_dir = tmp_path / "data"
    save(samples, data_dir)
    raw = bytearray((data_dir / "data.fmds").read_bytes())
    label_at = 22 + 39 * (12 + 8 * 16 * 16) + 8  # sample 39's label field
    raw[label_at : label_at + 2] = (9).to_bytes(2, "little")
    (data_dir / "data.fmds").write_bytes(bytes(raw))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "model": {"blocks": list(SMALL_BLOCKS), "moe_flags": [False, True]},
        "train": {"epochs": 1},
    }))
    err = cli_error([command, "--config", str(cfg_path), "--data", str(data_dir),
                     "--out", str(tmp_path / "out")], capsys)
    assert re.search(r"sample at position 39 has label 9, not in \[0, 4\)", err)
    assert not (tmp_path / "out").exists()
