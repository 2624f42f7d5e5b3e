import csv
import functools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmoe import cli
from fairmoe.cli import main as cli_main
from fairmoe.data import SynthConfig, generate, split
from fairmoe.moe import GroupStats
from fairmoe.model import (
    CheckpointFormatError,
    ModelConfig,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from fairmoe.training import (
    TrainConfig,
    TrainingDiverged,
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
    all_keys = {key(s) for s in cli._load_dataset(data_dir)[0]}
    trained = {key(s) for s in seen["train"]}
    for extra, same_split in ((["--config", str(cfg_path)], True), ([], False)):
        cli_main(["route-report", "--checkpoint", ckpt, "--data", str(data_dir),
                  "--out", str(tmp_path / "route.csv"), *extra])
        report_train, report_test = ({key(s) for s in part} for part in seen["report"])
        assert (report_test == all_keys - trained) is same_split
        assert (report_train == trained) is same_split
    capsys.readouterr()
