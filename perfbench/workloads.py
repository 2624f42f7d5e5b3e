"""The fairmoe benchmark's workloads: set-up, timed phase and checks.

Each workload runs in one process as a closed loop with one caller.  All
inputs come from the workload seed: the synthetic data (``SynthConfig``
seed), the 80/20 split and the model and training seeds.  The program only
sees the generated samples and configs.
"""

from __future__ import annotations

import contextlib
import io
import math
import resource
import statistics
from time import perf_counter

import numpy as np

from fairmoe import cli, data, model as model_mod, training
from fairmoe.data import SynthConfig
from fairmoe.fairness import PredictionLog, confusion
from fairmoe.model import ModelConfig
from fairmoe.objectives import LossConfig, estimate_joint, mutual_information
from fairmoe.tensor import Tensor
from fairmoe.training import TrainConfig

import checks
from spans import Patcher, StepClock, Tracer, median_of

TRAIN_FRACTION = 0.8
BATCH = 64
MI_WEIGHT = 0.01
N_LAYERS = 4
EVAL_SETUP_EPOCHS = 2  # enough for the router to leave uniform scores
MIN_TRAIN_EPOCHS = 4  # 100 steps of 64: ten steps beyond p90
MIN_EVAL_CALLS = 3
GRAD_BATCH = 16
GRAD_COORDS = 2  # sampled coordinates per parameter tensor
MAX_GRAD_DRAWS = 20  # draws per tensor to find coordinates off a ReLU kink
SINGLE_SAMPLE_CHECKS = 16

PER_LAYER = (
    # metric, span, field (0 inclusive s, 2 calls, 3 count), unit, root
    ("tensor.conv2d_ms", "tensor.conv2d", 0, "ms", "op"),
    ("tensor.conv2d_calls", "tensor.conv2d", 2, "count", "op"),
    ("tensor.dense_ms", "tensor.dense", 0, "ms", "op"),
    ("tensor.backward_ms", "tensor.backward", 0, "ms", "op"),
    ("moe.moe_forward_ms", "moe.moe_forward", 0, "ms", "op"),
    ("moe.route_scores_ms", "moe.route_scores", 0, "ms", "op"),
    ("moe.selection_probabilities_ms", "moe.selection_probabilities", 0, "ms", "op"),
    ("moe.select_expert_ms", "moe.select_expert", 0, "ms", "op"),
    ("moe.select_expert_calls", "moe.select_expert", 2, "count", "op"),
    ("moe.routing_records", "moe.moe_forward", 3, "count", "op"),
    ("objectives.estimate_joint_ms", "objectives.estimate_joint", 0, "ms", "op"),
    ("objectives.total_loss_ms", "objectives.total_loss", 0, "ms", "op"),
    ("model.forward_ms", "model.forward", 0, "ms", "op"),
    ("model.save_checkpoint_ms", "model.save_checkpoint", 0, "ms", "setup"),
    ("model.load_checkpoint_ms", "model.load_checkpoint", 0, "ms", "op"),
    ("model.fmck_bytes", "model.load_checkpoint", 3, "bytes", "op"),
    ("training.adam_step_ms", "training.adam_step", 0, "ms", "op"),
    ("training.evaluate_ms", "training.evaluate", 0, "ms", "op"),
    ("training.write_routing_csv_ms", "training.write_routing_csv", 0, "ms", "op"),
    ("training.routing_csv_bytes", "training.write_routing_csv", 3, "bytes", "op"),
    ("fairness.build_report_ms", "fairness.build_report", 0, "ms", "op"),
    ("fairness.write_predictions_ms", "fairness.write_predictions", 0, "ms", "op"),
    ("data.generate_ms", "data.generate", 0, "ms", "setup"),
    ("data.save_ms", "data.save", 0, "ms", "setup"),
    ("data.load_ms", "data.load", 0, "ms", "op"),
    ("data.fmds_bytes", "data.load", 3, "bytes", "op"),
)


class Run:
    """What one workload run measured and which checks failed."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.setup_seconds = []
        self.op_seconds = []
        self.round_rates = []  # samples/s of each epoch or eval call
        self.attempted = 0
        self.failed = 0
        self.failures = []

    @contextlib.contextmanager
    def root(self, name):
        """A top-level span of the traced run: one set-up, step or eval call."""
        if self.tracer is None:
            yield
            return
        self.tracer.open(name)
        try:
            yield
        finally:
            self.tracer.close()

    def check(self, name, fn, *args):
        try:
            return fn(*args)
        except checks.CheckFailed as exc:
            self.failures.append(f"{name}: {exc}")
        return None


def _train_config(seed, epochs):
    return TrainConfig(
        epochs=epochs, batch_size=BATCH, mi_weight=MI_WEIGHT, seed=seed, routing_mode="sample"
    )


def _group_sizes(samples):
    return np.bincount([s.group for s in samples], minlength=2)


# ---- train_plain / train_moe ---------------------------------------------


class TrainWorkload:
    op_root = "step"
    setup_reps = (3, 4)  # before and after the timed phase

    def __init__(self, moe):
        self.moe = moe
        self.model_config = ModelConfig(moe_flags=(moe,) * N_LAYERS)

    def setup(self, seed, workdir):
        samples, stats = data.generate(SynthConfig(seed=seed))
        train_s, test_s = data.split(samples, TRAIN_FRACTION, seed)
        net = model_mod.build_model(self.model_config, seed=seed)
        return {"samples": samples, "stats": stats, "train": train_s, "test": test_s, "model": net}

    def timed(self, state, seed, seconds, run, patcher):
        clock = StepClock()
        clock.install(patcher)
        train_s, stats = state["train"], state["stats"]
        steps_per_epoch = math.ceil(len(train_s) / BATCH)

        # a warm-up run of one epoch sizes the timed call to ~seconds; started
        # from the same seed, its losses must equal the timed run's first epoch
        clock.active = True
        training.train(model_mod.build_model(self.model_config, seed=seed), train_s, stats,
                       _train_config(seed, 1))
        step_s = statistics.median(clock.step_seconds)
        state["warm_losses"] = [p["total"] for p in clock.parts]
        clock.step_seconds, clock.parts = [], []
        epochs = max(MIN_TRAIN_EPOCHS, math.ceil(seconds / (step_s * steps_per_epoch)))
        clock.tracer = run.tracer

        run.attempted = epochs * steps_per_epoch
        try:
            state["log"], _ = training.train(
                state["model"], train_s, stats, _train_config(seed, epochs)
            )
        except Exception as exc:  # a failed step ends the call; its remaining steps fail too
            run.failures.append(f"training.train raised {exc!r}")
            clock.drop_open_step()
            state["log"] = None
        clock.active = False
        run.op_seconds = list(clock.step_seconds)
        run.failed = run.attempted - len(run.op_seconds)
        run.round_rates = [
            len(train_s) / sum(run.op_seconds[i : i + steps_per_epoch])
            for i in range(0, len(run.op_seconds) - steps_per_epoch + 1, steps_per_epoch)
        ]
        state["clock"] = clock
        state["last_step"] = (clock.last_probs, clock.last_groups)

    def check(self, state, seed, run):
        clock, stats = state["clock"], state["stats"]
        if state["log"] is None:
            return
        net, train_s, test_s = state["model"], state["train"], state["test"]
        run.check("finite loss", checks.check_finite_losses,
                  [p["total"] for p in clock.parts], run.attempted)
        run.check("CE falls", checks.check_ce_falls, [row["ce"] for row in state["log"]])

        log, _, _ = training.evaluate(net, test_s, stats)
        run.check("held-out accuracy", checks.check_accuracy,
                  [s.label for s in test_s], log.predicted_classes)

        warm = state["warm_losses"]
        run.check("determinism", checks.check_identical, warm,
                  [p["total"] for p in clock.parts[: len(warm)]], "first-epoch per-step loss")

        run.check("gradients", checks.check_gradients,
                  _gradient_samples(net, train_s[:GRAD_BATCH], stats, seed), net.params.paths())

        if self.moe:
            _check_mi(run, state, clock.parts, stats, seed, self.model_config)


def _gradient_samples(net, batch, stats, seed):
    """(path, index, backward, central difference) for sampled coordinates.

    Routing is held fixed: experts are chosen by the true group (``group``
    routing), so a perturbation cannot change which expert runs.  The loss
    is only piecewise smooth, so a coordinate whose +/- step flips a ReLU
    (the sign pattern of every relu input differs) sits on a kink, where a
    central difference is no derivative; it is replaced by the next draw.
    """
    images, labels, groups, _ = data.stack(batch)
    loss_cfg = LossConfig(mi_weight=MI_WEIGHT, moe_layer_indices=net.moe_layer_indices)
    signs = []

    def record_signs(relu):
        def recorded(t):
            signs.append(np.packbits(t.data > 0).tobytes())
            return relu(t)

        return recorded

    def loss():
        signs.clear()
        logits, _, probs = net.forward(Tensor(images), stats, mode="group", groups=groups)
        joints = {k: estimate_joint(p, groups, stats) for k, p in probs.items()}
        return training.total_loss(logits, labels, joints, loss_cfg)[0]

    def loss_at(t, index, value):
        t.data[index] = value
        out = float(loss().data)
        return out, b"".join(signs)

    net.params.zero_grad()
    loss().backward()
    rng = np.random.default_rng(seed)
    out, step = [], 1e-5
    with Patcher() as patcher:
        patcher.method(Tensor, "relu", record_signs)
        for path, t in net.params.items():
            kept = 0
            for flat in rng.permutation(t.data.size)[:MAX_GRAD_DRAWS]:
                index = np.unravel_index(flat, t.data.shape)
                orig = t.data[index]
                hi, signs_hi = loss_at(t, index, orig + step)
                lo, signs_lo = loss_at(t, index, orig - step)
                t.data[index] = orig
                if signs_hi != signs_lo:
                    continue
                out.append((path, index, float(t.grad[index]), (hi - lo) / (2 * step)))
                kept += 1
                if kept == GRAD_COORDS:
                    break
    return out


def _check_mi(run, state, timed_parts, stats, seed, model_config):
    """Deepest-layer I(C;E): NumPy vs the program, above 0 after training, 0 at init."""
    sizes = _group_sizes(state["samples"])
    deepest = N_LAYERS - 1
    probs_by_layer, groups = state["last_step"]
    probs = probs_by_layer[deepest]
    mi_np = checks.numpy_mi(probs, groups, sizes)
    mi_prog = float(mutual_information(estimate_joint(probs, groups, stats)).data)
    run.check("MI agrees", checks.check_mi, mi_np, mi_prog,
              timed_parts[-1][f"mi_layer{deepest}"], "last step")
    run.check("MI above 0", checks.check_mi_positive, mi_np, "last step")

    fresh = model_mod.build_model(model_config, seed=seed)
    images, _, groups0, _ = data.stack(state["train"][:BATCH])
    _, _, probs0 = fresh.forward(Tensor(images), stats, mode="sample",
                                 rng=np.random.default_rng(seed), groups=groups0)
    p0 = probs0[deepest].data
    run.check("MI zero at init", checks.check_mi_zero,
              checks.numpy_mi(p0, groups0, sizes), "init (NumPy)")
    run.check("MI zero at init", checks.check_mi_zero,
              float(mutual_information(estimate_joint(p0, groups0, stats)).data),
              "init (objectives)")


# ---- eval_moe ------------------------------------------------------------


class EvalWorkload:
    op_root = "eval_call"
    setup_reps = (1, 2)  # before and after the timed phase

    def setup(self, seed, workdir):
        samples, stats = data.generate(SynthConfig(seed=seed))
        data.save(samples, workdir / "data")
        train_s, _ = data.split(samples, TRAIN_FRACTION, seed)
        trained = {}
        for name, flags in (("moe", (True,) * N_LAYERS), ("plain", (False,) * N_LAYERS)):
            net, _ = training.run_training(
                ModelConfig(moe_flags=flags), train_s, stats,
                _train_config(seed, EVAL_SETUP_EPOCHS), out_dir=workdir / name,
            )
            trained[name] = net
        return {"samples": samples, "stats": stats, "workdir": workdir, "trained": trained,
                "ckpt_bytes": (workdir / "moe" / "checkpoint.fmck").read_bytes()}

    @staticmethod
    def argv(workdir, checkpoint, out, baseline=None):
        argv = ["eval", "--checkpoint", str(workdir / checkpoint / "checkpoint.fmck"),
                "--data", str(workdir / "data"), "--out", str(workdir / out)]
        if baseline:
            argv += ["--baseline", str(workdir / baseline / "checkpoint.fmck")]
        return argv

    def timed(self, state, seed, seconds, run, patcher):
        argv = self.argv(state["workdir"], "moe", "eval", baseline="plain")
        n = len(state["samples"])
        t_begin = perf_counter()
        while perf_counter() - t_begin < seconds or run.attempted < MIN_EVAL_CALLS:
            run.attempted += 1
            out = io.StringIO()
            t0 = perf_counter()
            try:
                with run.root(self.op_root), contextlib.redirect_stdout(out):
                    cli.main(argv)
            except Exception as exc:
                run.failed += 1
                run.failures.append(f"fairmoe eval raised {exc!r}")
                continue
            run.op_seconds.append(perf_counter() - t0)
            run.round_rates.append(n / run.op_seconds[-1])
            state["stdout"] = out.getvalue()

    def check(self, state, seed, run):
        if "stdout" not in state:
            return
        wd, samples, stats = state["workdir"], state["samples"], state["stats"]
        _, labels, groups, _ = data.stack(samples)
        report = run.check("stdout report", checks.check_stdout_report, state["stdout"],
                           wd / "eval" / "report.json")
        preds = checks.read_predictions(wd / "eval" / "predictions.csv")
        run.check("predictions match data", checks.check_predictions_match_data,
                  preds, labels, groups)

        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(self.argv(wd, "plain", "eval_baseline"))
        base_preds = checks.read_predictions(wd / "eval_baseline" / "predictions.csv")
        if report is not None:
            got = run.check("report recomputed", checks.check_report, report, preds, base_preds,
                            4, str(wd / "plain" / "checkpoint.fmck"))
            if got is not None:
                conf = confusion(PredictionLog.read_csv(wd / "eval" / "predictions.csv"), 4, 2)
                run.check("confusion counts", checks.check_identical,
                          [got["counts"][k].tolist() for k in ("tp", "fp", "tn", "fn")],
                          [getattr(conf, k).tolist() for k in ("tp", "fp", "tn", "fn")],
                          "confusion counts")

        routing = checks.read_routing(wd / "eval" / "routing.csv")
        run.check("routing rows", checks.check_routing, routing, _group_sizes(samples),
                  len(samples), list(range(N_LAYERS)))

        loaded, loaded_stats, _, _, _ = model_mod.load_checkpoint(wd / "moe" / "checkpoint.fmck")
        run.check("checkpoint round trip", checks.check_params_equal,
                  {p: t.data for p, t in state["trained"]["moe"].params.items()},
                  {p: t.data for p, t in loaded.params.items()})
        run.check("set-up determinism", checks.check_identical, state["setup_ckpts"],
                  [state["ckpt_bytes"]] * len(state["setup_ckpts"]), "checkpoint bytes per set-up")

        rng = np.random.default_rng(seed)
        single = {}
        for i in rng.choice(len(samples), size=SINGLE_SAMPLE_CHECKS, replace=False).tolist():
            logits, _, _ = loaded.forward(Tensor(samples[i].image[None]), loaded_stats,
                                          mode="argmax")
            single[i] = int(np.argmax(logits.data[0]))
        run.check("single-sample predictions", checks.check_single_sample_predictions,
                  preds["pred"], single)


WORKLOADS = {
    "train_plain": lambda: TrainWorkload(moe=False),
    "train_moe": lambda: TrainWorkload(moe=True),
    "eval_moe": EvalWorkload,
}


def run(name, seed, seconds, trace, workdir):
    """Set up, time and check one workload; returns (result dict, run)."""
    workload = WORKLOADS[name]()
    tracer = Tracer() if trace else None
    result = Run(tracer)
    result.op_root = workload.op_root
    workdir.mkdir(parents=True, exist_ok=True)
    with Patcher() as patcher:
        if tracer:
            tracer.install(patcher)

        def set_up(i):
            t0 = perf_counter()
            with result.root("setup"):
                out = workload.setup(seed, workdir / f"setup{i}")
            result.setup_seconds.append(perf_counter() - t0)
            return out

        # set-up is timed on both sides of the timed phase, so that its
        # median sees the same machine as the rest of the run
        before, after = workload.setup_reps
        state = set_up(0)
        ckpts = [state.get("ckpt_bytes")]
        ckpts += [set_up(i).get("ckpt_bytes") for i in range(1, before)]
        workload.timed(state, seed, seconds, result, patcher)
        ckpts += [set_up(i).get("ckpt_bytes") for i in range(before, before + after)]
        state["setup_ckpts"] = ckpts
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        workload.check(state, seed, result)

    if tracer:
        metrics = _per_layer_metrics(tracer, workload.op_root)
    else:
        ops_ms = [s * 1e3 for s in result.op_seconds]
        metrics = {
            "setup_s": (statistics.median(result.setup_seconds), "s"),
            "samples_per_s": (statistics.median(result.round_rates), "samples/s"),
            "op_ms_p50": (float(np.percentile(ops_ms, 50)), "ms"),
            "op_ms_p90": (float(np.percentile(ops_ms, 90)), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {
        "correct": not result.failures,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, result


def _per_layer_metrics(tracer, op_root):
    rows = {"op": tracer.per_root(op_root), "setup": tracer.per_root("setup")}
    metrics = {}
    for metric, span, field, unit, root in PER_LAYER:
        value = median_of(rows[root], span, field)
        metrics[metric] = (value * 1e3 if unit == "ms" else value, unit)
    return metrics


def trace_summary(tracer, op_root):
    """Median inclusive and self ms per span name, per step/eval call and per set-up."""
    out = {}
    for root in (op_root, "setup"):
        rows = tracer.per_root(root)
        names = sorted({n for row in rows for n in row})
        out[root] = {
            "roots": len(rows),
            "root_ms_p50": statistics.median(tracer.root_durations(root)) * 1e3,
            "spans": {
                n: {"incl_ms": median_of(rows, n, 0) * 1e3, "self_ms": median_of(rows, n, 1) * 1e3,
                    "calls": median_of(rows, n, 2)}
                for n in names
            },
        }
    return out

