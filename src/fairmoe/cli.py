"""Command-line surface: synth-data, train, eval, ablate, route-report.

One JSON config document drives generation and training; its keys mirror
the SynthConfig / ModelConfig / TrainConfig field names under the
"synth", "model", and "train" sections, and a key that names no field is
rejected, as is a top-level key outside ``CONFIG_KEYS``.  An input error
(``ValueError`` or ``OSError``) ends the command with one ``fairmoe: error:``
line on stderr and exit code 2, as a bad flag does.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import fields
from pathlib import Path

from . import data as data_mod
from .data import SynthConfig
from .model import ModelConfig, check_int, load_checkpoint
from .moe import GroupStats
from .training import (
    TrainConfig,
    ablate_moe_layers,
    check_labels,
    evaluate,
    router_depth_report,
    run_training,
    write_dict_csv,
    write_routing_csv,
)


CONFIG_KEYS = ("synth", "model", "train", "train_fraction", "split_seed", "ablation_seeds")


def _reject_unknown(keys, known, where):
    for key in keys:
        if key not in known:
            raise ValueError(f"{where} has unknown key {key!r}; expected one of {known}")


def _read_config(path):
    with open(path) as f:
        doc = json.load(f)
    _reject_unknown(doc, CONFIG_KEYS, "config")
    frac = doc.get("train_fraction", 0.8)
    if isinstance(frac, bool) or not isinstance(frac, (int, float)):
        raise ValueError(f"config train_fraction must be a number, got {frac!r}")
    check_int("config split_seed", doc.get("split_seed", 0), low=0)
    if not isinstance(doc.get("ablation_seeds", []), list):
        raise ValueError(f"config ablation_seeds must be a list, got {doc['ablation_seeds']!r}")
    return doc


def _section(doc, name, cls):
    """The ``cls`` config from the document's ``name`` section; unset fields keep defaults."""
    values = doc.get(name, {})
    _reject_unknown(values, [f.name for f in fields(cls)], f"config section {name!r}")
    return cls(**values)


def _load_dataset(data_dir, n_classes):
    """The file's ``Dataset`` and group stats; labels are checked, by file index, before a split."""
    samples = data_mod.load(data_dir)
    check_labels(samples.labels, n_classes)
    stats = GroupStats.from_labels(samples.groups, m=data_mod.N_GROUPS)
    return samples, stats


def _split_from_config(samples, doc):
    frac = doc.get("train_fraction", 0.8)
    seed = doc.get("split_seed", 0)
    return data_mod.split(samples, frac, seed)


def cmd_synth_data(args):
    doc = _read_config(args.config)
    config = _section(doc, "synth", SynthConfig)
    samples, stats = data_mod.generate(config)
    data_mod.save(samples, args.out)
    print(f"wrote {len(samples)} samples to {args.out} (group sizes {stats.sizes.astype(int).tolist()})")


def cmd_train(args):
    doc = _read_config(args.config)
    model_cfg, train_cfg = _section(doc, "model", ModelConfig), _section(doc, "train", TrainConfig)
    samples, stats = _load_dataset(args.data, model_cfg.n_classes)
    train_samples, _ = _split_from_config(samples, doc)
    model, log_rows = run_training(model_cfg, train_samples, stats, train_cfg, out_dir=args.out)
    last = log_rows[-1]
    print(f"trained {last['step']} steps; final train acc {last['train_acc']:.3f}")
    print(f"checkpoint: {Path(args.out) / 'checkpoint.fmck'}")


def cmd_eval(args):
    model, stats, _, _, _ = load_checkpoint(args.checkpoint)
    samples, _ = _load_dataset(args.data, model.config.n_classes)
    baseline_report = None
    baseline_name = None
    if args.baseline:
        base_model, base_stats, _, _, _ = load_checkpoint(args.baseline)
        _, baseline_report, _ = evaluate(base_model, samples, base_stats, mode=args.mode)
        baseline_name = str(args.baseline)
    log, report, batches = evaluate(
        model, samples, stats, mode=args.mode,
        baseline_report=baseline_report, baseline_name=baseline_name,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report.to_json())
    log.write_csv(out_dir / "predictions.csv")
    if batches:
        write_routing_csv(batches, out_dir / "routing.csv")
    print(report.to_json())


def cmd_ablate(args):
    doc = _read_config(args.config)
    model_cfg, train_cfg = _section(doc, "model", ModelConfig), _section(doc, "train", TrainConfig)
    seeds = doc.get("ablation_seeds", [train_cfg.seed])
    samples, stats = _load_dataset(args.data, model_cfg.n_classes)
    train_samples, test_samples = _split_from_config(samples, doc)
    table = ablate_moe_layers(model_cfg, train_samples, test_samples, stats, train_cfg, seeds=seeds)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "ablation.csv"
    write_dict_csv(table, path)
    for row in table:
        print(row)
    print(f"wrote {path}")


def cmd_route_report(args):
    model, stats, _, _, _ = load_checkpoint(args.checkpoint)
    samples, _ = _load_dataset(args.data, model.config.n_classes)
    doc = _read_config(args.config) if args.config else {}
    train_samples, test_samples = _split_from_config(samples, doc)
    rows = router_depth_report(
        model, test_samples, train_samples, stats, score_kind=args.score_kind
    )
    write_dict_csv(rows, args.out)
    for row in rows:
        print(row)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="fairmoe")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="generate a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth_data)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--baseline", default=None)
    p.add_argument("--mode", choices=["argmax", "sample"], default="argmax")
    p.add_argument("--out", default="eval_out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="sweep the number of MoE layers")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("route-report", help="per-layer own-expert router scores")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--score-kind", choices=["softmax", "balanced"], default="softmax")
    p.add_argument("--config", default=None, help="JSON config whose split to use")
    p.set_defaults(fn=cmd_route_report)

    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except (ValueError, OSError) as exc:  # bad input: one line and argparse's exit code
        parser.exit(2, f"fairmoe: error: {exc}\n")


if __name__ == "__main__":
    main()
