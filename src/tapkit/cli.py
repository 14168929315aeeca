"""Command-line surface for the whole pipeline.

Subcommands: synth, train, parse, eval, baseline (kmeans | tcn), stats,
ablate, compare-sampling, patterns.  ``synth``, ``train``, ``baseline`` and
``ablate`` draw random numbers from ``--seed``; ``parse``, ``patterns`` and
``compare-sampling`` accept it and ignore it; ``eval`` and ``stats`` take
none.
Every command is deterministic: for a fixed seed its written files and its
stdout are byte-identical across runs.
Stdout carries only results (counts, losses, scores, tables) and never echoes
a path the caller passed in; errors go to stderr.  Exit codes: 0 success,
2 usage, 3 missing file / IO, 4 data or configuration problem, 5 numeric
failure.
Each call builds the argparse tree for its own command: every command keeps
its parser and help line, but only the invoked one gets its arguments.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import CHECKPOINT_FORMAT_VERSION, FEATURE_FORMAT_VERSION, __version__
from . import data as data_mod
from .baselines import TCNTrainConfig, kmeans_parse, tcn_parse, tcn_train
from .errors import InputError, NumericError, ParseError, TapkitError
from .experiments import run_ablation, sampling_classifier
from .losses import LossConfig, train
from .metrics import ABS_THRESHOLDS, REL_THRESHOLDS, sweep
from .model import ModelConfig, TransParserModel, forward, retrieve_top_frames
from .parsing import extract_boundaries

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DATA = 4
EXIT_NUMERIC = 5


def _load_split(args, split):
    directory = data_mod.resolve_data_dir(args.data)
    pairs = data_mod.load_dataset(directory, split=split)
    if not pairs:
        raise InputError(f"no instances in split {split!r} under {directory}")
    return pairs


def _label_vocabulary(records):
    return sorted({r.label for r in records})


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except (ValueError, RecursionError) as exc:  # bad UTF-8 is a ValueError
                raise ParseError(f"{args.config}: malformed JSON: {exc}") from exc
    else:
        payload = {}
    if args.seed is not None and isinstance(payload, dict):
        payload["seed"] = args.seed
    cfg = data_mod.SynthConfig.from_dict(payload)
    features, records, prototypes = data_mod.generate_synthetic(cfg)
    out = Path(args.out)
    data_mod.write_dataset(out, features, records)
    data_mod.save_features(prototypes, out / "prototypes.fseq")
    print(f"wrote {len(records)} instances")
    return EXIT_OK


def _model_config_from_args(args, feature_dim, num_classes) -> ModelConfig:
    return ModelConfig(feature_dim=feature_dim,
                       pattern_dim=args.pattern_dim,
                       num_patterns=args.patterns,
                       attn_dim=args.attn_dim,
                       value_dim=args.value_dim,
                       hidden_dim=args.hidden_dim,
                       num_classes=num_classes,
                       num_units=args.sps_units)


def _loss_config_from_args(args) -> LossConfig:
    return LossConfig(lambda_reg=args.lambda_reg,
                      w_local=0.0 if args.no_local_loss else 1.0,
                      learning_rate=args.lr,
                      momentum=args.momentum,
                      grad_clip=args.grad_clip,
                      epochs=args.epochs,
                      batch_size=args.batch_size,
                      seed=args.seed)


def cmd_train(args) -> int:
    pairs = _load_split(args, "train")
    labels = _label_vocabulary([r for r, _ in pairs])
    dataset = [(feats, record.boundaries, labels.index(record.label))
               for record, feats in pairs]
    feature_dim = dataset[0][0].shape[1]
    model_cfg = _model_config_from_args(args, feature_dim, len(labels))
    loss_cfg = _loss_config_from_args(args)
    model = TransParserModel.initialize(model_cfg, seed=args.seed, labels=labels)
    log_path = args.log if args.log else str(args.model_out) + ".log.jsonl"
    _, history = train(dataset, model, loss_cfg, log_path=log_path)
    model.save(args.model_out)
    last = history[-1]["total"] if history else float("nan")
    print(f"trained on {len(dataset)} instances for {loss_cfg.epochs} epochs "
          f"(final loss {last:.4f})")
    return EXIT_OK


def cmd_parse(args) -> int:
    pairs = _load_split(args, args.split if args.split != "all" else None)
    model = TransParserModel.load(args.model)
    predictions = [(record.instance_id,
                    extract_boundaries(forward(feats, model).response, args.smooth_window))
                   for record, feats in pairs]
    data_mod.save_predictions(predictions, args.out)
    print(f"parsed {len(predictions)} instances")
    return EXIT_OK


def cmd_eval(args) -> int:
    directory = data_mod.resolve_data_dir(args.gt)
    records = data_mod.load_annotations(Path(directory) / "annotations.jsonl")
    preds = data_mod.load_predictions(args.pred, records)
    by_id = {r.instance_id: r for r in records}
    dataset = [(starts, by_id[instance_id].boundaries, by_id[instance_id].length)
               for instance_id, starts in preds.items()]
    report = sweep(dataset, mode=args.mode,
                   averaging="macro" if args.macro else "micro",
                   rel_thresholds=args.rel_thresholds, abs_thresholds=args.abs_thresholds)
    for row in report.rows:
        print(f"[{row.kind} d={row.d_text}] recall={row.recall:.4f} "
              f"precision={row.precision:.4f} f1={row.f1:.4f}")
    for line in report.summary_lines():
        print(line)
    print(f"(matching mode: {report.mode}, averaging: {report.averaging}, "
          f"{len(dataset)} instances)")
    if args.out:
        report.write_csv(args.out)
    return EXIT_OK


def cmd_baseline_kmeans(args) -> int:
    pairs = _load_split(args, args.split if args.split != "all" else None)
    predictions = [(record.instance_id, kmeans_parse(feats, args.k, args.seed))
                   for record, feats in pairs]
    data_mod.save_predictions(predictions, args.out)
    print(f"kmeans (k={args.k}) parsed {len(predictions)} instances")
    return EXIT_OK


def cmd_baseline_tcn(args) -> int:
    train_pairs = _load_split(args, "train")
    cfg = TCNTrainConfig(kernel_size=args.kernel_size,
                         hidden_channels=args.hidden_channels,
                         neighbor_radius=args.neighbor_radius,
                         pos_weight=args.pos_weight,
                         threshold=args.threshold,
                         learning_rate=args.lr,
                         momentum=args.momentum,
                         epochs=args.epochs,
                         seed=args.seed)
    model = tcn_train([(feats, record.boundaries) for record, feats in train_pairs],
                      cfg)
    eval_pairs = _load_split(args, args.split if args.split != "all" else None)
    predictions = [(record.instance_id,
                    tcn_parse(feats, model, cfg.threshold, args.nms_radius))
                   for record, feats in eval_pairs]
    data_mod.save_predictions(predictions, args.out)
    print(f"tcn parsed {len(predictions)} instances")
    return EXIT_OK


def cmd_stats(args) -> int:
    directory = data_mod.resolve_data_dir(args.data)
    records = data_mod.load_annotations(Path(directory) / "annotations.jsonl")
    if not records:
        raise InputError(f"no annotation records under {directory}")
    print(data_mod.compute_dataset_stats(records).as_text())
    return EXIT_OK


def cmd_ablate(args) -> int:
    train_pairs = _load_split(args, "train")
    eval_pairs = _load_split(args, "test")
    labels = _label_vocabulary([r for r, _ in train_pairs])
    train_data = [(feats, record.boundaries, labels.index(record.label))
                  for record, feats in train_pairs]
    eval_data = [(feats, record.boundaries, record.length)
                 for record, feats in eval_pairs]
    feature_dim = train_data[0][0].shape[1]
    model_cfg = _model_config_from_args(args, feature_dim, len(labels))
    loss_cfg = LossConfig(lambda_reg=args.lambda_reg, learning_rate=args.lr,
                          momentum=args.momentum, grad_clip=args.grad_clip,
                          epochs=args.epochs, batch_size=args.batch_size,
                          seed=args.seed)
    rows = run_ablation(train_data, eval_data, model_cfg, loss_cfg)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sps_units", "local_loss", "avg_f1", "avg_recall",
                         "avg_precision"])
        for row in rows:
            writer.writerow([row.num_units, "yes" if row.local_loss else "no",
                             f"{row.avg_f1:.6f}", f"{row.avg_recall:.6f}",
                             f"{row.avg_precision:.6f}"])
    for row in rows:
        print(f"{row.setting:10s} avg F1 {row.avg_f1:.4f} "
              f"avg recall {row.avg_recall:.4f} avg precision {row.avg_precision:.4f}")
    return EXIT_OK


def cmd_compare_sampling(args) -> int:
    directory = data_mod.resolve_data_dir(args.data)
    pairs = data_mod.load_dataset(directory)
    records = [r for r, _ in pairs]
    features = {r.instance_id: f for r, f in pairs}
    predictions = data_mod.load_predictions(args.pred, records) if args.pred else None
    schemes = ["uniform", "aligned"] + (["predicted"] if predictions else [])
    reports = [sampling_classifier(records, features, scheme, args.segments,
                                   predictions=predictions)
               for scheme in schemes]
    for report in reports:
        print(f"{report.scheme:10s} top-1 {report.top1_accuracy:.4f} "
              f"avg-class {report.avg_class_accuracy:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["scheme", "segments", "top1_accuracy",
                             "avg_class_accuracy"])
            for report in reports:
                writer.writerow([report.scheme, report.num_segments,
                                 f"{report.top1_accuracy:.6f}",
                                 f"{report.avg_class_accuracy:.6f}"])
    return EXIT_OK


def cmd_patterns(args) -> int:
    pairs = _load_split(args, args.split if args.split != "all" else None)
    model = TransParserModel.load(args.model)
    responses = [(record.instance_id, forward(feats, model).response)
                 for record, feats in pairs]
    top = retrieve_top_frames(responses, args.pattern, args.top)
    for instance_id, frame, score in top:
        print(f"{instance_id}\tframe {frame}\tscore {score:.6f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def _threshold_list(text):
    """argparse type: a comma list of numbers; a bad entry is a usage error."""
    try:
        return tuple(float(entry) for entry in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None


def _add_data_arg(p):
    p.add_argument("--data", default=None,
                   help="dataset directory (default: $TAPKIT_DATA_DIR)")


def _add_model_dims(p):
    p.add_argument("--sps-units", type=int, default=2)
    p.add_argument("--patterns", type=int, default=32)
    p.add_argument("--pattern-dim", type=int, default=64)
    p.add_argument("--attn-dim", type=int, default=32)
    p.add_argument("--value-dim", type=int, default=32)
    p.add_argument("--hidden-dim", type=int, default=128)


def _add_optimizer(p):
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--grad-clip", type=float, default=5.0)
    p.add_argument("--batch-size", type=int, default=1)
    p.add_argument("--lambda", dest="lambda_reg", type=float, default=1.0)


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The argparse tree for one call.  Every command gets its parser and help
    line; only the one ``argv`` names (its first non-option item, and after
    ``baseline`` the next) gets its arguments, which cost more to build than
    a short command's work."""
    words = [arg for arg in argv if not arg.startswith("-")]

    def command(parent, name, help_text, func=None, level=0):
        """Add subparser ``name``; return it, for its arguments, only if invoked."""
        p = parent.add_parser(name, help=help_text)
        if words[level:level + 1] != [name]:
            return None
        if func is not None:
            p.set_defaults(func=func)
        return p

    parser = argparse.ArgumentParser(
        prog="tapkit",
        description="Temporal action parsing toolkit: train the pattern-bank "
                    "parser, run baselines, and score boundary predictions.")
    parser.add_argument(
        "--version", action="version",
        version=(f"tapkit {__version__} "
                 f"(feature format v{FEATURE_FORMAT_VERSION}, "
                 f"checkpoint format v{CHECKPOINT_FORMAT_VERSION})"))
    sub = parser.add_subparsers(dest="command", required=True)

    if p := command(sub, "synth", "generate a synthetic dataset", cmd_synth):
        p.add_argument("--config", default=None, help="JSON file of generator settings")
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)

    if p := command(sub, "train", "train the parser on the train split", cmd_train):
        _add_data_arg(p)
        p.add_argument("--model-out", required=True)
        p.add_argument("--log", default=None, help="epoch log path "
                       "(default: <model-out>.log.jsonl)")
        p.add_argument("--no-local-loss", action="store_true")
        _add_model_dims(p)
        _add_optimizer(p)
        p.add_argument("--seed", type=int, default=0)

    if p := command(sub, "parse", "predict sub-action starts with a checkpoint", cmd_parse):
        _add_data_arg(p)
        p.add_argument("--model", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--smooth-window", type=int, default=None)
        p.add_argument("--split", choices=["train", "val", "test", "all"], default="all")
        p.add_argument("--seed", type=int, default=0)

    if p := command(sub, "eval", "score a prediction file against ground truth", cmd_eval):
        p.add_argument("--pred", required=True)
        p.add_argument("--gt", default=None, help="dataset directory holding "
                       "annotations.jsonl (default: $TAPKIT_DATA_DIR)")
        p.add_argument("--mode", choices=["one-to-one", "independent"],
                       default="one-to-one")
        p.add_argument("--macro", action="store_true",
                       help="macro-average per-instance scores instead of pooling counts")
        p.add_argument("--out", default=None, help="CSV report path")
        p.add_argument("--rel-thresholds", type=_threshold_list, default=REL_THRESHOLDS,
                       help="comma list overriding the relative grid")
        p.add_argument("--abs-thresholds", type=_threshold_list, default=ABS_THRESHOLDS,
                       help="comma list overriding the absolute grid")

    if p := command(sub, "baseline", "run a parsing baseline"):
        bsub = p.add_subparsers(dest="baseline", required=True)

        if b := command(bsub, "kmeans", "cluster-transition parsing", cmd_baseline_kmeans, 1):
            _add_data_arg(b)
            b.add_argument("--k", type=int, default=4)
            b.add_argument("--out", required=True)
            b.add_argument("--split", choices=["train", "val", "test", "all"], default="all")
            b.add_argument("--seed", type=int, default=0)

        if b := command(bsub, "tcn", "temporal-convolution boundary detector",
                        cmd_baseline_tcn, level=1):
            _add_data_arg(b)
            b.add_argument("--out", required=True)
            b.add_argument("--split", choices=["train", "val", "test", "all"], default="all")
            b.add_argument("--kernel-size", type=int, default=9)
            b.add_argument("--hidden-channels", type=int, default=32)
            b.add_argument("--neighbor-radius", type=int, default=2)
            b.add_argument("--pos-weight", type=float, default=None)
            b.add_argument("--threshold", type=float, default=0.5)
            b.add_argument("--nms-radius", type=int, default=5)
            b.add_argument("--epochs", type=int, default=30)
            b.add_argument("--lr", type=float, default=0.05)
            b.add_argument("--momentum", type=float, default=0.9)
            b.add_argument("--seed", type=int, default=0)

    if p := command(sub, "stats", "dataset statistics", cmd_stats):
        _add_data_arg(p)

    if p := command(sub, "ablate", "unit-count x local-loss ablation table", cmd_ablate):
        _add_data_arg(p)
        p.add_argument("--out", required=True)
        _add_model_dims(p)
        _add_optimizer(p)
        p.add_argument("--seed", type=int, default=0)

    if p := command(sub, "compare-sampling",
                    "uniform vs aligned (vs predicted) linear-probe accuracy",
                    cmd_compare_sampling):
        _add_data_arg(p)
        p.add_argument("--pred", default=None, help="prediction JSONL for the "
                       "'predicted' scheme")
        p.add_argument("--segments", type=int, default=3)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=0)

    if p := command(sub, "patterns", "frames with the highest response for one pattern",
                    cmd_patterns):
        _add_data_arg(p)
        p.add_argument("--model", required=True)
        p.add_argument("--pattern", type=int, required=True)
        p.add_argument("--top", type=int, default=10)
        p.add_argument("--split", choices=["train", "val", "test", "all"], default="all")
        p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    """Run one ``tapkit`` command and return its exit code.  The parser is
    built for that command alone; NumPy's floating-point warnings are off,
    as every result that can go non-finite is checked and reported."""
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        with np.errstate(all="ignore"):
            return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return EXIT_IO
    except IsADirectoryError as exc:
        print(f"error: expected a file: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except TapkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
