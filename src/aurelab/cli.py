"""Command-line experiment harness.

Subcommands: gen (write a dataset file), train, eval, ablate, sweep,
inspect.  Exit codes: 0 success, 2 usage or configuration error, 3 missing,
unreadable or malformed file, 4 numeric failure during training.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import data, experiments
from .errors import (ArtifactFormatError, CheckpointError, ConfigError,
                     DatasetFormatError, DatasetValidationError,
                     IntegrityError, TrainingDivergedError)
from .relabel import AUDIT_HEADER, audit_rows
from .trainer import (TrainConfig, evaluate, load_checkpoint, restore_model,
                      save_checkpoint, train, write_metrics_csv)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FILE = 3
EXIT_NUMERIC = 4


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--high-fraction", type=float, default=None,
                   help="share of each batch treated as high confidence")
    p.add_argument("--rank-margin", type=float, default=None)
    p.add_argument("--ramp-pivot", type=int, default=None)
    p.add_argument("--warmup-epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None, dest="lr_initial")
    p.add_argument("--lr-aux", type=float, default=None)
    p.add_argument("--momentum", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--no-target", action="store_true",
                   help="disable confidence weighting and the rank hinge")
    p.add_argument("--no-aux", action="store_true",
                   help="disable the detection branch and label correction")
    p.add_argument("--random-edges", action="store_true",
                   help="replace counted co-occurrence edges with random ones")


def _train_config(args, base: TrainConfig | None = None) -> TrainConfig:
    cfg = base if base is not None else TrainConfig()
    overrides = {}
    for name in ("epochs", "batch_size", "high_fraction", "rank_margin",
                 "ramp_pivot", "warmup_epochs", "lr_initial", "lr_aux",
                 "momentum", "seed"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "no_target", False):
        overrides["use_target_branch"] = False
    if getattr(args, "no_aux", False):
        overrides["use_aux_branch"] = False
    if getattr(args, "random_edges", False):
        overrides["random_edges"] = True
    return replace(cfg, **overrides)


def cmd_gen(args) -> int:
    ds = data.generate(args.classes, args.aus, args.dim, args.size,
                       args.spread, args.noise, args.seed,
                       au_noise=args.au_noise)
    test_ds = None
    if args.test_fraction > 0:
        ds, test_ds = data.train_test_split(ds, args.test_fraction,
                                            seed=args.seed)
    if args.corruption > 0:
        ds = data.corrupt_labels(ds, args.corruption, seed=args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    data.save(ds, out)
    paths = [out]
    if test_ds is not None:
        test_path = out.with_suffix(out.suffix + ".test")
        data.save(test_ds, test_path)
        paths.append(test_path)

    corrupted = int(np.sum(ds.observed_labels != ds.true_labels))
    hist = np.bincount(ds.observed_labels, minlength=ds.n_classes)
    print(f"wrote {ds.n} samples to {out}")
    if test_ds is not None:
        print(f"wrote {test_ds.n} clean held-out samples to {paths[1]}")
    print(f"classes={ds.n_classes} units={ds.n_units} dim={ds.dim}")
    print("label histogram: " + " ".join(f"{c}:{int(h)}"
                                         for c, h in enumerate(hist)))
    print(f"corrupted labels: {corrupted} of {ds.n} "
          f"({corrupted / ds.n:.1%}, requested {args.corruption:.1%})")
    return EXIT_OK


def _write_graph_files(graph, out_dir: Path) -> None:
    for name, matrix in (("au_adjacency.csv", graph.conditional),
                         ("au_adjacency_normalized.csv", graph.normalized)):
        lines = [",".join(repr(float(v)) for v in row) for row in matrix]
        data.write_text_atomic(out_dir / name, "\n".join(lines) + "\n")


def cmd_train(args) -> int:
    ds = data.load(args.data)
    eval_ds = data.load(args.test_data) if args.test_data else None
    cfg = _train_config(args)
    resume = load_checkpoint(args.resume) if args.resume else None
    result = train(ds, cfg, eval_dataset=eval_ds, resume=resume)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(result.metrics, ds.n_classes, out_dir / "metrics.csv")
    save_checkpoint(result.checkpoint, out_dir / "checkpoint.json")
    audit = [AUDIT_HEADER] + audit_rows(result.records)
    data.write_text_atomic(out_dir / "relabel_audit.csv", "\n".join(audit) + "\n")
    _write_graph_files(result.model.graph, out_dir)

    if result.metrics:
        last = result.metrics[-1]
        where = "held-out" if eval_ds is not None else "train-vs-true"
        print(f"trained {len(result.metrics)} epochs; "
              f"final {where} accuracy {last.accuracy:.4f}")
        print(f"final stored-label noise rate {last.noise_rate:.4f}; "
              f"{sum(m.relabel_count for m in result.metrics)} corrections")
    else:
        print("no epochs trained; wrote initialization checkpoint")
    print(f"artifacts under {out_dir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    ds = data.load(args.data)
    model, _ = restore_model(load_checkpoint(args.checkpoint), ds)
    report = evaluate(model, ds)
    print(f"accuracy {report.accuracy:.4f} on {report.n} samples")
    for c, acc in enumerate(report.per_class_accuracy):
        print(f"class {c}: {acc:.4f}")
    if args.out:
        lines = ["class,accuracy"]
        lines += [f"{c},{acc!r}" for c, acc in
                  enumerate(report.per_class_accuracy)]
        lines.append("confusion")
        lines += [",".join(str(int(v)) for v in row)
                  for row in report.confusion]
        data.write_text_atomic(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _spec_from_args(args) -> experiments.ExperimentSpec:
    if args.spec:
        spec = experiments.load_spec(args.spec)
    else:
        spec = experiments.ExperimentSpec()
    overrides = {}
    if args.name:
        overrides["name"] = args.name
    if args.seeds:
        overrides["seeds"] = tuple(int(s) for s in args.seeds.split(","))
    if getattr(args, "rates", None):
        overrides["rates"] = tuple(float(r) for r in args.rates.split(","))
    if getattr(args, "rate", None) is not None:
        overrides["rate"] = args.rate
    if args.out:
        overrides["out_dir"] = args.out
    if args.epochs is not None or args.size is not None:
        tr = spec.train
        dsspec = spec.dataset
        if args.epochs is not None:
            tr = replace(tr, epochs=args.epochs)
        if args.size is not None:
            dsspec = replace(dsspec, n=args.size)
        overrides["train"] = tr
        overrides["dataset"] = dsspec
    spec = replace(spec, **overrides)
    spec.validate()
    return spec


def _add_spec_flags(p: argparse.ArgumentParser, with_rates: bool) -> None:
    p.add_argument("--spec", default=None, help="experiment spec file (INI)")
    p.add_argument("--name", default=None, help="experiment kind override")
    p.add_argument("--seeds", default=None, help="comma-separated seed list")
    if with_rates:
        p.add_argument("--rates", default=None,
                       help="comma-separated corruption rates")
    else:
        p.add_argument("--rate", type=float, default=None,
                       help="corruption rate for this experiment")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--size", type=int, default=None,
                   help="dataset size before the train/test split")


def cmd_ablate(args) -> int:
    spec = _spec_from_args(args)
    if spec.name == "single_run":
        spec = replace(spec, name="ablation")
    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if spec.name == "edges":
        rows = experiments.run_edges(spec)
        table = out_dir / "edges.csv"
    elif spec.name == "ablation":
        rows = experiments.run_ablation(spec)
        table = out_dir / "ablation.csv"
    else:
        raise ConfigError(f"ablate expects an 'ablation' or 'edges' spec, "
                          f"got '{spec.name}'")
    experiments.write_table(rows, table)
    experiments.save_spec(spec, out_dir / "spec.resolved")
    print(f"wrote {table}")
    for row in rows:
        label = " ".join(f"{k}={v}" for k, v in row.label.items())
        print(f"{label}: median accuracy {row.median_accuracy:.4f}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    spec = _spec_from_args(args)
    spec = replace(spec, name="noise_sweep")
    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = experiments.run_sweep(spec)
    table = out_dir / "sweep.csv"
    experiments.write_table(rows, table)
    experiments.save_spec(spec, out_dir / "spec.resolved")
    print(f"wrote {table}")
    for row in rows:
        print(f"{row.label['method']} @ {row.label['corruption_rate']:.0%}: "
              f"median accuracy {row.median_accuracy:.4f}")
    return EXIT_OK


def _graph_rows(path: Path) -> list[np.ndarray]:
    """The rows of a unit-graph CSV: equally long lists of numbers."""
    rows = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            rows.append(np.array([float(v) for v in line.split(",")]))
        except ValueError:
            raise ArtifactFormatError(f"{path}, line {lineno}: expected "
                                      f"comma-separated numbers") from None
        if len(rows[-1]) != len(rows[0]):
            raise ArtifactFormatError(f"{path}, line {lineno}: "
                                      f"{len(rows[-1])} values, expected "
                                      f"{len(rows[0])}")
    return rows


def _audit_epochs(path: Path) -> list[int]:
    """The epoch of every record in a relabel audit CSV."""
    lines = path.read_text().splitlines()
    if not lines or lines[0] != AUDIT_HEADER:
        raise ArtifactFormatError(f"{path}, line 1: expected the audit "
                                  f"header '{AUDIT_HEADER}'")
    n_cols = len(AUDIT_HEADER.split(","))
    epochs = []
    for lineno, line in enumerate(lines[1:], 2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != n_cols:
            raise ArtifactFormatError(f"{path}, line {lineno}: {len(fields)} "
                                      f"fields, expected {n_cols}")
        try:
            epochs.append(int(fields[0]))
        except ValueError:
            raise ArtifactFormatError(f"{path}, line {lineno}: epoch "
                                      f"'{fields[0]}' is not an integer") from None
    return epochs


def cmd_inspect(args) -> int:
    kind, path = args.kind, Path(args.path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    if kind == "graph":
        for row in _graph_rows(path):
            print(",".join(f"{v:.4f}" for v in row) + f"  | sum {row.sum():.6f}")
    elif kind == "audit":
        counts = Counter(_audit_epochs(path))
        print("epoch,corrections")
        for epoch in sorted(counts):
            print(f"{epoch},{counts[epoch]}")
        print(f"total,{sum(counts.values())}")
    elif kind == "checkpoint":
        ckpt = load_checkpoint(path)
        print(f"epoch {ckpt.epoch}")
        print(f"dataset fingerprint {ckpt.dataset_hash}")
        for name, arr in ckpt.params.items():
            print(f"{name}: {'x'.join(map(str, arr.shape))}")
        print(f"templates valid: {ckpt.templates.valid.astype(int).tolist()}")
    elif kind == "metrics":
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        col = {name: i for i, name in enumerate(header)}
        for line in lines[1:]:
            fields = line.split(",")
            print(f"epoch {fields[col['epoch']]}: "
                  f"accuracy {fields[col['accuracy']]}, "
                  f"noise_rate {fields[col['noise_rate']]}, "
                  f"corrections {fields[col['relabel_count']]}")
    elif kind == "dataset":
        ds = data.load(path)
        hist = np.bincount(ds.observed_labels, minlength=ds.n_classes)
        corrupted = int(np.sum(ds.observed_labels != ds.true_labels))
        print(f"n={ds.n} classes={ds.n_classes} units={ds.n_units} "
              f"dim={ds.dim} seed={ds.seed}")
        print("label histogram: " + " ".join(f"{c}:{int(h)}"
                                             for c, h in enumerate(hist)))
        print(f"observed != true: {corrupted} ({corrupted / ds.n:.1%})")
    else:
        raise ConfigError(f"unknown artifact kind '{kind}'")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aurelab",
        description="Noisy-label expression classification laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset file")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--aus", type=int, default=10,
                   help="number of action units")
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--size", type=int, default=2000, dest="size")
    p.add_argument("--spread", type=float, default=4.0)
    p.add_argument("--noise", type=float, default=1.0)
    p.add_argument("--au-noise", type=float, default=0.05)
    p.add_argument("--corruption", type=float, default=0.0)
    p.add_argument("--test-fraction", type=float, default=0.0,
                   help="also write a clean held-out file (<out>.test)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train on a dataset file")
    p.add_argument("--data", required=True)
    p.add_argument("--test-data", default=None,
                   help="clean dataset for per-epoch evaluation")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--resume", default=None, help="checkpoint to continue")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="branch or edge ablation table")
    _add_spec_flags(p, with_rates=False)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="corruption-rate sweep table")
    _add_spec_flags(p, with_rates=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("inspect", help="print an artifact in readable form")
    p.add_argument("kind",
                   choices=["graph", "audit", "checkpoint", "metrics",
                            "dataset"])
    p.add_argument("path")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ArtifactFormatError, CheckpointError, DatasetFormatError,
            DatasetValidationError, IntegrityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
