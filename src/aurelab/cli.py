"""Command-line experiment harness.

Subcommands: gen (write a dataset file), train, eval, ablate, sweep,
inspect.  ``ablate`` writes the ``ablation`` or ``edges`` table and
``sweep`` the ``noise_sweep`` table.  Each of their flags but ``--spec`` is
the spec key it sets (``--seeds`` is ``[experiment] seeds``, ``--epochs``
``[train] epochs``, ``--size`` ``[dataset] n``), read like the file's text
and laid over it; a spec that names another table is exit 2.  Each of
``train``'s training flags is a ``[train]`` key too (``--lr`` is
``lr_initial``; ``--no-target``, ``--no-aux`` and ``--random-edges`` set
theirs to false, false and true), laid over ``TrainConfig``'s defaults,
which are the experiment protocol, or with ``--resume`` over the
checkpoint's configuration.
Each of ``gen``'s flags but ``--seed`` and ``--out`` is a spec key too: a
``[dataset]`` key (``--classes`` is ``n_classes``, ``--spread``
``class_spread``), or ``[experiment] rate`` for ``--corruption``, laid
over ``DatasetSpec`` and checked by ``DatasetSpec.validate`` before
anything is generated.  Every such flag's text goes through
``experiments.parse_value``, the parser of spec files, so a value that
does not parse is the same ``[train] epochs = '1.5': expected an
integer`` line, exit 2, whichever command it is given to.  ``inspect``
reads a file with the reader beside its writer (``relabel.read_audit``,
``trainer.read_metrics``); only the unit-graph CSVs are this module's.
Every CSV a command writes, ``eval --out``'s included, goes through
``data.write_csv``.

Exit codes: 0 success, 2 usage or configuration error (a dataset too large
to generate included), 3 missing, unreadable (not UTF-8 text included) or
malformed file, 4 numeric failure during training.  An error is one
``error:`` line on stderr, and each warning shown one ``warning:`` line.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import data, experiments, relabel
from .errors import (ArtifactFormatError, CheckpointError, ConfigError,
                     DatasetFormatError, DatasetValidationError,
                     IntegrityError, TrainingDivergedError)
from .trainer import (TrainConfig, evaluate, load_checkpoint, read_metrics,
                      restore_model, save_checkpoint, train, write_metrics_csv)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FILE = 3
EXIT_NUMERIC = 4


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", dest="train.epochs")
    p.add_argument("--batch-size", dest="train.batch_size")
    p.add_argument("--high-fraction", dest="train.high_fraction",
                   help="share of each batch treated as high confidence")
    p.add_argument("--rank-margin", dest="train.rank_margin")
    p.add_argument("--ramp-pivot", dest="train.ramp_pivot")
    p.add_argument("--warmup-epochs", dest="train.warmup_epochs")
    p.add_argument("--lr", dest="train.lr_initial")
    p.add_argument("--lr-aux", dest="train.lr_aux")
    p.add_argument("--momentum", dest="train.momentum")
    p.add_argument("--seed", dest="train.seed")
    p.add_argument("--no-target", action="store_const", const="false",
                   dest="train.use_target_branch",
                   help="disable confidence weighting and the rank hinge")
    p.add_argument("--no-aux", action="store_const", const="false",
                   dest="train.use_aux_branch",
                   help="disable the detection branch and label correction")
    p.add_argument("--random-edges", action="store_const", const="true",
                   dest="train.random_edges",
                   help="replace counted co-occurrence edges with random ones")


def _flag_texts(args) -> dict[str, dict[str, str]]:
    """The text of each flag given whose destination is a ``section.key``."""
    texts = {}
    for dest, text in vars(args).items():
        section, _, key = dest.rpartition(".")
        if section and text is not None:
            texts.setdefault(section, {})[key] = text
    return texts


def _flag_values(args, section: str) -> dict:
    """Each ``section`` key that a flag gives, with the flag's value."""
    return {key: experiments.parse_value(section, key, text)
            for key, text in _flag_texts(args).get(section, {}).items()}


def _label_histogram(ds: data.Dataset) -> str:
    """The count of each observed label that occurs, in label order.  A
    class no sample bears is left out, so a huge ``C`` costs nothing."""
    labels, counts = np.unique(ds.observed_labels, return_counts=True)
    return "label histogram: " + " ".join(
        f"{c}:{h}" for c, h in zip(labels.tolist(), counts.tolist()))


def cmd_gen(args) -> int:
    rate = _flag_values(args, "experiment")["rate"]
    d = data.DatasetSpec(**_flag_values(args, "dataset"))
    data.check_corruption_rate(rate)
    d.validate()
    ds = data.generate(d.n_classes, d.n_units, d.dim, d.n, d.class_spread,
                       d.within_noise, args.seed, au_noise=d.au_noise)
    test_ds = None
    if d.test_fraction > 0:
        ds, test_ds = data.train_test_split(ds, d.test_fraction,
                                            seed=args.seed)
    ds = data.corrupt_labels(ds, rate, seed=args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    data.save(ds, out)
    if test_ds is not None:
        test_path = out.with_suffix(out.suffix + ".test")
        data.save(test_ds, test_path)

    corrupted = int(np.sum(ds.observed_labels != ds.true_labels))
    print(f"wrote {ds.n} samples to {out}")
    if test_ds is not None:
        print(f"wrote {test_ds.n} clean held-out samples to {test_path}")
    print(f"classes={ds.n_classes} units={ds.n_units} dim={ds.dim}")
    print(_label_histogram(ds))
    print(f"corrupted labels: {corrupted} of {ds.n} "
          f"({corrupted / ds.n:.1%}, requested {rate:.1%})")
    return EXIT_OK


def _write_graph_files(graph, out_dir: Path) -> None:
    for name, matrix in (("au_adjacency.csv", graph.conditional),
                         ("au_adjacency_normalized.csv", graph.normalized)):
        data.write_csv(out_dir / name, matrix)


def cmd_train(args) -> int:
    flags = _flag_values(args, "train")
    out_dir = Path(args.out)
    # fail before the run, not after it, when the directory cannot be made
    nearest = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not nearest.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR),
                                 str(nearest))
    ds = data.load(args.data)
    eval_ds = data.load(args.test_data) if args.test_data else None
    resume = load_checkpoint(args.resume) if args.resume else None
    cfg = replace(resume.config if resume else TrainConfig(), **flags)
    result = train(ds, cfg, eval_dataset=eval_ds, resume=resume)

    out_dir.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(result.metrics, ds.n_classes, out_dir / "metrics.csv")
    save_checkpoint(result.checkpoint, out_dir / "checkpoint.json")
    relabel.write_audit(out_dir / "relabel_audit.csv", result.records)
    _write_graph_files(result.model.graph, out_dir)

    if result.metrics:
        last = result.metrics[-1]
        where = "held-out" if eval_ds is not None else "train-vs-true"
        print(f"trained {len(result.metrics)} epochs; "
              f"final {where} accuracy {last.accuracy:.4f}")
        print(f"final stored-label noise rate {last.noise_rate:.4f}; "
              f"{sum(m.relabel_count for m in result.metrics)} corrections")
    elif resume is not None:
        print(f"no epochs trained; wrote the resumed epoch-{resume.epoch} "
              f"checkpoint again")
    else:
        print("no epochs trained; wrote initialization checkpoint")
    print(f"artifacts under {out_dir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    ds = data.load(args.data)
    model = restore_model(load_checkpoint(args.checkpoint), ds)
    report = evaluate(model, ds)
    if args.out:   # before the report, so a failed write prints no report
        data.write_csv(args.out, [
            ("class", "accuracy"), *enumerate(report.per_class_accuracy),
            ("confusion",), *report.confusion])
    print(f"accuracy {report.accuracy:.4f} on {report.n} samples")
    for c, acc in enumerate(report.per_class_accuracy):
        print(f"class {c}: {acc:.4f}")
    return EXIT_OK


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", default=None, help="experiment spec file (INI)")
    p.add_argument("--seeds", dest="experiment.seeds",
                   help="comma-separated seed list")
    p.add_argument("--out", dest="experiment.out", help="output directory")
    p.add_argument("--epochs", dest="train.epochs")
    p.add_argument("--size", dest="dataset.n",
                   help="dataset size before the train/test split")


def _write_table(spec: experiments.ExperimentSpec, describe) -> int:
    """Run ``spec``'s table, write it with the resolved spec beside it, and
    print one ``describe(row)`` line per row."""
    out_dir = Path(spec.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = experiments.run_grid(spec)
    table = out_dir / experiments.TABLE_FILES[spec.name]
    experiments.write_table(rows, table)
    experiments.save_spec(spec, out_dir / "spec.resolved")
    print(f"wrote {table}")
    for row in rows:
        print(f"{describe(row.label)}: median accuracy "
              f"{row.median_accuracy:.4f}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    spec = experiments.load_spec(args.spec, _flag_texts(args),
                                 ("ablation", "edges"))
    return _write_table(spec, lambda label: " ".join(
        f"{k}={v}" for k, v in label.items()))


def cmd_sweep(args) -> int:
    spec = experiments.load_spec(args.spec, _flag_texts(args),
                                 ("noise_sweep",))
    return _write_table(spec, lambda label: (
        f"{label['method']} @ {label['corruption_rate']:.0%}"))


def _graph_rows(path: Path) -> list[np.ndarray]:
    """The rows of a unit-graph CSV: a non-empty square matrix of finite
    numbers."""
    rows = []
    lines = path.read_text().splitlines()
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            rows.append(np.array([float(v) for v in line.split(",")]))
        except ValueError:
            raise ArtifactFormatError(f"{path}, line {lineno}: expected "
                                      f"comma-separated numbers") from None
        if not np.isfinite(rows[-1]).all():
            raise ArtifactFormatError(f"{path}, line {lineno}: expected "
                                      f"finite numbers")
        if len(rows[-1]) != len(rows[0]):
            raise ArtifactFormatError(f"{path}, line {lineno}: "
                                      f"{len(rows[-1])} values, expected "
                                      f"{len(rows[0])}")
    width = len(rows[0]) if rows else 0
    if not rows or len(rows) != width:
        raise ArtifactFormatError(f"{path}, line {len(lines) + 1}: "
                                  f"{len(rows)} rows of {width} values, "
                                  f"expected a non-empty square matrix")
    return rows


def cmd_inspect(args) -> int:
    kind, path = args.kind, Path(args.path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    if kind == "graph":
        for row in _graph_rows(path):
            print(",".join(f"{v:.4f}" for v in row) + f"  | sum {row.sum():.6f}")
    elif kind == "audit":
        epochs, counts = np.unique(relabel.read_audit(path)["epoch"],
                                   return_counts=True)
        print("epoch,corrections")
        for epoch, count in zip(epochs.tolist(), counts.tolist()):
            print(f"{epoch},{count}")
        print(f"total,{int(counts.sum())}")
    elif kind == "checkpoint":
        ckpt = load_checkpoint(path)
        print(f"epoch {ckpt.epoch}")
        print(f"dataset fingerprint {ckpt.dataset_hash}")
        for name, arr in ckpt.params.items():
            print(f"{name}: {'x'.join(map(str, arr.shape))}")
        print(f"templates valid: {ckpt.templates.valid.astype(int).tolist()}")
    elif kind == "metrics":
        for row in read_metrics(path):
            print(f"epoch {row['epoch']}: accuracy {row['accuracy']}, "
                  f"noise_rate {row['noise_rate']}, "
                  f"corrections {row['relabel_count']}")
    elif kind == "dataset":
        ds = data.load(path)
        corrupted = int(np.sum(ds.observed_labels != ds.true_labels))
        print(f"n={ds.n} classes={ds.n_classes} units={ds.n_units} "
              f"dim={ds.dim} seed={ds.seed}")
        print(_label_histogram(ds))
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
    p.add_argument("--classes", dest="dataset.n_classes")
    p.add_argument("--aus", dest="dataset.n_units")
    p.add_argument("--dim", dest="dataset.dim")
    p.add_argument("--size", dest="dataset.n")
    p.add_argument("--spread", dest="dataset.class_spread")
    p.add_argument("--noise", dest="dataset.within_noise")
    p.add_argument("--au-noise", dest="dataset.au_noise", default="0.05")
    p.add_argument("--corruption", dest="experiment.rate", default="0")
    p.add_argument("--test-fraction", dest="dataset.test_fraction",
                   default="0", help="also write a clean held-out <out>.test")
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
    _add_spec_flags(p)
    p.add_argument("--name", dest="experiment.name",
                   help="table: ablation or edges")
    p.add_argument("--rate", dest="experiment.rate",
                   help="corruption rate for this experiment")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="corruption-rate sweep table")
    _add_spec_flags(p)
    p.add_argument("--rates", dest="experiment.rates",
                   help="comma-separated corruption rates")
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
    # a warning shown on stderr is one line, as an error is
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, UnicodeDecodeError, ArtifactFormatError,
            CheckpointError, DatasetFormatError, DatasetValidationError,
            IntegrityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FILE
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
