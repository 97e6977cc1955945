"""Experiment harness: dataset protocol, paired runs, and summary tables.

Every experiment cell generates one clustered dataset, splits it into train
and held-out parts (stratified, the held-out part stays clean), corrupts the
training labels at the requested rate, trains, and reports held-out accuracy.
All randomness derives from the cell's seed, so a spec file plus its seed
list reproduces every number exactly.

Experiments: ``ablation`` (branch on/off grid), ``edges`` (counted versus
random adjacency), ``noise_sweep`` (baseline versus full method across
corruption rates), and ``single_run``.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .data import (Dataset, corrupt_labels, generate, train_test_split,
                   write_text_atomic)
from .errors import ConfigError
from .trainer import TrainConfig, TrainResult, evaluate, train


@dataclass(frozen=True)
class DatasetSpec:
    """Generator arguments for one experiment dataset."""
    n_classes: int = 5
    n_units: int = 10
    dim: int = 16
    n: int = 2000
    class_spread: float = 4.0
    within_noise: float = 1.0
    au_noise: float = 0.03
    test_fraction: float = 0.2


# Desk-scale training protocol for experiments.  The stock TrainConfig
# mirrors the reference regime (big batches, pretrained features); trained
# from scratch on 1600-sample splits it neither converges by the relabeling
# start nor ever memorizes noisy labels, so no method separation is
# measurable.  Experiment cells instead use smaller batches (still ~8
# high-confidence members per class per batch, enough for stable templates),
# a hotter schedule with the same drop-10x-at-two-epochs shape, and
# heavy-ball momentum, which puts the plain-CE baseline in the
# noise-memorizing regime the correction mechanism targets.  Spec files can
# override any of it.
EXPERIMENT_TRAIN_DEFAULTS = TrainConfig(
    batch_size=48,
    lr_initial=0.05,
    lr_drops=((20, 5e-3), (30, 5e-4)),
    lr_aux=0.01,
    momentum=0.8,
    warmup_epochs=15,
    hidden_dim=128,
    feat_dim=64,
)

EXPERIMENT_KINDS = ("single_run", "ablation", "edges", "noise_sweep")


@dataclass(frozen=True)
class ExperimentSpec:
    name: str = "single_run"
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    train: TrainConfig = field(default_factory=lambda: EXPERIMENT_TRAIN_DEFAULTS)
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    rates: tuple[float, ...] = (0.1, 0.2, 0.3)
    rate: float = 0.2
    out_dir: str = "runs"

    def validate(self) -> None:
        if self.name not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment '{self.name}'; "
                              f"expected one of {EXPERIMENT_KINDS}")
        if not self.seeds:
            raise ConfigError("experiment needs at least one seed")
        self.train.validate()


@dataclass
class CellResult:
    """One (configuration, seed) training run."""
    seed: int
    rate: float
    accuracy: float
    final_noise_rate: float
    relabel_precision: float
    relabel_recall: float
    result: TrainResult


def make_cell_datasets(spec: DatasetSpec, rate: float, seed: int
                       ) -> tuple[Dataset, Dataset]:
    """(corrupted train split, clean held-out split) for one cell.

    Generation, splitting, and corruption each get their own derived seed so
    the corruption draw cannot perturb the data draw.
    """
    full = generate(spec.n_classes, spec.n_units, spec.dim, spec.n,
                    spec.class_spread, spec.within_noise,
                    seed=seed * 10 + 1, au_noise=spec.au_noise)
    train_ds, test_ds = train_test_split(full, spec.test_fraction,
                                         seed=seed * 10 + 2)
    train_ds = corrupt_labels(train_ds, rate, seed=seed * 10 + 3)
    return train_ds, test_ds


def run_cell(dataset_spec: DatasetSpec, train_cfg: TrainConfig, rate: float,
             seed: int, use_target: bool = True, use_aux: bool = True,
             random_edges: bool = False) -> CellResult:
    train_ds, test_ds = make_cell_datasets(dataset_spec, rate, seed)
    cfg = replace(train_cfg, seed=seed, use_target_branch=use_target,
                  use_aux_branch=use_aux, random_edges=random_edges)
    result = train(train_ds, cfg, eval_dataset=test_ds)
    accuracy = evaluate(result.model, test_ds).accuracy
    final = result.final_dataset
    moved = final.observed_labels != train_ds.observed_labels
    if moved.any():
        precision = float(np.mean(
            final.observed_labels[moved] == final.true_labels[moved]))
    else:
        precision = float("nan")
    wrong_at_start = train_ds.observed_labels != train_ds.true_labels
    n_wrong = int(wrong_at_start.sum())
    if n_wrong:
        fixed = int(np.sum(wrong_at_start &
                           (result.final_dataset.observed_labels ==
                            result.final_dataset.true_labels)))
        recall = fixed / n_wrong
    else:
        recall = float("nan")
    return CellResult(seed, rate, accuracy,
                      result.final_dataset.observed_noise_rate(),
                      precision, recall, result)


def _median(values: list[float]) -> float:
    arr = np.asarray(values, dtype=np.float64)
    if np.isnan(arr).all():
        return float("nan")
    return float(np.nanmedian(arr))


@dataclass
class TableRow:
    label: dict
    median_accuracy: float
    per_seed_accuracy: dict[int, float]
    extra: dict = field(default_factory=dict)


ABLATION_GRID = ((False, False), (True, False), (False, True), (True, True))


def run_ablation(spec: ExperimentSpec) -> list[TableRow]:
    """Branch on/off grid at one corruption rate: neither, target only,
    detection only, both."""
    rows = []
    for use_target, use_aux in ABLATION_GRID:
        cells = [run_cell(spec.dataset, spec.train, spec.rate, s,
                          use_target, use_aux) for s in spec.seeds]
        rows.append(TableRow(
            {"target_branch": int(use_target), "aux_branch": int(use_aux)},
            _median([c.accuracy for c in cells]),
            {c.seed: c.accuracy for c in cells}))
    return rows


def run_edges(spec: ExperimentSpec) -> list[TableRow]:
    """Random versus counted co-occurrence adjacency, both branches on."""
    rows = []
    for label, random_edges in (("random", True), ("data_driven", False)):
        cells = [run_cell(spec.dataset, spec.train, spec.rate, s,
                          random_edges=random_edges) for s in spec.seeds]
        rows.append(TableRow({"edges": label},
                             _median([c.accuracy for c in cells]),
                             {c.seed: c.accuracy for c in cells}))
    return rows


def run_sweep(spec: ExperimentSpec) -> list[TableRow]:
    """Baseline (both branches off) versus the full method at each rate."""
    rows = []
    for rate in spec.rates:
        for method, (use_target, use_aux) in (("baseline", (False, False)),
                                              ("full", (True, True))):
            cells = [run_cell(spec.dataset, spec.train, rate, s,
                              use_target, use_aux) for s in spec.seeds]
            rows.append(TableRow(
                {"method": method, "corruption_rate": rate},
                _median([c.accuracy for c in cells]),
                {c.seed: c.accuracy for c in cells},
                extra={
                    "median_final_noise_rate":
                        _median([c.final_noise_rate for c in cells]),
                    "median_relabel_precision":
                        _median([c.relabel_precision for c in cells]),
                    "median_relabel_recall":
                        _median([c.relabel_recall for c in cells]),
                }))
    return rows


def write_table(rows: list[TableRow], path) -> None:
    if not rows:
        raise ConfigError("no table rows to write")
    label_cols = list(rows[0].label)
    extra_cols = list(rows[0].extra)
    seed_cols = sorted(rows[0].per_seed_accuracy)
    header = (label_cols + ["median_accuracy"] + extra_cols +
              [f"accuracy_s{s}" for s in seed_cols])
    lines = [",".join(header)]
    for row in rows:
        vals = [str(row.label[c]) for c in label_cols]
        vals.append(repr(row.median_accuracy))
        vals.extend(repr(row.extra[c]) for c in extra_cols)
        vals.extend(repr(row.per_seed_accuracy[s]) for s in seed_cols)
        lines.append(",".join(vals))
    write_text_atomic(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# spec files: INI-style sections [experiment], [dataset], [train]

_EXPERIMENT_KEYS = {"name", "seeds", "rates", "rate", "out"}
_INT_TRAIN_KEYS = {"ramp_pivot", "epochs", "batch_size", "warmup_epochs",
                   "seed", "hidden_dim", "feat_dim", "node_dim",
                   "gcn_channels"}
_FLOAT_TRAIN_KEYS = {"high_fraction", "rank_margin", "lr_initial", "lr_aux",
                     "lr_aux_decay", "momentum", "leaky_slope"}
_BOOL_TRAIN_KEYS = {"use_target_branch", "use_aux_branch", "random_edges"}
# lr_drops uses its own "epoch:rate,epoch:rate" syntax
_SCHEDULE_TRAIN_KEYS = {"lr_drops"}
_INT_DATASET_KEYS = {"n_classes", "n_units", "dim", "n"}
_FLOAT_DATASET_KEYS = {"class_spread", "within_noise", "au_noise",
                       "test_fraction"}


def _parse_bool(value: str) -> bool:
    v = value.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"cannot parse boolean value {value!r}")


def _parse_lr_drops(value: str) -> tuple[tuple[int, float], ...]:
    value = value.strip()
    if not value:
        return ()
    drops = []
    for part in value.split(","):
        epoch, _, rate = part.partition(":")
        try:
            drops.append((int(epoch), float(rate)))
        except ValueError:
            raise ConfigError(
                f"cannot parse lr_drops entry {part!r}; expected "
                f"'epoch:rate,epoch:rate'") from None
    return tuple(drops)


def _format_lr_drops(drops: tuple[tuple[int, float], ...]) -> str:
    return ",".join(f"{epoch}:{rate!r}" for epoch, rate in drops)


def load_spec(path) -> ExperimentSpec:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"spec file not found: {path}")
    unknown_sections = set(parser.sections()) - {"experiment", "dataset", "train"}
    if unknown_sections:
        raise ConfigError(f"unknown spec sections: {sorted(unknown_sections)}")

    kwargs = {}
    if parser.has_section("experiment"):
        sec = parser["experiment"]
        bad = set(sec) - _EXPERIMENT_KEYS
        if bad:
            raise ConfigError(f"unknown [experiment] keys: {sorted(bad)}")
        if "name" in sec:
            kwargs["name"] = sec["name"].strip()
        if "seeds" in sec:
            kwargs["seeds"] = tuple(int(s) for s in sec["seeds"].split(","))
        if "rates" in sec:
            kwargs["rates"] = tuple(float(s) for s in sec["rates"].split(","))
        if "rate" in sec:
            kwargs["rate"] = float(sec["rate"])
        if "out" in sec:
            kwargs["out_dir"] = sec["out"].strip()

    ds_kwargs = {}
    if parser.has_section("dataset"):
        sec = parser["dataset"]
        for key in sec:
            if key in _INT_DATASET_KEYS:
                ds_kwargs[key] = int(sec[key])
            elif key in _FLOAT_DATASET_KEYS:
                ds_kwargs[key] = float(sec[key])
            else:
                raise ConfigError(f"unknown [dataset] key: {key}")
    kwargs["dataset"] = DatasetSpec(**ds_kwargs)

    tr_kwargs = {}
    if parser.has_section("train"):
        sec = parser["train"]
        for key in sec:
            if key in _INT_TRAIN_KEYS:
                tr_kwargs[key] = int(sec[key])
            elif key in _FLOAT_TRAIN_KEYS:
                tr_kwargs[key] = float(sec[key])
            elif key in _BOOL_TRAIN_KEYS:
                tr_kwargs[key] = _parse_bool(sec[key])
            elif key in _SCHEDULE_TRAIN_KEYS:
                tr_kwargs[key] = _parse_lr_drops(sec[key])
            else:
                raise ConfigError(f"unknown [train] key: {key}")
    kwargs["train"] = replace(EXPERIMENT_TRAIN_DEFAULTS, **tr_kwargs)

    spec = ExperimentSpec(**kwargs)
    spec.validate()
    return spec


def save_spec(spec: ExperimentSpec, path) -> None:
    lines = ["[experiment]", f"name = {spec.name}",
             f"seeds = {','.join(str(s) for s in spec.seeds)}",
             f"rates = {','.join(repr(r) for r in spec.rates)}",
             f"rate = {spec.rate!r}", f"out = {spec.out_dir}", "",
             "[dataset]"]
    for f in fields(DatasetSpec):
        lines.append(f"{f.name} = {getattr(spec.dataset, f.name)!r}")
    lines.append("")
    lines.append("[train]")
    for f in fields(TrainConfig):
        value = getattr(spec.train, f.name)
        if f.name == "lr_drops":
            lines.append(f"lr_drops = {_format_lr_drops(value)}")
        else:
            lines.append(f"{f.name} = {value!r}")
    write_text_atomic(path, "\n".join(lines) + "\n")
