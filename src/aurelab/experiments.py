"""Experiment harness: dataset protocol, paired runs, and summary tables.

Every experiment cell generates one clustered dataset, splits it into train
and held-out parts (stratified, the held-out part stays clean), corrupts the
training labels at the requested rate, trains, and reports held-out accuracy.
All randomness derives from the cell's seed, so a spec file plus its seed
list reproduces every number exactly.

Experiments: ``ablation`` (branch on/off grid), ``edges`` (counted versus
random adjacency) and ``noise_sweep`` (baseline versus full method across
corruption rates).  The three tables are lists of rows run by one grid
runner, which returns each row with its cells; a cell that two tables
share trains once per process, and the memo holds it without its run.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .data import (Dataset, DatasetSpec, check_corruption_rate,
                   corrupt_labels, generate, read_lines, train_test_split,
                   write_atomic, write_csv)
from .errors import ConfigError
from .relabel import correction_figures
from .trainer import TrainConfig, TrainResult, evaluate, train


# Kept only because the benchmark harness (perfbench/workloads.py) imports
# the protocol by this name; TrainConfig's defaults are the protocol.
EXPERIMENT_TRAIN_DEFAULTS = TrainConfig()


@dataclass(frozen=True)
class ExperimentSpec:
    name: str = "ablation"
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    rates: tuple[float, ...] = (0.1, 0.2, 0.3)
    rate: float = 0.2
    out: str = "runs"

    def validate(self) -> None:
        if not self.seeds:
            raise ConfigError("experiment needs at least one seed")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {min(self.seeds)}")
        # a table has one column per seed and one row per rate
        for name in ("seeds", "rates"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} must not repeat, got "
                                  f"{list(values)}")
        for rate in (self.rate, *self.rates):
            check_corruption_rate(rate)
        if self.train.epochs < 1:
            raise ConfigError(f"an experiment cell needs at least one epoch, "
                              f"got {self.train.epochs}")
        self.dataset.validate()
        if self.dataset.test_fraction == 0.0:   # every cell has a held-out set
            raise ConfigError(f"test_fraction must lie in (0, 1), got "
                              f"{self.dataset.test_fraction}")
        self.train.validate()


@dataclass(frozen=True)
class CellResult:
    """One (configuration, seed) training run: the figures a table reads,
    and the run itself, which the cell memo does not keep (None)."""
    seed: int
    accuracy: float
    final_noise_rate: float
    relabel_precision: float
    relabel_recall: float
    result: TrainResult | None


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


def cell_config(train_cfg: TrainConfig, seed: int, use_target: bool = True,
                use_aux: bool = True, random_edges: bool = False
                ) -> TrainConfig:
    """The configuration one cell trains with."""
    return replace(train_cfg, seed=seed, use_target_branch=use_target,
                   use_aux_branch=use_aux, random_edges=random_edges)


def run_cell(dataset_spec: DatasetSpec, train_cfg: TrainConfig, rate: float,
             seed: int, use_target: bool = True, use_aux: bool = True,
             random_edges: bool = False) -> CellResult:
    """Train one cell; its figures are the trained model's accuracy on the
    held-out split, evaluated once after training, and the label
    corrections over the whole run."""
    train_ds, test_ds = make_cell_datasets(dataset_spec, rate, seed)
    cfg = cell_config(train_cfg, seed, use_target, use_aux, random_edges)
    result = train(train_ds, cfg)
    precision, recall = correction_figures(
        train_ds.observed_labels, result.final_dataset.observed_labels,
        train_ds.true_labels)
    return CellResult(seed, evaluate(result.model, test_ds).accuracy,
                      result.metrics[-1].noise_rate, precision, recall, result)


# Every cell trained in this process, without its run, keyed by value: the
# dataset spec, the cell's configuration and the corruption rate.  Cells are
# fixed by their seed, so a repeated cell gives the same figures without
# training.
_CELL_MEMO: dict[tuple[DatasetSpec, TrainConfig, float], CellResult] = {}


def clear_cell_memo() -> None:
    """Forget every memoized cell, so the next table trains afresh."""
    _CELL_MEMO.clear()


@dataclass(frozen=True)
class GridRow:
    """One table row: its label columns, the cell it trains at every seed of
    the spec and, once run, those cells in the spec's seed order.
    ``correction`` rows also report how well the stored labels were
    corrected."""
    label: dict
    rate: float
    use_target: bool = True
    use_aux: bool = True
    random_edges: bool = False
    correction: bool = False
    cells: tuple[CellResult, ...] = ()

    def median(self, figure: str) -> float:
        """The median of ``figure`` over the row's cells, ignoring NaN;
        NaN when every cell's is NaN."""
        values = np.array([getattr(c, figure) for c in self.cells])
        if np.isnan(values).all():
            return float("nan")
        return float(np.nanmedian(values))

    @property
    def median_accuracy(self) -> float:
        return self.median("accuracy")


ABLATION_GRID = ((False, False), (True, False), (False, True), (True, True))
TABLE_FILES = {"ablation": "ablation.csv", "edges": "edges.csv",
               "noise_sweep": "sweep.csv"}
EXPERIMENT_KINDS = tuple(TABLE_FILES)
_CORRECTION_FIGURES = ("final_noise_rate", "relabel_precision",
                       "relabel_recall")


def grid_rows(spec: ExperimentSpec) -> list[GridRow]:
    """The rows of the table ``spec.name`` names."""
    if spec.name == "ablation":
        # branch on/off grid: neither, target only, detection only, both
        return [GridRow({"target_branch": int(t), "aux_branch": int(a)},
                        spec.rate, t, a) for t, a in ABLATION_GRID]
    if spec.name == "edges":
        # random versus counted co-occurrence adjacency, both branches on
        return [GridRow({"edges": "random"}, spec.rate, random_edges=True),
                GridRow({"edges": "data_driven"}, spec.rate)]
    if spec.name == "noise_sweep":
        # baseline (both branches off) versus the full method at each rate
        return [GridRow({"method": method, "corruption_rate": rate},
                        rate, full, full, correction=True)
                for rate in spec.rates
                for method, full in (("baseline", False), ("full", True))]
    raise ConfigError(f"experiment '{spec.name}' has no table")


def _row_cell(spec: ExperimentSpec, row: GridRow, seed: int) -> CellResult:
    """``row``'s cell at ``seed`` without its run, trained at most once per
    process."""
    key = (spec.dataset, cell_config(spec.train, seed, row.use_target,
                                     row.use_aux, row.random_edges), row.rate)
    if key not in _CELL_MEMO:
        _CELL_MEMO[key] = replace(run_cell(
            spec.dataset, spec.train, row.rate, seed, row.use_target,
            row.use_aux, row.random_edges), result=None)
    return _CELL_MEMO[key]


def run_grid(spec: ExperimentSpec) -> list[GridRow]:
    """The rows of ``spec``'s table, each with its cell at every seed of the
    spec, taken from the process-wide memo."""
    return [replace(row, cells=tuple(_row_cell(spec, row, seed)
                                     for seed in spec.seeds))
            for row in grid_rows(spec)]


def write_table(rows: list[GridRow], path) -> None:
    """Write the run ``rows``: label columns, the median accuracy (and the
    correction medians of ``correction`` rows), then each seed's accuracy."""
    if not rows:
        raise ConfigError("no table rows to write")
    label_cols = list(rows[0].label)
    figures = ("accuracy",
               *(_CORRECTION_FIGURES if rows[0].correction else ()))
    seeds = sorted({c.seed for c in rows[0].cells})
    lines = [[*label_cols, *(f"median_{f}" for f in figures),
              *(f"accuracy_s{s}" for s in seeds)]]
    for row in rows:
        accuracy = {c.seed: c.accuracy for c in row.cells}
        lines.append([*(row.label[c] for c in label_cols),
                      *(row.median(f) for f in figures),
                      *(accuracy[s] for s in seeds)])
    write_csv(path, lines)


# ---------------------------------------------------------------------------
# spec files: INI-style sections [experiment], [dataset], [train]


def _parse_bool(value: str) -> bool:
    try:   # 1/0, true/false, yes/no, on/off
        return configparser.ConfigParser.BOOLEAN_STATES[value.strip().lower()]
    except KeyError:
        raise ValueError(value) from None


def _parse_lr_drops(value: str) -> tuple[tuple[int, float], ...]:
    value = value.strip()
    if not value:
        return ()
    return tuple((int(epoch), float(rate)) for epoch, _, rate in
                 (part.partition(":") for part in value.split(",")))


def _parse_path(value: str) -> str:
    """The file-system path that ``value``'s UTF-8 bytes name, so that a
    spec's text names the path the same text given as a flag names.  Under
    a UTF-8 or an ASCII (the C locale's) file-system encoding, flag text
    comes back unchanged."""
    return os.fsdecode(value.strip().encode("utf-8", "surrogateescape"))


def _list_kind(parse, expected: str):
    """The kind of a comma-separated list of ``parse`` values."""
    return (lambda v: tuple(parse(s) for s in v.split(",")),
            lambda values: ",".join(map(str, values)), expected)


# How a spec value is read and written, by the type of the field's default:
# the parser, which raises ValueError on bad text, the writer, whose text the
# parser reads back equal, and what the value should look like.
_KINDS = {int: (int, str, "an integer"), float: (float, str, "a number"),
          bool: (_parse_bool, str, "true or false"),
          str: (str.strip, str, "text"),
          tuple: (_parse_lr_drops,
                  lambda drops: ",".join(f"{e}:{r}" for e, r in drops),
                  "'epoch:rate,epoch:rate'")}


def _field_keys(defaults) -> dict:
    return {f.name: _KINDS[type(getattr(defaults, f.name))]
            for f in fields(defaults)}


# Every spec key by section, in the order spec files are written.
_SPEC_KEYS = {
    "experiment": {
        "name": _KINDS[str],
        "seeds": _list_kind(int, "comma-separated integers"),
        "rates": _list_kind(float, "comma-separated numbers"),
        "rate": _KINDS[float], "out": (_parse_path, str, "text"),
    },
    "dataset": _field_keys(DatasetSpec()),
    "train": _field_keys(TrainConfig()),
}


def parse_value(section: str, key: str, text: str):
    """``text`` read as the value of spec key ``key`` in ``[section]``; an
    unknown key or a value that does not parse is a ConfigError naming
    both."""
    kinds = _SPEC_KEYS[section]
    if key not in kinds:
        raise ConfigError(f"unknown [{section}] key: {key}")
    parse, _, expected = kinds[key]
    try:
        return parse(text)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {text!r}: expected "
                          f"{expected}") from None


def _section(parser: configparser.ConfigParser, name: str) -> dict:
    if not parser.has_section(name):
        return {}
    return {key: parse_value(name, key, text)
            for key, text in parser[name].items()}


def load_spec(path=None, overrides=None, tables=EXPERIMENT_KINDS
              ) -> ExperimentSpec:
    """The spec in file ``path``, or in empty sections when there is none,
    with ``overrides`` (``{section: {key: text}}``) laid over its keys.

    Every value is read by :func:`parse_value` and the spec is validated
    once.  A spec without a ``name`` writes the first of ``tables``; one
    that names another table is a ConfigError.
    """
    # no spec uses %(name)s references; a '%' in a value is plain text
    parser = configparser.ConfigParser(interpolation=None)
    if path is not None:
        try:
            parser.read_string("\n".join(read_lines(path)), source=str(path))
        except configparser.Error as exc:
            # duplicate keys, a missing section header, a line without '='
            raise ConfigError(" ".join(str(exc).split())) from None
    parser.read_dict(overrides or {})
    unknown_sections = set(parser.sections()) - set(_SPEC_KEYS)
    if unknown_sections:
        raise ConfigError(f"unknown spec sections: {sorted(unknown_sections)}")

    kwargs = {"name": tables[0], **_section(parser, "experiment")}
    if kwargs["name"] not in tables:
        raise ConfigError(f"[experiment] name = '{kwargs['name']}': "
                          f"expected {' or '.join(tables)}")
    spec = ExperimentSpec(
        **kwargs, dataset=DatasetSpec(**_section(parser, "dataset")),
        train=TrainConfig(**_section(parser, "train")))
    spec.validate()
    return spec


def save_spec(spec: ExperimentSpec, path) -> None:
    """Write every key of ``spec`` with its kind's writer, so that
    :func:`load_spec` reads the file back equal."""
    lines = []
    for section, keys in _SPEC_KEYS.items():
        # the [experiment] keys are fields of the spec itself
        values = getattr(spec, section, spec)
        lines += ["", f"[{section}]"]
        lines += [f"{key} = {write(getattr(values, key))}"
                  for key, (_, write, _) in keys.items()]
    write_atomic(path, (line + "\n" for line in lines[1:]))
