"""The benchmark's workloads: the work one round does, and its checks.

A round is the unit the runner repeats.  ``run`` is the timed work and calls
only public aurelab functions; ``quality`` reads the user-visible outcome;
``digest`` fingerprints every output so the runner can require identical
results from every round; ``check`` returns the failed checks.  Each check
compares against a computation made here, apart from the program, or
against a property the method must have; none compares against stored
output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import statistics
from pathlib import Path

import numpy as np

from aurelab import cli, data, experiments

PROTOCOL_RATE = 0.2


# ---------------------------------------------------------------------------
# independent reference computations


def predict(params: dict, slope: float, features: np.ndarray) -> np.ndarray:
    """Argmax of the classifier logits: a leaky-ReLU MLP in plain numpy."""
    h = features @ params["target.layer1_w"] + params["target.layer1_b"]
    h = np.where(h > 0, h, slope * h)
    feats = h @ params["target.layer2_w"] + params["target.layer2_b"]
    return np.argmax(feats @ params["target.classifier_w"], axis=1)


def mispredicted_differently(params: dict, slope: float, features, labels,
                             accuracy: float) -> bool:
    """Whether ``accuracy`` disagrees with the reference forward pass.

    One sample of slack, plus room for an accuracy printed to four places:
    a later change may reorder float arithmetic, which can flip an argmax
    that sits on an exact tie.
    """
    hits = int(np.sum(predict(params, slope, features) == labels))
    return abs(hits - accuracy * len(labels)) > 1.5


def strictly_closer(distances, original: int) -> int:
    """Scalar correction rule: move to the closest other class only when it
    is strictly closer than the original; ties go to the lowest index."""
    valid = [j for j, d in enumerate(distances) if not math.isnan(d)]
    if original not in valid or len(valid) < 2:
        return original
    best = None
    for j in valid:
        if j != original and (best is None or distances[j] < distances[best]):
            best = j
    return best if distances[original] - distances[best] > 0.0 else original


def read_dataset(path) -> dict:
    """Parse a dataset file without the program's loader."""
    lines = Path(path).read_text().splitlines()
    header = dict(line.split("=", 1) for line in lines[:6])
    m = int(header["M"])
    rows = [line.split(",") for line in lines[6:] if line]
    return {
        "ids": np.array([int(r[0]) for r in rows]),
        "observed": np.array([int(r[1]) for r in rows]),
        "true": np.array([int(r[2]) for r in rows]),
        "units": np.array([[int(b) for b in r[3:3 + m]] for r in rows]),
        "features": np.array([[float(v) for v in r[3 + m:]] for r in rows]),
        "header": header,
    }


def _sha(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(hashlib.sha256(blob).digest())
    return h.hexdigest()


class CommandFailed(RuntimeError):
    pass


def run_cli(argv: list[str]) -> str:
    """One CLI command in this process; returns what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise CommandFailed(f"aurelab {' '.join(argv)} exited {code}")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# protocol cells


class Protocol:
    """One README protocol cell: ``run_cell`` at 20% corruption, 40 epochs,
    batch 48, with both branches on (full) or both off (plain)."""

    operations = 1

    def __init__(self, seed: int, workdir: Path, full: bool):
        self.seed, self.full = seed, full

    def prepare(self) -> None:
        pass

    def run(self):
        return experiments.run_cell(
            experiments.DatasetSpec(), experiments.EXPERIMENT_TRAIN_DEFAULTS,
            PROTOCOL_RATE, self.seed, use_target=self.full, use_aux=self.full)

    def quality(self, cell) -> dict:
        final = cell.result.final_dataset
        return {"heldout_accuracy": cell.accuracy,
                "clean_labels_final": int(np.sum(
                    final.observed_labels == final.true_labels))}

    def digest(self, cell) -> str:
        params = cell.result.model.parameters()
        return _sha(repr(cell.accuracy).encode(),
                    cell.result.final_dataset.observed_labels.tobytes(),
                    *(params[k].data.tobytes() for k in sorted(params)))

    def check(self, cell, full_checks: bool) -> list[str]:
        failures = []
        train_ds, test_ds = experiments.make_cell_datasets(
            experiments.DatasetSpec(), PROTOCOL_RATE, self.seed)
        model = cell.result.model
        params = {k: t.data for k, t in model.parameters().items()}
        if mispredicted_differently(params, model.config.leaky_slope,
                                    test_ds.features, test_ds.true_labels,
                                    cell.accuracy):
            failures.append("held-out accuracy differs from the reference "
                            "forward pass")
        labels = train_ds.observed_labels.copy()
        for rec in cell.result.records:
            expected = strictly_closer([float(d) for d in rec.distances],
                                       rec.original)
            if expected != rec.corrected or rec.corrected == rec.original:
                failures.append(f"correction of sample {rec.sample_id} at "
                                f"epoch {rec.epoch} breaks the strictly-closer "
                                f"rule")
                break
            labels[rec.sample_id] = rec.corrected
        final = cell.result.final_dataset
        if not np.array_equal(labels, final.observed_labels):
            failures.append("final labels are not the start labels with the "
                            "recorded corrections applied")
        # No clean-label gain is required of the full method: seeds 28, 45,
        # 48, 52, 55 and 59 (of 0-63) end with fewer clean labels than at
        # start.
        if not self.full and (cell.result.records or not np.array_equal(
                final.observed_labels, train_ds.observed_labels)):
            failures.append("plain baseline changed stored labels")
        return failures


# ---------------------------------------------------------------------------
# the CLI through files


class FilePipeline:
    """gen, a short train, eval, train --resume and inspect, all through
    files, on a dataset large enough that the text format, the checkpoint
    JSON and the CSV artifacts take most of the time."""

    # Wide rows make the files large while training stays short.  Two
    # epochs train far enough that the resumed third epoch, the only one
    # that corrects labels, works from meaningful templates; earlier
    # corrections swing the outcome from seed to seed.
    SIZE, DIM, RATE = 6000, 128, 0.2
    TRAIN_FLAGS = ["--batch-size", "128", "--warmup-epochs", "2",
                   "--lr", "0.05", "--momentum", "0.8"]
    operations = 8

    def __init__(self, seed: int, workdir: Path):
        self.seed, self.wd = seed, workdir
        self.ds = workdir / "ds.txt"
        self.test = workdir / "ds.txt.test"
        self.first, self.resumed = workdir / "first", workdir / "resumed"

    def prepare(self) -> None:
        pass

    def _train(self, out: Path, epochs: int, *extra: str) -> str:
        return run_cli(["train", "--data", str(self.ds), "--test-data",
                        str(self.test), "--out", str(out), "--epochs",
                        str(epochs), "--seed", str(self.seed),
                        *self.TRAIN_FLAGS, *extra])

    def run(self) -> dict:
        run_cli(["gen", "--size", str(self.SIZE), "--dim", str(self.DIM),
                 "--corruption", str(self.RATE), "--test-fraction", "0.2",
                 "--seed", str(self.seed), "--out", str(self.ds)])
        self._train(self.first, 2)
        printed = run_cli(["eval", "--checkpoint",
                           str(self.first / "checkpoint.json"),
                           "--data", str(self.test)])
        self._train(self.resumed, 3, "--resume",
                    str(self.first / "checkpoint.json"))
        for kind, path in (("audit", self.resumed / "relabel_audit.csv"),
                           ("metrics", self.resumed / "metrics.csv"),
                           ("checkpoint", self.resumed / "checkpoint.json"),
                           ("dataset", self.ds)):
            run_cli(["inspect", kind, str(path)])
        return {"eval_stdout": printed}

    def _metrics(self, run_dir: Path) -> list[dict]:
        lines = (run_dir / "metrics.csv").read_text().splitlines()
        header = lines[0].split(",")
        return [dict(zip(header, line.split(","))) for line in lines[1:]]

    def _checkpoint(self, run_dir: Path) -> dict:
        return json.loads((run_dir / "checkpoint.json").read_text())

    def quality(self, outputs) -> dict:
        ckpt = self._checkpoint(self.resumed)
        true = read_dataset(self.ds)["true"]
        return {"heldout_accuracy":
                    float(self._metrics(self.resumed)[-1]["accuracy"]),
                "clean_labels_final": int(np.sum(
                    np.array(ckpt["observed_labels"]) == true))}

    def digest(self, outputs) -> str:
        files = [self.ds, self.test]
        for run_dir in (self.first, self.resumed):
            files += [run_dir / "checkpoint.json", run_dir / "metrics.csv",
                      run_dir / "relabel_audit.csv"]
        return _sha(outputs["eval_stdout"].encode(),
                    *(f.read_bytes() for f in files))

    def check(self, outputs, full_checks: bool) -> list[str]:
        failures = []
        test = read_dataset(self.test)
        for run_dir in (self.first, self.resumed):
            ckpt = self._checkpoint(run_dir)
            params = {k: np.array(v) for k, v in ckpt["params"].items()}
            slope = ckpt["config"]["leaky_slope"]
            last = self._metrics(run_dir)[-1]
            if mispredicted_differently(params, slope, test["features"],
                                        test["true"], float(last["accuracy"])):
                failures.append(f"{run_dir.name}: accuracy differs from the "
                                f"reference forward pass")
            if run_dir == self.first:
                printed = re.search(r"^accuracy (\S+) on",
                                    outputs["eval_stdout"], re.MULTILINE)
                if printed is None or mispredicted_differently(
                        params, slope, test["features"], test["true"],
                        float(printed.group(1))):
                    failures.append("eval printed an accuracy that differs "
                                    "from the reference forward pass")
            audit = (run_dir / "relabel_audit.csv").read_text().splitlines()
            logged = sum(int(row["relabel_count"])
                         for row in self._metrics(run_dir))
            if len([r for r in audit[1:] if r]) != logged:
                failures.append(f"{run_dir.name}: audit rows != relabel_count "
                                f"sum {logged}")
        if full_checks:
            failures += self._check_against_regenerated()
            reference = self.wd / "uninterrupted"
            self._train(reference, 3)
            if ((reference / "checkpoint.json").read_bytes() !=
                    (self.resumed / "checkpoint.json").read_bytes()):
                failures.append("resumed checkpoint differs from an "
                                "uninterrupted run")
        return failures

    def _check_against_regenerated(self) -> list[str]:
        full = data.generate(5, 10, self.DIM, self.SIZE, 4.0, 1.0, self.seed,
                             au_noise=0.05)
        train_ds, test_ds = data.train_test_split(full, 0.2, seed=self.seed)
        train_ds = data.corrupt_labels(train_ds, self.RATE, seed=self.seed)
        failures = []
        for path, ds in ((self.ds, train_ds), (self.test, test_ds)):
            got = read_dataset(path)
            same = (np.array_equal(got["ids"], np.arange(ds.n)) and
                    np.array_equal(got["observed"], ds.observed_labels) and
                    np.array_equal(got["true"], ds.true_labels) and
                    np.array_equal(got["units"], ds.au_labels) and
                    np.array_equal(got["features"], ds.features))
            if not same:
                failures.append(f"{path.name} differs from the regenerated "
                                f"arrays")
        return failures


# ---------------------------------------------------------------------------
# experiment tables through the CLI


class AblationGrid:
    """Small branch and edge ablations and a small noise sweep, run through
    ``cli.main``.  Cells repeat across the tables: the sweep's 20% baseline
    is the ablation's "neither", and both the edges' "data_driven" and the
    sweep's 20% full method are the ablation's "both"."""

    SEEDS_PER_TABLE = 3
    # A large held-out part keeps each cell's accuracy steady enough that
    # "both" >= "neither" holds on every seed tried, with 210 training
    # samples keeping the cells small.
    DATASET = {"n": 700, "test_fraction": 0.7}
    TRAIN = {"epochs": 20, "warmup_epochs": 8, "ramp_pivot": 6,
             "lr_drops": "10:0.005,15:0.0005"}
    RATES = (0.2, 0.3)
    operations = 3

    def __init__(self, seed: int, workdir: Path):
        self.seed, self.wd = seed, workdir
        k = self.SEEDS_PER_TABLE
        self.seeds = [seed * k + i for i in range(k)]

    def _spec(self, name: str) -> Path:
        return self.wd / f"{name}.spec"

    def prepare(self) -> None:
        for name in ("ablation", "edges", "noise_sweep"):
            lines = ["[experiment]", f"name = {name}",
                     f"seeds = {','.join(map(str, self.seeds))}",
                     f"rate = {PROTOCOL_RATE}",
                     f"rates = {','.join(map(str, self.RATES))}",
                     f"out = {self.wd / name}", "", "[dataset]"]
            lines += [f"{k} = {v}" for k, v in self.DATASET.items()]
            lines += ["", "[train]"]
            lines += [f"{k} = {v}" for k, v in self.TRAIN.items()]
            self._spec(name).write_text("\n".join(lines) + "\n")

    def run(self) -> dict:
        run_cli(["ablate", "--spec", str(self._spec("ablation"))])
        run_cli(["ablate", "--spec", str(self._spec("edges"))])
        run_cli(["sweep", "--spec", str(self._spec("noise_sweep"))])
        return {}

    def _tables(self) -> dict[str, list[dict]]:
        out = {}
        for name, table in (("ablation", "ablation.csv"), ("edges", "edges.csv"),
                            ("noise_sweep", "sweep.csv")):
            lines = (self.wd / name / table).read_text().splitlines()
            header = lines[0].split(",")
            out[name] = [dict(zip(header, line.split(",")))
                         for line in lines[1:]]
        return out

    def _per_seed(self, row: dict) -> list[float]:
        return [float(row[f"accuracy_s{s}"]) for s in self.seeds]

    def quality(self, outputs) -> dict:
        tables = self._tables()
        accuracies = [a for rows in tables.values() for row in rows
                      for a in self._per_seed(row)]
        spec = experiments.DatasetSpec(**self.DATASET)
        n_train = experiments.make_cell_datasets(spec, PROTOCOL_RATE,
                                                 self.seeds[0])[0].n
        clean = [round(n_train * (1.0 - float(row["median_final_noise_rate"])))
                 for row in tables["noise_sweep"]]
        return {"heldout_accuracy": statistics.median(accuracies),
                "clean_labels_final": statistics.median(clean)}

    def digest(self, outputs) -> str:
        return _sha(*(path.read_bytes() for path in sorted(
            self.wd.glob("*/*.csv"))))

    def check(self, outputs, full_checks: bool) -> list[str]:
        failures = []
        tables = self._tables()
        for name, rows in tables.items():
            for row in rows:
                if float(row["median_accuracy"]) != statistics.median(
                        self._per_seed(row)):
                    failures.append(f"{name}: median column is not the "
                                    f"median of the seed columns")

        def row(name, **label):
            return next(r for r in tables[name]
                        if all(r[k] == v for k, v in label.items()))

        neither = row("ablation", target_branch="0", aux_branch="0")
        both = row("ablation", target_branch="1", aux_branch="1")
        repeats = (
            (neither, row("noise_sweep", method="baseline",
                          corruption_rate=str(PROTOCOL_RATE))),
            (both, row("edges", edges="data_driven")),
            (both, row("noise_sweep", method="full",
                       corruption_rate=str(PROTOCOL_RATE))),
        )
        for first, again in repeats:
            if self._per_seed(first) != self._per_seed(again):
                failures.append("a repeated cell gave different accuracies "
                                "in two tables")
        if float(both["median_accuracy"]) < float(neither["median_accuracy"]):
            failures.append("'both' scored below 'neither'")
        return failures


WORKLOADS = {
    "protocol_full": lambda seed, wd: Protocol(seed, wd, full=True),
    "protocol_plain": lambda seed, wd: Protocol(seed, wd, full=False),
    "file_pipeline": FilePipeline,
    "ablation_grid": AblationGrid,
}
