import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import aurelab
from aurelab import cli, data, errors, experiments, trainer
from aurelab.cli import main
from aurelab.relabel import AUDIT_HEADER
from aurelab.trainer import TrainConfig, load_checkpoint


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


GEN_ARGS = ["gen", "--classes", "3", "--aus", "6", "--dim", "8",
            "--size", "200", "--spread", "4.0", "--noise", "1.0",
            "--seed", "5"]

TRAIN_SPEED_ARGS = ["--epochs", "5", "--batch-size", "32",
                    "--warmup-epochs", "2", "--ramp-pivot", "2",
                    "--lr", "0.05", "--momentum", "0.8"]


class TestGen:
    def test_writes_file_and_summary(self, tmp_path, capsys):
        out = tmp_path / "ds.txt"
        rc = main(GEN_ARGS + ["--corruption", "0.2", "--out", str(out)])
        assert rc == 0
        assert "corrupted labels: 40 of 200" in capsys.readouterr().out
        ds = data.load(out)
        assert int(np.sum(ds.observed_labels != ds.true_labels)) == 40

    def test_same_seed_same_checksum(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(GEN_ARGS + ["--out", str(a)]) == 0
        assert main(GEN_ARGS + ["--out", str(b)]) == 0
        assert sha(a) == sha(b)

    def test_more_classes_than_samples_is_usage_error(self, tmp_path):
        rc = main(["gen", "--classes", "50", "--size", "10",
                   "--out", str(tmp_path / "x.txt")])
        assert rc == 2

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        rc = main(["gen", "--seed", "-1", "--out", str(tmp_path / "x.txt")])
        _assert_error(rc, capsys, "seed must be >= 0, got -1", code=2)

    def test_empty_holdout_is_usage_error(self, tmp_path, capsys):
        gen = list(GEN_ARGS)
        gen[gen.index("--size") + 1] = "3"   # one sample per class
        rc = main(gen + ["--test-fraction", "0.2",
                         "--out", str(tmp_path / "x.txt")])
        _assert_error(rc, capsys, "held-out split would be empty", code=2)
        assert not (tmp_path / "x.txt").exists()

    @pytest.mark.parametrize("flag", ["--size", "--dim"])
    def test_size_too_large_to_allocate_is_usage_error(self, tmp_path, capsys,
                                                       flag):
        # beyond the address space: numpy refuses before touching memory
        rc = main(["gen", flag, str(10**14), "--out", str(tmp_path / "x.txt")])
        _assert_error(rc, capsys, "Unable to allocate", code=2)
        assert not (tmp_path / "x.txt").exists()

    # numpy refuses these unit tables with ValueError, not MemoryError
    @pytest.mark.parametrize("aus", [10**18, 2**63])
    @pytest.mark.parametrize("command", ["gen", "ablate"])
    def test_unit_table_beyond_the_address_space_is_usage_error(
            self, tmp_path, capsys, aus, command):
        if command == "gen":
            argv = ["gen", "--aus", str(aus), "--out", str(tmp_path / "x.txt")]
        else:
            spec = tmp_path / "spec.ini"
            spec.write_text(f"[dataset]\nn_units = {aus}\n")
            argv = ["ablate", "--spec", str(spec),
                    "--out", str(tmp_path / "out")]
        _assert_error(main(argv), capsys, f"a 5x{aus} unit table is too "
                                          f"large to allocate", code=2)
        assert not (tmp_path / "x.txt").exists()
        assert not (tmp_path / "out").exists()

    def test_memory_error_elsewhere_is_not_a_usage_error(self, tmp_path,
                                                         monkeypatch):
        path = tmp_path / "x.txt"
        assert main(GEN_ARGS + ["--out", str(path)]) == 0

        def out_of_memory(_):
            raise MemoryError
        monkeypatch.setattr(data, "load", out_of_memory)
        with pytest.raises(MemoryError):
            main(["inspect", "dataset", str(path)])

    def test_wide_unit_table_is_built_at_once(self, tmp_path):
        start = time.perf_counter()
        rc = main(["gen", "--classes", "2", "--aus", "40", "--size", "10",
                   "--out", str(tmp_path / "x.txt")])
        assert rc == 0
        assert time.perf_counter() - start < 1.0

    # (6, 40) built in 2.3 s before the search had a budget
    @pytest.mark.parametrize("classes,aus", [(5, 60), (10, 200), (6, 40)])
    def test_unit_table_past_the_search_budget_is_usage_error(
            self, tmp_path, capsys, classes, aus):
        start = time.perf_counter()
        rc = main(["gen", "--classes", str(classes), "--aus", str(aus),
                   "--size", "10", "--out", str(tmp_path / "x.txt")])
        assert time.perf_counter() - start < 2.0
        _assert_error(rc, capsys, f"no table of {classes} unit patterns over "
                                  f"{aus} units found within", code=2)
        assert not (tmp_path / "x.txt").exists()

    # every numeric flag, the spec key it is read as, and whether it reads
    # integers
    FLAG_KEYS = {"--classes": ("[dataset] n_classes", True),
                 "--aus": ("[dataset] n_units", True),
                 "--dim": ("[dataset] dim", True),
                 "--size": ("[dataset] n", True),
                 "--spread": ("[dataset] class_spread", False),
                 "--noise": ("[dataset] within_noise", False),
                 "--au-noise": ("[dataset] au_noise", False),
                 "--test-fraction": ("[dataset] test_fraction", False),
                 "--corruption": ("[experiment] rate", False),
                 "--seed": ("[train] seed", True)}

    @pytest.mark.parametrize("value", ["x", "nan", "inf", "-1", "1e300"])
    @pytest.mark.parametrize("flag", list(FLAG_KEYS))
    def test_flag_value_out_of_range_or_not_parsing(self, tmp_path, capsys,
                                                    flag, value):
        key, integer = self.FLAG_KEYS[flag]
        out = tmp_path / "x.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["gen", flag, value, "--out", str(out)])
        parses = value == "-1" or (value != "x" and not integer)
        message = "" if parses else f"error: {key} = '{value}': expected"
        _assert_error(rc, capsys, message, code=2)
        assert list(tmp_path.iterdir()) == []

    def test_test_fraction_writes_clean_holdout(self, tmp_path):
        out = tmp_path / "ds.txt"
        rc = main(GEN_ARGS + ["--corruption", "0.2", "--test-fraction", "0.25",
                              "--out", str(out)])
        assert rc == 0
        test_ds = data.load(tmp_path / "ds.txt.test")
        assert np.array_equal(test_ds.observed_labels, test_ds.true_labels)
        train_ds = data.load(out)
        assert train_ds.n + test_ds.n == 200
        assert train_ds.observed_noise_rate() > 0


@pytest.fixture(scope="module")
def dataset_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    train_path = root / "train.txt"
    main(GEN_ARGS + ["--corruption", "0.2", "--test-fraction", "0.25",
                     "--out", str(train_path)])
    return train_path, root / "train.txt.test"


class TestTrain:
    def test_smoke_run_under_60s(self, dataset_files, tmp_path, capsys):
        train_path, test_path = dataset_files
        out = tmp_path / "run"
        started = time.monotonic()
        rc = main(["train", "--data", str(train_path), "--test-data",
                   str(test_path), "--out", str(out)] + TRAIN_SPEED_ARGS)
        assert rc == 0
        assert time.monotonic() - started < 60
        for name in ("metrics.csv", "checkpoint.json", "relabel_audit.csv",
                     "au_adjacency.csv", "au_adjacency_normalized.csv"):
            assert (out / name).exists()

    @pytest.fixture(scope="class")
    def csv_files(self, dataset_files, tmp_path_factory):
        """A train run's CSVs, ``eval --out``'s file and an ``ablate``
        table."""
        train_path, test_path = dataset_files
        root = tmp_path_factory.mktemp("csv")
        assert main(["train", "--data", str(train_path), "--out",
                     str(root / "run")] + TRAIN_SPEED_ARGS) == 0
        assert main(["eval", "--checkpoint", str(root / "run" /
                     "checkpoint.json"), "--data", str(test_path),
                     "--out", str(root / "eval.csv")]) == 0
        spec = root / "ablation.spec"
        spec.write_text(_tiny_spec_text("ablation", root / "ablate"))
        assert main(["ablate", "--spec", str(spec)]) == 0
        return root

    @pytest.mark.parametrize("name", [
        "run/metrics.csv", "run/relabel_audit.csv", "run/au_adjacency.csv",
        "run/au_adjacency_normalized.csv", "eval.csv", "ablate/ablation.csv"],
        ids=["metrics", "audit", "graph", "graph-normalized", "eval",
             "table"])
    def test_every_metrics_field_is_a_number(self, csv_files, name):
        lines = (csv_files / name).read_text().splitlines()
        # header lines and a table's label columns hold no numbers
        headers = set() if "au_adjacency" in name else {lines[0], "confusion"}
        labels = (lines[0].split(",").index("median_accuracy")
                  if name.startswith("ablate") else 0)
        rows = [line.split(",")[labels:] for line in lines
                if line not in headers]
        if name == "run/metrics.csv":
            column = lines[0].split(",").index("relabel_count")
            assert any(int(row[column]) for row in rows)
        assert rows
        for row in rows:
            for value in row:
                float(value)

    def test_train_without_training_flags_runs_the_protocol(
            self, dataset_files, tmp_path):
        train_path, test_path = dataset_files
        out = tmp_path / "run"
        assert main(["train", "--data", str(train_path), "--test-data",
                     str(test_path), "--out", str(out), "--epochs", "2"]) == 0
        assert load_checkpoint(out / "checkpoint.json").config == replace(
            experiments.load_spec(None).train, epochs=2)

    def test_zero_epochs_writes_the_initialization_checkpoint(
            self, dataset_files, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--data", str(dataset_files[0]), "--out",
                     str(out), "--epochs", "0"]) == 0
        assert ("no epochs trained; wrote initialization checkpoint\n"
                in capsys.readouterr().out)
        assert load_checkpoint(out / "checkpoint.json").epoch == 0

    def test_missing_dataset_is_file_error(self, tmp_path):
        rc = main(["train", "--data", str(tmp_path / "nope.txt"),
                   "--out", str(tmp_path / "run")])
        assert rc == 3

    def test_branch_flags_disable_components(self, dataset_files, tmp_path):
        train_path, _ = dataset_files
        out = tmp_path / "ablate_run"
        rc = main(["train", "--data", str(train_path), "--out", str(out),
                   "--no-aux"] + TRAIN_SPEED_ARGS)
        assert rc == 0
        audit = (out / "relabel_audit.csv").read_text().splitlines()
        assert len(audit) == 1   # header only, no corrections
        ckpt = load_checkpoint(out / "checkpoint.json")
        assert ckpt.config.use_aux_branch is False

    def test_rerun_is_checksum_identical(self, dataset_files, tmp_path):
        train_path, test_path = dataset_files
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["train", "--data", str(train_path), "--test-data",
                str(test_path)] + TRAIN_SPEED_ARGS
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        for name in ("metrics.csv", "relabel_audit.csv", "checkpoint.json",
                     "au_adjacency.csv"):
            assert sha(out_a / name) == sha(out_b / name), name

    def test_resume_matches_uninterrupted_metrics(self, dataset_files,
                                                  tmp_path):
        train_path, test_path = dataset_files
        full_out = tmp_path / "full"
        base = ["train", "--data", str(train_path), "--test-data",
                str(test_path), "--batch-size", "32", "--warmup-epochs", "2",
                "--ramp-pivot", "2", "--lr", "0.05", "--momentum", "0.8"]
        assert main(base + ["--epochs", "6", "--out", str(full_out)]) == 0

        half_out = tmp_path / "half"
        assert main(base + ["--epochs", "3", "--out", str(half_out)]) == 0
        resumed_out = tmp_path / "resumed"
        assert main(base + ["--epochs", "6", "--out", str(resumed_out),
                            "--resume", str(half_out / "checkpoint.json")]) == 0

        full_rows = (full_out / "metrics.csv").read_text().splitlines()
        resumed_rows = (resumed_out / "metrics.csv").read_text().splitlines()
        assert resumed_rows[0] == full_rows[0]
        assert resumed_rows[1:] == full_rows[4:]
        assert sha(full_out / "checkpoint.json") == \
            sha(resumed_out / "checkpoint.json")

    def test_resume_given_only_epochs_matches_uninterrupted_run(
            self, dataset_files, tmp_path):
        # the resume reads every other setting from the checkpoint
        train_path, _ = dataset_files
        base = ["train", "--data", str(train_path)] + TRAIN_SPEED_ARGS
        assert main(base + ["--out", str(tmp_path / "full")]) == 0
        assert main(base + ["--epochs", "2", "--out",
                            str(tmp_path / "half")]) == 0
        assert main(["train", "--data", str(train_path), "--out",
                     str(tmp_path / "resumed"), "--resume",
                     str(tmp_path / "half" / "checkpoint.json"),
                     "--epochs", "5"]) == 0
        assert (tmp_path / "resumed" / "checkpoint.json").read_bytes() == \
            (tmp_path / "full" / "checkpoint.json").read_bytes()

    @pytest.mark.parametrize("epochs", ["1", "2"])
    def test_resume_at_or_before_the_checkpoint_epoch(
            self, dataset_files, tmp_path, capsys, epochs):
        train_path, _ = dataset_files
        ckpt = tmp_path / "two" / "checkpoint.json"
        assert main(["train", "--data", str(train_path), "--out",
                     str(ckpt.parent)] + TRAIN_SPEED_ARGS
                    + ["--epochs", "2"]) == 0
        capsys.readouterr()
        out = tmp_path / "resumed"
        rc = main(["train", "--data", str(train_path), "--out", str(out),
                   "--resume", str(ckpt), "--epochs", epochs])
        if epochs == "1":
            _assert_error(rc, capsys, "checkpoint is at epoch 2, past the 1 "
                          "total epochs asked for", code=2)
            assert not out.exists()
        else:
            assert rc == 0
            assert ("no epochs trained; wrote the resumed epoch-2 checkpoint "
                    "again\n" in capsys.readouterr().out)
            assert (out / "checkpoint.json").read_bytes() == ckpt.read_bytes()

    def test_resume_frees_the_loaded_checkpoint_before_training(
            self, dataset_files, tmp_path, capsys, monkeypatch):
        train_path, _ = dataset_files
        ckpt = tmp_path / "two" / "checkpoint.json"
        assert main(["train", "--data", str(train_path), "--out",
                     str(ckpt.parent)] + TRAIN_SPEED_ARGS
                    + ["--epochs", "2"]) == 0
        refs, alive_at_steps = [], []

        def load(path):
            loaded = load_checkpoint(path)
            refs.append(weakref.ref(loaded.velocities["aux.gcn1_w"]))
            return loaded

        def step(*args):
            alive_at_steps.append(refs[0]() is not None)
            return real_step(*args)

        real_step = trainer._train_step
        monkeypatch.setattr(cli, "load_checkpoint", load)
        monkeypatch.setattr(trainer, "_train_step", step)
        assert main(["train", "--data", str(train_path), "--out",
                     str(tmp_path / "resumed"), "--resume", str(ckpt),
                     "--epochs", "3"]) == 0
        assert "trained 1 epochs" in capsys.readouterr().out
        assert alive_at_steps and not any(alive_at_steps)

    def test_eval_frees_the_loaded_checkpoint_before_evaluating(
            self, dataset_files, tmp_path, capsys, monkeypatch):
        train_path, test_path = dataset_files
        out = tmp_path / "run"
        assert main(["train", "--data", str(train_path), "--out", str(out)]
                    + TRAIN_SPEED_ARGS + ["--epochs", "1"]) == 0
        refs, alive = [], []

        def load(path):
            loaded = load_checkpoint(path)
            refs.append(weakref.ref(loaded.params["target.layer1_w"]))
            return loaded

        def evaluate(*args):
            alive.append(refs[0]() is not None)
            return real_evaluate(*args)

        real_evaluate = cli.evaluate
        monkeypatch.setattr(cli, "load_checkpoint", load)
        monkeypatch.setattr(cli, "evaluate", evaluate)
        assert main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                     "--data", str(test_path)]) == 0
        assert "accuracy " in capsys.readouterr().out
        assert alive == [False]


class TestEvalAndInspect:
    @pytest.fixture(scope="class")
    def run_dir(self, dataset_files, tmp_path_factory):
        train_path, test_path = dataset_files
        out = tmp_path_factory.mktemp("runs") / "run"
        main(["train", "--data", str(train_path), "--test-data",
              str(test_path), "--out", str(out)] + TRAIN_SPEED_ARGS)
        return out

    def test_eval_prints_accuracy(self, dataset_files, run_dir, capsys):
        _, test_path = dataset_files
        rc = main(["eval", "--checkpoint", str(run_dir / "checkpoint.json"),
                   "--data", str(test_path)])
        assert rc == 0
        assert "accuracy" in capsys.readouterr().out

    def test_eval_out_that_cannot_be_written_prints_no_report(
            self, dataset_files, run_dir, tmp_path, capsys):
        rc = main(["eval", "--checkpoint", str(run_dir / "checkpoint.json"),
                   "--data", str(dataset_files[1]), "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert rc == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_inspect_graph_prints_row_sums(self, run_dir, capsys):
        rc = main(["inspect", "graph",
                   str(run_dir / "au_adjacency_normalized.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sum 1.0" in out

    def test_inspect_checkpoint_lists_shapes(self, run_dir, capsys):
        rc = main(["inspect", "checkpoint",
                   str(run_dir / "checkpoint.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "target.layer1_w" in out and "epoch 5" in out

    def test_inspect_audit_counts_per_epoch(self, run_dir, capsys):
        rc = main(["inspect", "audit", str(run_dir / "relabel_audit.csv")])
        assert rc == 0
        assert "epoch,corrections" in capsys.readouterr().out

    def test_inspect_metrics_per_epoch_summary(self, run_dir, capsys):
        rc = main(["inspect", "metrics", str(run_dir / "metrics.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "epoch 1: accuracy" in out and "epoch 5:" in out

    def test_inspect_dataset_summary(self, dataset_files, capsys):
        train_path, _ = dataset_files
        rc = main(["inspect", "dataset", str(train_path)])
        assert rc == 0
        assert "label histogram" in capsys.readouterr().out

    def test_inspect_dataset_with_a_class_count_beyond_memory(
            self, dataset_files, tmp_path, capsys):
        # C fits an int64, so the file loads; no sample bears most classes
        lines = dataset_files[0].read_text().splitlines()
        lines[0] = f"C={10**14}"
        path = tmp_path / "ds.txt"
        path.write_text("\n".join(lines) + "\n")
        assert main(["inspect", "dataset", str(dataset_files[0])]) == 0
        histogram = capsys.readouterr().out.splitlines()[1]
        assert main(["inspect", "dataset", str(path)]) == 0
        captured = capsys.readouterr()
        assert f"classes={10**14}" in captured.out
        assert captured.out.splitlines()[1] == histogram
        assert captured.err == ""

    def test_inspect_missing_file_is_file_error(self, tmp_path):
        assert main(["inspect", "graph", str(tmp_path / "nope.csv")]) == 3

    @pytest.mark.parametrize("kind,name", [("audit", "relabel_audit.csv"),
                                           ("metrics", "metrics.csv")])
    def test_inspect_skips_blank_lines_between_csv_rows(
            self, run_dir, tmp_path, capsys, kind, name):
        header, *rows = (run_dir / name).read_text().splitlines()
        assert len(rows) >= 2
        spaced = tmp_path / name
        spaced.write_text(header + "\n" + "".join(f"\n{row}\n\n"
                                                  for row in rows))
        outs = []
        for path in (run_dir / name, spaced):
            assert main(["inspect", kind, str(path)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_double_dash_ends_the_options(self, dataset_files, tmp_path,
                                          monkeypatch, capsys):
        # "-1.txt" reads as a flag, so only "--" lets it name a file
        monkeypatch.chdir(tmp_path)
        Path("-1.txt").write_bytes(dataset_files[0].read_bytes())
        assert main(["inspect", "dataset", str(dataset_files[0])]) == 0
        want = capsys.readouterr().out
        assert main(["inspect", "dataset", "--", "-1.txt"]) == 0
        assert capsys.readouterr().out == want
        with pytest.raises(SystemExit) as exc:
            main(["inspect", "dataset", "-1.txt"])
        assert exc.value.code == 2


def _assert_error(rc, capsys, message, code=3):
    err = capsys.readouterr().err
    assert rc == code
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err and "Traceback" not in err


def _damaged(text, damage):
    if damage == "truncated":
        return text[:len(text) // 2]
    doc = json.loads(text)
    if damage == "missing_key":
        del doc["params"]
    elif damage == "missing_config_field":
        del doc["config"]["momentum"]
    elif damage == "v1":
        doc["format"] = "aurelab-checkpoint-v1"
    elif damage == "wrong_type":
        doc["observed_labels"] = "not a list"
    elif damage == "empty":
        doc = {}
    else:   # "<key>[.<key or list index>]=<JSON value>"
        path, _, value = damage.partition("=")
        *parents, last = path.split(".")
        owner = doc
        for key in parents:
            owner = owner[int(key) if isinstance(owner, list) else key]
        owner[int(last) if isinstance(owner, list) else last] = \
            json.loads(value)
    return json.dumps(doc)


def _checkpoint_argv(command, path, dataset_files, tmp_path):
    """The arguments of ``command`` (eval, inspect or resume) reading the
    checkpoint ``path``; a resumed run writes under ``tmp_path / "run"``."""
    train_path, test_path = dataset_files
    if command == "eval":
        return ["eval", "--checkpoint", str(path), "--data", str(test_path)]
    if command == "resume":
        return (["train", "--data", str(train_path), "--out",
                 str(tmp_path / "run"), "--resume", str(path)]
                + TRAIN_SPEED_ARGS)
    return ["inspect", "checkpoint", str(path)]


class TestBrokenInputs:
    """Malformed or mismatched files end in one error line and exit 3."""

    @pytest.fixture(scope="class")
    def runs(self, dataset_files, tmp_path_factory):
        train_path, _ = dataset_files
        root = tmp_path_factory.mktemp("broken")
        five = root / "five.txt"
        assert main(GEN_ARGS + ["--classes", "5", "--out", str(five)]) == 0
        for data_path, out in ((train_path, root / "three_run"),
                               (five, root / "five_run")):
            assert main(["train", "--data", str(data_path), "--out", str(out)]
                        + TRAIN_SPEED_ARGS + ["--epochs", "1"]) == 0
        return root

    @pytest.mark.parametrize("damage,message", [
        ("truncated", "not a JSON file"), ("missing_key", "'params'"),
        ("missing_config_field", "field 'config' is missing or malformed "
         "(no value for momentum)"),
        ("empty", "not an aurelab-checkpoint-v2 file"),
        ("v1", "v1 checkpoints are no longer read"),
        ("wrong_type", "'observed_labels'"),
        ("config.hidden_dim=64.5", "hidden_dim must be of type int"),
        ("config.seed=1.5", "seed must be of type int"),
        ("config.batch_size=true", "batch_size must be of type int"),
        ('config.use_aux_branch="no"', "use_aux_branch must be of type bool"),
        ("config.use_target_branch=1", "use_target_branch must be of type"),
        ('config.rank_margin="0.15"', "rank_margin must be of type float"),
        ("config.lr_drops=[[2.5, 0.001]]", "lr_drops must be of type int"),
        ("config.lr_drops=[[2, null]]", "lr_drops must be of type float"),
        ("epoch=-5", "epoch must be >= 0, got -5"),
        ("epoch=1.5", "epoch must be of type int"),
        ("observed_labels.0=1.5", "observed_labels must be of type int"),
        ("observed_labels.0=1180591620717411303424", "'observed_labels'"),
        ('templates.valid.0="no"', "valid must be of type bool"),
        ("templates.last_update_epoch.0=1.7",
         "last_update_epoch must be of type int"),
        ("templates.vectors.0.0=null", "vectors must be of type float, "
         "got None"),
        ("templates.vectors.1.0=true", "vectors must be of type float, "
         "got True"),
        ("templates.vectors.0.0=NaN", "vectors holds a non-finite value"),
        ("templates.vectors.0=[0.5]", "vectors must be a 2-dimensional list"),
        ("templates.valid=[[true]]", "valid must be a 1-dimensional list"),
        ("templates.valid.0=1", "valid must be of type bool, got 1"),
        ("dataset_hash=5", "dataset_hash must be of type str, got 5"),
        ("dataset_hash=null", "dataset_hash must be of type str")])
    @pytest.mark.parametrize("command", ["eval", "inspect", "resume"])
    def test_damaged_checkpoint(self, dataset_files, runs, tmp_path, capsys,
                                damage, message, command):
        text = (runs / "three_run" / "checkpoint.json").read_text()
        path = tmp_path / "checkpoint.json"
        path.write_text(_damaged(text, damage))
        _assert_error(main(_checkpoint_argv(command, path, dataset_files,
                                            tmp_path)), capsys, message)
        assert not (tmp_path / "run").exists()

    # parameter names hold dots, which the paths above cannot reach
    @pytest.mark.parametrize("store,name,row,leaf,message", [
        ("params", "target.classifier_w", 3, None,
         "target.classifier_w must be of type float, got None"),
        ("params", "target.classifier_w", 3, True,
         "target.classifier_w must be of type float, got True"),
        ("params", "target.classifier_w", 0, "0.5",
         "target.classifier_w must be of type float, got '0.5'"),
        ("params", "target.classifier_w", 3, math.nan,
         "target.classifier_w holds a non-finite value"),
        ("params", "target.classifier_w", 3, math.inf,
         "target.classifier_w holds a non-finite value"),
        ("params", "target.layer1_b", 0, -math.inf,
         "target.layer1_b holds a non-finite value"),
        ("velocities", "target.layer2_w", 5, math.nan,
         "target.layer2_w holds a non-finite value"),
        ("velocities", "aux.head_w", 2, [0.5],
         "aux.head_w must be of type float, got [0.5]")],
        ids=["null", "true", "string", "NaN", "Infinity", "-Infinity",
             "velocity-NaN", "velocity-list"])
    @pytest.mark.parametrize("command", ["eval", "inspect", "resume"])
    def test_damaged_checkpoint_array(self, dataset_files, runs, tmp_path,
                                      capsys, store, name, row, leaf,
                                      message, command):
        doc = json.loads((runs / "three_run" / "checkpoint.json").read_text())
        doc[store][name][row][-1] = leaf
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(doc))   # NaN and Infinity as JSON reads them
        _assert_error(main(_checkpoint_argv(command, path, dataset_files,
                                            tmp_path)), capsys,
                      f"{path}: field '{store}' is missing or malformed "
                      f"({message})")
        assert not (tmp_path / "run").exists()

    def test_resume_with_a_label_out_of_range(self, dataset_files, runs,
                                              tmp_path, capsys):
        text = (runs / "three_run" / "checkpoint.json").read_text()
        path = tmp_path / "checkpoint.json"
        path.write_text(_damaged(text, "observed_labels.0=99"))
        rc = main(["train", "--data", str(dataset_files[0]), "--out",
                   str(tmp_path / "run"), "--resume", str(path)]
                  + TRAIN_SPEED_ARGS)
        _assert_error(rc, capsys, f"checkpoint {path}, training set "
                                  f"{dataset_files[0]}: checkpoint labels do "
                                  f"not fit the dataset")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["eval", "resume"])
    def test_checkpoint_with_other_class_count(self, dataset_files, runs,
                                               tmp_path, capsys, command):
        train_path, test_path = dataset_files
        ckpt = str(runs / "five_run" / "checkpoint.json")
        if command == "eval":
            argv = ["eval", "--checkpoint", ckpt, "--data", str(test_path)]
            names = f"checkpoint {ckpt}, dataset {test_path}"
        else:
            argv = (["train", "--data", str(train_path), "--out",
                     str(tmp_path / "run"), "--resume", ckpt]
                    + TRAIN_SPEED_ARGS)
            names = f"checkpoint {ckpt}, training set {train_path}"
        _assert_error(main(argv), capsys,
                      f"{names}: checkpoint does not fit this dataset")

    @pytest.mark.parametrize("command", ["train", "resume", "eval"])
    def test_class_count_beyond_memory(self, dataset_files, runs, tmp_path,
                                       capsys, command):
        # the header loads (C fits an int64) but C-wide weights cannot exist
        train_path, _ = dataset_files
        lines = train_path.read_text().splitlines()
        lines[0] = f"C={10**14}"
        path = tmp_path / "ds.txt"
        path.write_text("\n".join(lines) + "\n")
        ckpt = str(runs / "three_run" / "checkpoint.json")
        if command == "eval":
            argv = ["eval", "--checkpoint", ckpt, "--data", str(path)]
        else:
            argv = (["train", "--data", str(path), "--out",
                     str(tmp_path / "run")] + TRAIN_SPEED_ARGS
                    + (["--resume", ckpt] if command == "resume" else []))
        _assert_error(main(argv), capsys,
                      f"a model for C={10**14}, M=6, D=8 is too large to "
                      f"allocate", code=2)
        assert not (tmp_path / "run").exists()

    def test_resume_on_other_dataset_of_same_size(self, dataset_files, runs,
                                                  tmp_path, capsys):
        train_path, _ = dataset_files
        other = tmp_path / "other.txt"
        assert main(GEN_ARGS[:-1] + ["6", "--corruption", "0.2",
                                     "--test-fraction", "0.25",
                                     "--out", str(other)]) == 0
        assert data.load(other).n == data.load(train_path).n
        capsys.readouterr()
        ckpt = runs / "three_run" / "checkpoint.json"
        rc = main(["train", "--data", str(other), "--out",
                   str(tmp_path / "run"), "--resume", str(ckpt)]
                  + TRAIN_SPEED_ARGS)
        _assert_error(rc, capsys, f"checkpoint {ckpt}, training set {other}: "
                                  f"checkpoint was trained on a different "
                                  f"dataset")
        assert not (tmp_path / "run").exists()

    def test_resume_with_flags_that_contradict_the_checkpoint(
            self, dataset_files, runs, tmp_path, capsys):
        rc = main(["train", "--data", str(dataset_files[0]), "--out",
                   str(tmp_path / "run"), "--resume",
                   str(runs / "three_run" / "checkpoint.json"),
                   "--epochs", "3", "--lr", "0.1", "--seed", "5"])
        _assert_error(rc, capsys, "only the total epoch count may change on "
                                  "resume: lr_initial: 0.05 in the checkpoint, "
                                  "0.1 given; seed: 0 in the checkpoint, 5 "
                                  "given\n", code=2)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("line,key,value", [
        (1, "C", -1), (2, "M", -1), (3, "D", -1), (4, "n", -1),
        (1, "C", 0), (2, "M", 0), (3, "D", 0), (4, "n", 0),
        (1, "C", 10**30), (2, "M", 10**30), (3, "D", 10**30),
        (4, "n", 10**30)],
        ids=["1-C", "2-M", "3-D", "4-n",
             "1-C-zero", "2-M-zero", "3-D-zero", "4-n-zero",
             "1-C-beyond-int64", "2-M-beyond-int64", "3-D-beyond-int64",
             "4-n-beyond-int64"])
    def test_negative_header_value(self, dataset_files, tmp_path, capsys,
                                   line, key, value):
        lines = dataset_files[0].read_text().splitlines()
        lines[line - 1] = f"{key}={value}"
        if key == "C":
            # an observed label below C that no int64 holds
            fields = lines[6].split(",")
            fields[1] = str(2**70)
            lines[6] = ",".join(fields)
        path = tmp_path / "ds.txt"
        path.write_text("\n".join(lines) + "\n")
        _assert_error(main(["inspect", "dataset", str(path)]), capsys,
                           f"line {line}: '{key}' must lie in [1, 2**63), "
                           f"got {value}")

    # each edit takes a dataset file's lines and returns the damaged ones
    @pytest.mark.parametrize("edit,message", [
        (lambda lines: lines[:3], "line 4: missing header line 'n='"),
        (lambda lines: ["X=3", *lines[1:]],
         "line 1: expected header key 'C', got 'X'"),
        (lambda lines: ["C=abc", *lines[1:]],
         "line 1: cannot parse value for 'C'"),
        (lambda lines: [*lines[:6], lines[6].rsplit(",", 1)[0] + ",nan",
                        *lines[7:]], "line 7: non-finite feature value")],
        ids=["short-header", "wrong-key", "value-not-parsing", "nan-feature"])
    def test_malformed_dataset(self, dataset_files, tmp_path, capsys, edit,
                               message):
        lines = dataset_files[0].read_text().splitlines()
        path = tmp_path / "ds.txt"
        path.write_text("\n".join(edit(lines)) + "\n")
        _assert_error(main(["inspect", "dataset", str(path)]), capsys,
                      message)

    # header values the body's rule refuses, or out of their range
    @pytest.mark.parametrize("line,text,message", [
        (4, "n=1_60", "cannot parse value for 'n': '1_60'"),
        (1, "C=\uff15", "cannot parse value for 'C': '\uff15'"),
        (3, "D=\u0668", "cannot parse value for 'D': '\u0668'"),
        (5, "corruption_rate=0_.2", "cannot parse value for "
         "'corruption_rate': '0_.2'"),
        (6, "seed=1_0", "cannot parse value for 'seed': '1_0'"),
        (5, "corruption_rate=nan", "'corruption_rate' must lie in [0, 1], "
         "got nan"),
        (5, "corruption_rate=inf", "'corruption_rate' must lie in [0, 1], "
         "got inf"),
        (5, "corruption_rate=1.5", "'corruption_rate' must lie in [0, 1], "
         "got 1.5"),
        (5, "corruption_rate=-0.1", "'corruption_rate' must lie in [0, 1], "
         "got -0.1"),
        (6, "seed=-4", "'seed' must lie in [0, inf), got -4")],
        ids=["underscore-n", "fullwidth-C", "arabic-indic-D",
             "underscore-rate", "underscore-seed", "nan-rate", "inf-rate",
             "rate-above-1", "negative-rate", "negative-seed"])
    @pytest.mark.parametrize("command", ["inspect dataset", "train"])
    def test_header_value_the_body_rule_refuses(
            self, dataset_files, tmp_path, capsys, line, text, message,
            command):
        lines = dataset_files[0].read_text().splitlines()
        lines[line - 1] = text
        path = tmp_path / "ds.txt"
        path.write_text("\n".join(lines) + "\n")
        argv = (["inspect", "dataset", str(path)] if command != "train" else
                ["train", "--data", str(path), "--out", str(tmp_path / "run")]
                + TRAIN_SPEED_ARGS)
        rc = main(argv)
        assert capsys.readouterr().err == \
            f"error: {path}, line {line}: {message}\n"
        assert rc == 3
        assert not (tmp_path / "run").exists()

    def test_header_values_at_their_bounds_load(self, dataset_files,
                                                tmp_path):
        lines = dataset_files[0].read_text().splitlines()
        path = tmp_path / "ds.txt"
        for rate, seed in (("1.0", "0"), ("0", str(2**70)), (" 0.5\t", "+7")):
            lines[4:6] = [f"corruption_rate={rate}", f"seed={seed}"]
            path.write_text("\n".join(lines) + "\n")
            ds = data.load(path)
            assert (ds.corruption_rate, ds.seed) == (float(rate), int(seed))

    # a fault in either dataset file names that file
    @pytest.mark.parametrize("flag", ["--data", "--test-data"])
    def test_dataset_fault_names_its_file(self, dataset_files, tmp_path,
                                          capsys, flag):
        train_path, test_path = dataset_files
        source = train_path if flag == "--data" else test_path
        lines = source.read_text().splitlines()
        fields = lines[8].split(",")
        fields[1] = "3"   # C=3
        lines[8] = ",".join(fields)
        bad = tmp_path / "bad.test"
        bad.write_text("\n".join(lines) + "\n")
        files = {"--data": train_path, "--test-data": test_path, flag: bad}
        rc = main(["train", "--data", str(files["--data"]), "--test-data",
                   str(files["--test-data"]), "--out", str(tmp_path / "run")]
                  + TRAIN_SPEED_ARGS)
        assert capsys.readouterr().err == \
            f"error: {bad}, line 9: label out of range\n"
        assert rc == 3
        assert not (tmp_path / "run").exists()

    def test_non_finite_feature_names_its_file_and_line(
            self, dataset_files, tmp_path, capsys):
        lines = dataset_files[0].read_text().splitlines()
        lines[6] = lines[6].rsplit(",", 1)[0] + ",inf"
        path = tmp_path / "ds.txt"
        path.write_text("\n".join(lines) + "\n")
        rc = main(["inspect", "dataset", str(path)])
        assert capsys.readouterr().err == \
            f"error: {path}, line 7: non-finite feature value\n"
        assert rc == 3

    # fields that int() and float() read but numpy does not
    @pytest.mark.parametrize("field,text", [
        (9, "1_0.5"), (3, "\u0661"), (1, str(10**19))],
        ids=["underscore-feature", "non-ASCII-bit", "20-digit-label"])
    @pytest.mark.parametrize("command", ["inspect dataset", "train"])
    def test_field_numpy_refuses(self, dataset_files, tmp_path, capsys,
                                 field, text, command):
        lines = dataset_files[0].read_text().splitlines()
        fields = lines[8].split(",")
        fields[field] = text
        lines[8] = ",".join(fields)
        path = tmp_path / "ds.txt"
        path.write_text("\n".join(lines) + "\n")
        argv = (["inspect", "dataset", str(path)] if command != "train" else
                ["train", "--data", str(path), "--out", str(tmp_path / "run")]
                + TRAIN_SPEED_ARGS)
        _assert_error(main(argv), capsys, "line 9: unparseable field")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command,source", [
        ("inspect dataset", "train.txt"), ("train --data", "train.txt"),
        ("train --test-data", "train.txt.test"),
        ("ablate --spec", "spec"), ("sweep --spec", "spec"),
        ("inspect graph", "three_run/au_adjacency.csv"),
        ("inspect audit", "three_run/relabel_audit.csv"),
        ("inspect metrics", "three_run/metrics.csv"),
        ("inspect checkpoint", "three_run/checkpoint.json"),
        ("eval --checkpoint", "three_run/checkpoint.json"),
        ("train --resume", "three_run/checkpoint.json")])
    def test_file_that_is_not_utf8(self, dataset_files, runs, tmp_path,
                                   capsys, command, source):
        if source == "spec":
            text = _tiny_spec_text("noise_sweep" if "sweep" in command
                                   else "ablation", tmp_path / "out")
        elif source.startswith("train"):
            text = (dataset_files[0].parent / source).read_text()
        else:
            text = (runs / source).read_text()
        path = tmp_path / "file"
        path.write_bytes(text[:1].encode() + b"\xff" + text[1:].encode())
        argv = command.split() + [str(path)]
        if command == "eval --checkpoint":
            argv += ["--data", str(dataset_files[1])]
        elif command.startswith("train"):
            if command != "train --data":
                argv += ["--data", str(dataset_files[0])]
            argv += ["--out", str(tmp_path / "run")]
        rc = main(argv)
        assert capsys.readouterr().err == \
            f"error: {path}: not UTF-8 text (byte 1)\n"
        assert rc == 3
        assert not (tmp_path / "run").exists()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["inspect dataset", "train --data",
                                         "train --test-data"])
    def test_dataset_byte_that_is_not_utf8_is_named_by_its_offset(
            self, dataset_files, tmp_path, capsys, command):
        raw = dataset_files[0].read_bytes()
        assert len(raw) > 9000
        path = tmp_path / "ds.txt"
        path.write_bytes(raw[:9000] + b"\xff" + raw[9000:])
        argv = command.split() + [str(path)]
        if command == "train --test-data":
            argv += ["--data", str(dataset_files[0])]
        if command.startswith("train"):
            argv += ["--out", str(tmp_path / "run")]
        rc = main(argv)
        assert capsys.readouterr().err == \
            f"error: {path}: not UTF-8 text (byte 9000)\n"
        assert rc == 3
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["eval", "inspect", "resume"])
    def test_checkpoint_nested_too_deeply(self, dataset_files, tmp_path,
                                          capsys, command):
        path = tmp_path / "checkpoint.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        rc = main(_checkpoint_argv(command, path, dataset_files, tmp_path))
        assert capsys.readouterr().err == \
            f"error: {path}: not a JSON file (nested too deeply)\n"
        assert rc == 3
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("line,key", [(2, "M"), (3, "D")])
    def test_header_size_beyond_memory_that_the_rows_contradict(
            self, dataset_files, tmp_path, capsys, line, key):
        lines = dataset_files[0].read_text().splitlines()[:7]
        lines[3] = "n=1"
        lines[line - 1] = f"{key}={10**12}"
        path = tmp_path / "ds.txt"
        path.write_text("\n".join(lines) + "\n")
        m, d = (10**12, 8) if key == "M" else (6, 10**12)
        _assert_error(main(["inspect", "dataset", str(path)]), capsys,
                      f"line 7: expected {3 + m + d} fields "
                      f"(3 + M={m} + D={d}), got 17")

    def test_row_count_beyond_memory_allocates_nothing(self, dataset_files,
                                                       tmp_path, capsys):
        lines = dataset_files[0].read_text().splitlines()[:7]
        lines[3] = f"n={10**14}"
        path = tmp_path / "ds.txt"
        path.write_text("\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            rc = main(["inspect", "dataset", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _assert_error(rc, capsys, f"line 8: header declares n={10**14} "
                                  f"samples but file has 1")
        assert peak < 1 << 20

    @pytest.mark.parametrize("flag,value,shape", [
        ("--dim", "6", "C=3 M=6 D=6"), ("--aus", "5", "C=3 M=5 D=8"),
        ("--classes", "2", "C=2 M=6 D=8"), ("--classes", "4", "C=4 M=6 D=8")],
        ids=["other_dim", "other_units", "fewer_classes", "more_classes"])
    def test_held_out_file_of_another_shape(self, dataset_files, tmp_path,
                                            capsys, flag, value, shape):
        gen = list(GEN_ARGS)
        gen[gen.index(flag) + 1] = value
        other = tmp_path / "other.txt"
        assert main(gen + ["--test-fraction", "0.25", "--out", str(other)]) == 0
        capsys.readouterr()
        rc = main(["train", "--data", str(dataset_files[0]), "--test-data",
                   f"{other}.test", "--out", str(tmp_path / "run")]
                  + TRAIN_SPEED_ARGS)
        _assert_error(rc, capsys, f"training set {dataset_files[0]}, "
                                  f"held-out set {other}.test: held-out set "
                                  f"has {shape} but the training set has "
                                  f"C=3 M=6 D=8")
        assert not (tmp_path / "run").exists()

    def test_checkpoint_path_is_a_directory(self, dataset_files, runs,
                                            capsys):
        rc = main(["eval", "--checkpoint", str(runs / "three_run"),
                   "--data", str(dataset_files[1])])
        _assert_error(rc, capsys, "Is a directory")

    # None damages line 3 of a written graph; a text replaces the file
    @pytest.mark.parametrize("text,message", [
        (None, "line 3: expected comma-separated numbers"),
        ("", "line 1: 0 rows of 0 values, expected a non-empty square "
         "matrix"),
        ("nan,inf\n", "line 1: expected finite numbers"),
        ("1,0,0\n0,1,0\n", "line 3: 2 rows of 3 values, expected a "
         "non-empty square matrix")],
        ids=["non-numeric", "empty", "non-finite", "not-square"])
    def test_graph_with_non_numeric_cell(self, runs, tmp_path, capsys, text,
                                         message):
        if text is None:
            lines = (runs / "three_run" / "au_adjacency.csv").read_text(
                ).splitlines()
            lines[2] = "a," + lines[2].split(",", 1)[1]
            text = "\n".join(lines) + "\n"
        path = tmp_path / "graph.csv"
        path.write_text(text)
        _assert_error(main(["inspect", "graph", str(path)]), capsys,
                      f"{path}, {message}")

    def test_graph_with_a_short_row(self, tmp_path, capsys):
        path = tmp_path / "graph.csv"
        path.write_text("0.5,0.5\n1\n")
        _assert_error(main(["inspect", "graph", str(path)]), capsys,
                      f"{path}, line 2: 1 values, expected 2")

    @pytest.mark.parametrize("out", ["file", "file/run"])
    def test_train_out_that_is_a_file_trains_nothing(
            self, dataset_files, tmp_path, capsys, monkeypatch, out):
        (tmp_path / "file").write_text("")

        def no_training(*args, **kwargs):
            raise AssertionError("train() called")

        monkeypatch.setattr(cli, "train", no_training)
        rc = main(["train", "--data", str(dataset_files[0]),
                   "--out", str(tmp_path / out)])
        _assert_error(rc, capsys, f"Not a directory: '{tmp_path / 'file'}'")

    def test_gen_out_that_is_a_directory(self, tmp_path, capsys):
        rc = main(GEN_ARGS + ["--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    @pytest.mark.parametrize("row,message", [
        ("x,1,1,2,0.5,0.25", "epoch 'x' is not an integer"),
        ("3,x,1,2,0.5,zz", "sample_id 'x' is not an integer"),
        ("3,1,1.5,2,0.5,0.25", "original '1.5' is not an integer"),
        ("3,1,1,,0.5,0.25", "corrected '' is not an integer"),
        ("3,1,1,2,zz,0.25", "dist_original 'zz' is not a number"),
        ("3,1,1,2,0.5,0.2.5", "dist_corrected '0.2.5' is not a number"),
        (f"3,{2**63},1,2,0.5,0.25",
         f"sample_id '{2**63}' does not fit in int64")])
    def test_audit_with_a_field_that_does_not_parse(self, tmp_path, capsys,
                                                    row, message):
        path = tmp_path / "audit.csv"
        path.write_text(f"{AUDIT_HEADER}\n3,0,1,2,0.5,0.25\n{row}\n")
        _assert_error(main(["inspect", "audit", str(path)]), capsys,
                      f"{path}, line 3: {message}")

    def test_audit_read_from_a_dataset_file(self, dataset_files, capsys):
        rc = main(["inspect", "audit", str(dataset_files[0])])
        _assert_error(rc, capsys, "line 1: expected the audit header")

    def test_metrics_read_from_a_dataset_file(self, dataset_files, capsys):
        rc = main(["inspect", "metrics", str(dataset_files[0])])
        _assert_error(rc, capsys, "line 1: expected a metrics header")

    def test_metrics_with_a_short_row(self, runs, tmp_path, capsys):
        lines = (runs / "three_run" / "metrics.csv").read_text().splitlines()
        width = len(lines[0].split(","))
        lines[1] = lines[1].rsplit(",", 1)[0]
        path = tmp_path / "metrics.csv"
        path.write_text("\n".join(lines) + "\n")
        _assert_error(main(["inspect", "metrics", str(path)]), capsys,
                           f"{path}, line 2: {width - 1} fields, "
                           f"expected {width}")

    def test_metrics_from_an_empty_file(self, tmp_path, capsys):
        path = tmp_path / "metrics.csv"
        path.write_text("")
        _assert_error(main(["inspect", "metrics", str(path)]), capsys,
                           f"{path}, line 1: expected a metrics header")


class TestBrokenSpecs:
    """A spec or spec flag that does not parse, a negative seed, or a spec
    that names another command's table, ends in one error line that names
    the value, and exit 2."""

    @pytest.mark.parametrize("section,key,value,expected", [
        ("experiment", "seeds", "a", "comma-separated integers"),
        ("experiment", "seeds", "1%", "comma-separated integers"),
        ("experiment", "rates", "0.2,x", "comma-separated numbers"),
        ("train", "epochs", "1.5", "an integer"),
        ("dataset", "class_spread", "wide", "a number"),
        ("train", "use_aux_branch", "maybe", "true or false"),
        ("train", "lr_drops", "10", "'epoch:rate,epoch:rate'")])
    @pytest.mark.parametrize("command", ["ablate", "sweep"])
    def test_value_that_does_not_parse(self, tmp_path, capsys, command,
                                       section, key, value, expected):
        path = tmp_path / "bad.spec"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        rc = main([command, "--spec", str(path), "--out", str(tmp_path)])
        _assert_error(rc, capsys, f"[{section}] {key} = '{value}': "
                      f"expected {expected}", code=2)

    # every spec flag: the spec key it sets and the commands that have it
    SPEC_FLAGS = {"--seeds": ("[experiment] seeds", ("ablate", "sweep")),
                  "--rates": ("[experiment] rates", ("sweep",)),
                  "--rate": ("[experiment] rate", ("ablate",)),
                  "--epochs": ("[train] epochs", ("ablate", "sweep")),
                  "--size": ("[dataset] n", ("ablate", "sweep", "gen"))}

    @pytest.mark.parametrize("flag,value", [
        ("--seeds", "0,a"), ("--rates", "x"), ("--rate", "x"),
        ("--epochs", "1.5"), ("--size", "a")])
    def test_list_flag_that_does_not_parse(self, tmp_path, capsys, flag,
                                           value):
        key, commands = self.SPEC_FLAGS[flag]
        for command in commands:
            rc = main([command, flag, value, "--out", str(tmp_path)])
            _assert_error(rc, capsys, f"{key} = '{value}': expected", code=2)

    @pytest.mark.parametrize("flag,value,key,expected", [
        ("--epochs", "1.5", "epochs", "an integer"),
        ("--batch-size", "a", "batch_size", "an integer"),
        ("--lr", "x", "lr_initial", "a number"),
        ("--high-fraction", "y", "high_fraction", "a number"),
        ("--seed", "1.5", "seed", "an integer")])
    def test_train_flag_that_does_not_parse(self, dataset_files, tmp_path,
                                            capsys, flag, value, key,
                                            expected):
        rc = main(["train", "--data", str(dataset_files[0]),
                   "--out", str(tmp_path / "run"), flag, value])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: [train] {key} = '{value}': expected {expected}\n")
        assert not (tmp_path / "run").exists()

    def test_train_flag_out_of_range(self, dataset_files, tmp_path, capsys):
        rc = main(["train", "--data", str(dataset_files[0]),
                   "--out", str(tmp_path / "run"), "--warmup-epochs", "-1"])
        _assert_error(rc, capsys, "warmup_epochs must be >= 0", code=2)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command,flag,table", [
        ("sweep", "--spec", "ablation"), ("ablate", "--spec", "noise_sweep"),
        ("ablate", "--name", "noise_sweep"), ("ablate", "--name", "single_run")])
    def test_table_of_another_command(self, tmp_path, capsys, command, flag,
                                      table):
        value = table
        if flag == "--spec":
            value = tmp_path / "other.spec"
            value.write_text(_tiny_spec_text(table, tmp_path / "out"))
        rc = main([command, flag, str(value), "--out", str(tmp_path / "out")])
        expected = "noise_sweep" if command == "sweep" else "ablation or edges"
        _assert_error(rc, capsys, f"[experiment] name = '{table}': expected "
                      f"{expected}", code=2)
        assert not (tmp_path / "out").exists()

    def test_sweep_has_no_name_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--name", "edges"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --name edges" in capsys.readouterr().err

    def test_learning_rate_drop_that_ascends(self, tmp_path, capsys):
        path = tmp_path / "bad.spec"
        path.write_text("[train]\nlr_drops = 3:-0.05\n")
        rc = main(["ablate", "--spec", str(path), "--out", str(tmp_path)])
        _assert_error(rc, capsys, "lr_drops rate at epoch 3 must be finite "
                      "and > 0, got -0.05", code=2)

    # each edit replaces a text of the tiny spec
    @pytest.mark.parametrize("command,flags,edit,message", [
        ("sweep", ["--rates", "0.2,1.5"], (),
         "corruption rate must lie in [0, 1), got 1.5"),
        ("ablate", ["--epochs", "0"], (),
         "an experiment cell needs at least one epoch, got 0"),
        ("ablate", ["--rate", "1.5"], (),
         "corruption rate must lie in [0, 1), got 1.5"),
        ("ablate", [], ("[dataset]\n", "[dataset]\nclass_spread = 0.5\n"),
         "need a finite class_spread > within_noise > 0, got spread=0.5"),
        ("ablate", [], ("n_classes = 3", "n_classes = 1"),
         "need at least 2 classes, got 1"),
        ("ablate", [], ("n_units = 6", "n_units = 3"),
         "need at least 4 action units, got 3"),
        ("sweep", [], ("test_fraction = 0.25", "test_fraction = 0"),
         "test_fraction must lie in (0, 1), got 0.0"),
        ("ablate", [], ("n_classes = 3\nn_units = 6",
                        "n_classes = 5\nn_units = 60"),
         "no table of 5 unit patterns over 60 units found within 250000 "
         "search steps"),
        ("ablate", ["--seeds", "1,1,2"], (),
         "seeds must not repeat, got [1, 1, 2]"),
        ("sweep", ["--rates", "0.2,0.2"], (),
         "rates must not repeat, got [0.2, 0.2]")],
        ids=["sweep-rates", "ablate-epochs", "ablate-rate", "spec-spread",
             "spec-classes", "spec-units", "spec-no-held-out",
             "spec-table-search", "repeated-seed", "repeated-rate"])
    def test_spec_out_of_range_trains_nothing(self, tmp_path, capsys,
                                              monkeypatch, command, flags,
                                              edit, message):
        name = "noise_sweep" if command == "sweep" else "ablation"
        spec = tmp_path / "bad.spec"
        text = _tiny_spec_text(name, tmp_path / "out")
        spec.write_text(text.replace(*edit) if edit else text)
        calls = []
        real_run_cell = experiments.run_cell

        def counting_run_cell(*args):
            calls.append(args)
            return real_run_cell(*args)

        monkeypatch.setattr(experiments, "run_cell", counting_run_cell)
        experiments.clear_cell_memo()
        rc = main([command, "--spec", str(spec)] + flags)
        _assert_error(rc, capsys, message, code=2)
        assert not (tmp_path / "out").exists()
        assert calls == []

    def test_dataset_too_large_to_allocate(self, tmp_path, capsys):
        spec = tmp_path / "big.spec"
        spec.write_text(_tiny_spec_text("ablation", tmp_path / "out").replace(
            "n = 160", f"n = {10**14}"))
        _assert_error(main(["ablate", "--spec", str(spec)]), capsys,
                      "Unable to allocate", code=2)

    def test_negative_seed(self, tmp_path, capsys):
        rc = main(["ablate", "--seeds=2,-1", "--out", str(tmp_path)])
        _assert_error(rc, capsys, "seeds must be >= 0, got -1", code=2)

    @pytest.mark.parametrize("text,message", [
        ("[experiment]\nseeds = 0\nseeds = 1\n", "already exists"),
        ("seeds = 0\n", "no section headers"),
        ("[experiment]\nseeds 0\n", "parsing errors"),
        ("[foo]\nseeds = 0\n", "unknown spec sections: ['foo']")])
    def test_spec_that_is_not_ini(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.spec"
        path.write_text(text)
        rc = main(["ablate", "--spec", str(path), "--out", str(tmp_path)])
        _assert_error(rc, capsys, message, code=2)


# a value other than the default for every key of every spec section
EVERY_KEY_SPEC = experiments.ExperimentSpec(
    name="edges", seeds=(7, 0, 11), rates=(0.05, 0.45), rate=0.35,
    out="runs/every key 100%",
    dataset=experiments.DatasetSpec(
        n_classes=4, n_units=9, dim=12, n=777, class_spread=3.25,
        within_noise=0.75, au_noise=0.125, test_fraction=0.3),
    train=TrainConfig(
        high_fraction=0.65, rank_margin=0.2, ramp_pivot=7, epochs=9,
        batch_size=33, lr_initial=0.07, lr_drops=(), lr_aux=0.02,
        lr_aux_decay=0.9, momentum=0.5, warmup_epochs=4, seed=13,
        hidden_dim=24, feat_dim=20, node_dim=6, gcn_channels=10,
        leaky_slope=0.2, use_target_branch=False, use_aux_branch=False,
        random_edges=True))


class TestExperimentSpecs:
    def test_spec_round_trip(self, tmp_path):
        from aurelab.experiments import ExperimentSpec, load_spec, save_spec
        default = ExperimentSpec()
        for part, part_default in ((EVERY_KEY_SPEC, default),
                                   (EVERY_KEY_SPEC.dataset, default.dataset),
                                   (EVERY_KEY_SPEC.train, default.train)):
            for f in fields(part):
                assert (getattr(part, f.name)
                        != getattr(part_default, f.name)), f.name
        few_keys = ExperimentSpec(name="noise_sweep", seeds=(1, 2),
                                  rates=(0.1, 0.3), out="runs/x")
        for spec in (few_keys, EVERY_KEY_SPEC):
            path = tmp_path / "spec.ini"
            save_spec(spec, path)
            assert load_spec(path) == spec

    def test_unknown_key_rejected(self, tmp_path):
        from aurelab.errors import ConfigError
        from aurelab.experiments import load_spec
        path = tmp_path / "spec.ini"
        path.write_text("[train]\nbogus_key = 3\n")
        with pytest.raises(ConfigError):
            load_spec(path)

    def test_missing_spec_file(self):
        from aurelab.experiments import load_spec
        with pytest.raises(FileNotFoundError):
            load_spec("/does/not/exist.ini")


def _tiny_spec_text(name, out, seeds="0,1", rates="0.2"):
    return f"""
[experiment]
name = {name}
seeds = {seeds}
rate = 0.2
rates = {rates}
out = {out}

[dataset]
n_classes = 3
n_units = 6
dim = 8
n = 160
test_fraction = 0.25

[train]
epochs = 3
batch_size = 32
warmup_epochs = 1
ramp_pivot = 2
"""


class TestAblateAndSweep:
    def test_ablate_writes_four_row_table(self, tmp_path, capsys):
        spec_path = tmp_path / "ab.ini"
        spec_path.write_text(_tiny_spec_text("ablation", tmp_path / "out"))
        assert main(["ablate", "--spec", str(spec_path)]) == 0
        table = (tmp_path / "out" / "ablation.csv").read_text().splitlines()
        assert table[0].startswith("target_branch,aux_branch,median_accuracy")
        assert len(table) == 5
        grid = [tuple(r.split(",")[:2]) for r in table[1:]]
        assert grid == [("0", "0"), ("1", "0"), ("0", "1"), ("1", "1")]

    def test_edges_writes_two_row_table(self, tmp_path):
        spec_path = tmp_path / "ed.ini"
        spec_path.write_text(_tiny_spec_text("edges", tmp_path / "out"))
        assert main(["ablate", "--spec", str(spec_path)]) == 0
        table = (tmp_path / "out" / "edges.csv").read_text().splitlines()
        assert len(table) == 3
        assert table[1].startswith("random,")
        assert table[2].startswith("data_driven,")

    def test_sweep_writes_method_by_rate_table(self, tmp_path):
        spec_path = tmp_path / "sw.ini"
        spec_path.write_text(_tiny_spec_text("noise_sweep", tmp_path / "out"))
        assert main(["sweep", "--spec", str(spec_path),
                     "--rates", "0.1,0.2"]) == 0
        table = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert len(table) == 5   # 2 methods x 2 rates
        methods = [r.split(",")[0] for r in table[1:]]
        assert methods == ["baseline", "full", "baseline", "full"]

    def test_flag_overrides_the_spec_key(self, tmp_path):
        spec_path = tmp_path / "ab.ini"
        spec_path.write_text(_tiny_spec_text("ablation", tmp_path / "out"))
        assert main(["ablate", "--spec", str(spec_path), "--seeds", "1",
                     "--name", "edges", "--out", str(tmp_path / "flag")]) == 0
        assert not (tmp_path / "out").exists()
        table = (tmp_path / "flag" / "edges.csv").read_text().splitlines()
        assert table[0].endswith(",median_accuracy,accuracy_s1")
        resolved = (tmp_path / "flag" / "spec.resolved").read_text()
        assert "name = edges\nseeds = 1\n" in resolved
        assert "epochs = 3\n" in resolved

    def test_sweep_rerun_checksum_identical(self, tmp_path):
        spec_path = tmp_path / "sw.ini"
        spec_path.write_text(_tiny_spec_text("noise_sweep", tmp_path / "out"))
        args = ["sweep", "--spec", str(spec_path), "--rates", "0.2"]
        # each run trains its cells afresh instead of reading the memo
        experiments.clear_cell_memo()
        assert main(args) == 0
        first = sha(tmp_path / "out" / "sweep.csv")
        experiments.clear_cell_memo()
        assert main(args) == 0
        assert sha(tmp_path / "out" / "sweep.csv") == first


def test_ablate_without_epochs_is_usage_error(tmp_path, capsys):
    spec_path = tmp_path / "ab.ini"
    spec_path.write_text(_tiny_spec_text("ablation", tmp_path / "out"))
    rc = main(["ablate", "--spec", str(spec_path), "--epochs", "0"])
    _assert_error(rc, capsys, "an experiment cell needs at least one epoch",
                  code=2)
    assert not (tmp_path / "out" / "ablation.csv").exists()


def test_ablate_spec_with_no_node_dim_makes_no_directory(tmp_path, capsys):
    spec_path = tmp_path / "ab.ini"
    spec_path.write_text(_tiny_spec_text("ablation", tmp_path / "out")
                         + "node_dim = 0\n")
    rc = main(["ablate", "--spec", str(spec_path)])
    _assert_error(rc, capsys, "node_dim must be >= 1", code=2)
    assert not (tmp_path / "out").exists()


class TestCellMemo:
    """ablate, ablate --spec edges and sweep in one process share cells:
    the sweep's 20% baseline is the ablation's "neither", and both the
    edges' "data_driven" and the sweep's 20% "full" are its "both"."""

    TABLES = (("ablate", "ablation", "ablation.csv"),
              ("ablate", "edges", "edges.csv"),
              ("sweep", "noise_sweep", "sweep.csv"))

    def _run_tables(self, root, clear_between):
        tables = {}
        root.mkdir()
        for command, name, table in self.TABLES:
            spec_path = root / f"{name}.ini"
            spec_path.write_text(_tiny_spec_text(
                name, root / name, seeds="0,1,2", rates="0.2,0.3"))
            if clear_between:
                experiments.clear_cell_memo()
            assert main([command, "--spec", str(spec_path)]) == 0
            tables[table] = (root / name / table).read_bytes()
        return tables

    def test_each_distinct_cell_trains_once(self, tmp_path, monkeypatch):
        calls = []
        real_run_cell = experiments.run_cell

        def counting_run_cell(*args):
            calls.append(args)
            return real_run_cell(*args)

        monkeypatch.setattr(experiments, "run_cell", counting_run_cell)
        experiments.clear_cell_memo()
        self._run_tables(tmp_path / "run", clear_between=False)
        # 12 ablation + 6 edges + 12 sweep cells; 9 of them repeat
        assert len(calls) == 21
        assert len(set(calls)) == 21

    def test_tables_match_runs_that_train_every_cell(self, tmp_path):
        experiments.clear_cell_memo()
        shared = self._run_tables(tmp_path / "shared", clear_between=False)
        fresh = self._run_tables(tmp_path / "fresh", clear_between=True)
        assert shared == fresh


def run_aurelab(*argv, cwd, env=()) -> subprocess.CompletedProcess:
    """``python -m aurelab argv`` in a fresh interpreter, with the variables
    ``env`` laid over this one's environment: what a user sees."""
    src = Path(aurelab.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-m", "aurelab", *argv], cwd=cwd,
                          env={**os.environ, **dict(env),
                               "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=300)


# the C locale, whose text encoding is ASCII, without Python's UTF-8 mode
C_LOCALE = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}


class TestLocale:
    """Files are written and read as UTF-8 whatever the locale."""

    def test_spec_under_a_non_ascii_path_reads_back(self, tmp_path):
        out = tmp_path / "out\u00e9"
        proc = run_aurelab("ablate", "--out", str(out), "--epochs", "1",
                           "--seeds", "0", "--size", "100", cwd=tmp_path,
                           env=C_LOCALE)
        assert proc.returncode == 0, proc.stderr
        assert experiments.load_spec(out / "spec.resolved").out == str(out)

    def test_utf8_spec_loads(self, tmp_path):
        spec = tmp_path / "spec.ini"
        spec.write_bytes(("# r\u00e9glage\n" + _tiny_spec_text(
            "ablation", "out", seeds="0")).encode())
        proc = run_aurelab("ablate", "--spec", str(spec), "--epochs", "1",
                           cwd=tmp_path, env=C_LOCALE)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "ablation.csv").exists()

    @pytest.mark.parametrize("command,name", [("ablate", "ablation"),
                                              ("sweep", "noise_sweep")])
    def test_spec_out_names_the_path_the_flag_does(self, tmp_path, command,
                                                   name):
        spec = tmp_path / "spec.ini"
        spec.write_bytes(_tiny_spec_text(name, "out\u00e9", seeds="0",
                                         rates="0.2").encode())
        proc = run_aurelab(command, "--spec", str(spec), "--epochs", "1",
                           "--size", "100", cwd=tmp_path, env=C_LOCALE)
        assert proc.returncode == 0, proc.stderr
        out = tmp_path / "out\u00e9"   # the path ``--out out\u00e9`` names
        assert (out / experiments.TABLE_FILES[name]).exists()
        assert experiments.load_spec(out / "spec.resolved").out == "out\u00e9"


class TestStderr:
    """Every warning a command raises is one ``warning:`` line on stderr,
    as every error is one ``error:`` line."""

    def test_warning_is_one_line(self, tmp_path):
        # 225 samples at batch 32 end every epoch in a one-sample batch
        gen = list(GEN_ARGS)
        gen[gen.index("--size") + 1] = "225"
        assert main(gen + ["--out", str(tmp_path / "ds.txt")]) == 0
        proc = run_aurelab("train", "--data", "ds.txt", "--out", "run",
                           "--epochs", "2", "--batch-size", "32",
                           cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ("warning: rank regularization skipped: batch "
                               "has fewer than 2 samples\n")

    def test_divergence_is_exit_4_after_warning_lines(self, tmp_path):
        # features near 1e150 overflow the first matmuls of training
        assert main(["gen", "--spread", "1e150", "--size", "200", "--out",
                     str(tmp_path / "ds.txt")]) == 0
        proc = run_aurelab("train", "--data", "ds.txt", "--out", "run",
                           "--epochs", "2", cwd=tmp_path)
        assert proc.returncode == 4, proc.stderr
        lines = proc.stderr.splitlines()
        errors = [line for line in lines if line.startswith("error: ")]
        assert errors == [line for line in lines
                          if not line.startswith("warning: ")], lines
        assert len(errors) == 1 and "non-finite loss" in errors[0]
        assert "Traceback" not in proc.stderr


# The exit code of each error type, as the CLI's docstring gives it.
# ShapeError, a fault of the calling code, never reaches the command line.
DOCUMENTED_EXIT_CODES = {"ConfigError": 2, "InputError": 3,
                         "TrainingDivergedError": 4}
ERROR_TYPES = sorted(
    name for name, obj in vars(errors).items() if isinstance(obj, type)
    and issubclass(obj, Exception) and obj.__module__ == errors.__name__)


def test_errors_defines_one_type_per_exit_code():
    assert ERROR_TYPES == sorted([*DOCUMENTED_EXIT_CODES, "ShapeError"])


@pytest.mark.parametrize(
    "name", [name for name in ERROR_TYPES if name != "ShapeError"])
def test_every_error_type_exits_with_its_documented_code(monkeypatch,
                                                         capsys, name):
    def failing_command(args):
        raise getattr(errors, name)("stub failure")

    monkeypatch.setattr(cli, "cmd_inspect", failing_command)
    rc = main(["inspect", "dataset", "unused.txt"])
    assert capsys.readouterr().err == "error: stub failure\n"
    assert rc == DOCUMENTED_EXIT_CODES[name]
