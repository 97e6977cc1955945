import hashlib
import json
import time

import numpy as np
import pytest

from aurelab import data, experiments
from aurelab.cli import main
from aurelab.trainer import load_checkpoint


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

    def test_every_metrics_field_is_a_number(self, dataset_files, tmp_path):
        train_path, _ = dataset_files
        out = tmp_path / "run"
        assert main(["train", "--data", str(train_path), "--out", str(out)]
                    + TRAIN_SPEED_ARGS) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(",")))
                for line in lines[1:]]
        assert any(int(row["relabel_count"]) for row in rows)
        for row in rows:
            for value in row.values():
                float(value)

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

    def test_inspect_missing_file_is_file_error(self, tmp_path):
        assert main(["inspect", "graph", str(tmp_path / "nope.csv")]) == 3


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
    elif damage == "v1":
        doc["format"] = "aurelab-checkpoint-v1"
    elif damage == "wrong_type":
        doc["observed_labels"] = "not a list"
    else:   # "<key>[.<key or list index>]=<JSON value>"
        path, _, value = damage.partition("=")
        *parents, last = path.split(".")
        owner = doc
        for key in parents:
            owner = owner[key]
        owner[int(last) if isinstance(owner, list) else last] = \
            json.loads(value)
    return json.dumps(doc)


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
         "last_update_epoch must be of type int")])
    @pytest.mark.parametrize("command", ["eval", "inspect", "resume"])
    def test_damaged_checkpoint(self, dataset_files, runs, tmp_path, capsys,
                                damage, message, command):
        text = (runs / "three_run" / "checkpoint.json").read_text()
        path = tmp_path / "checkpoint.json"
        path.write_text(_damaged(text, damage))
        train_path, test_path = dataset_files
        if command == "eval":
            argv = ["eval", "--checkpoint", str(path), "--data", str(test_path)]
        elif command == "resume":
            argv = (["train", "--data", str(train_path), "--out",
                     str(tmp_path / "run"), "--resume", str(path)]
                    + TRAIN_SPEED_ARGS)
        else:
            argv = ["inspect", "checkpoint", str(path)]
        _assert_error(main(argv), capsys, message)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["eval", "resume"])
    def test_checkpoint_with_other_class_count(self, dataset_files, runs,
                                               tmp_path, capsys, command):
        train_path, test_path = dataset_files
        ckpt = str(runs / "five_run" / "checkpoint.json")
        if command == "eval":
            argv = ["eval", "--checkpoint", ckpt, "--data", str(test_path)]
        else:
            argv = (["train", "--data", str(train_path), "--out",
                     str(tmp_path / "run"), "--resume", ckpt]
                    + TRAIN_SPEED_ARGS)
        _assert_error(main(argv), capsys, "does not fit this dataset")

    def test_resume_on_other_dataset_of_same_size(self, dataset_files, runs,
                                                  tmp_path, capsys):
        train_path, _ = dataset_files
        other = tmp_path / "other.txt"
        assert main(GEN_ARGS[:-1] + ["6", "--corruption", "0.2",
                                     "--test-fraction", "0.25",
                                     "--out", str(other)]) == 0
        assert data.load(other).n == data.load(train_path).n
        capsys.readouterr()
        rc = main(["train", "--data", str(other), "--out",
                   str(tmp_path / "run"), "--resume",
                   str(runs / "three_run" / "checkpoint.json")]
                  + TRAIN_SPEED_ARGS)
        _assert_error(rc, capsys, "different dataset")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("line,key,value", [
        (1, "C", -1), (2, "M", -1), (3, "D", -1), (4, "n", -1),
        (1, "C", 0), (2, "M", 0), (3, "D", 0), (4, "n", 0)],
        ids=["1-C", "2-M", "3-D", "4-n",
             "1-C-zero", "2-M-zero", "3-D-zero", "4-n-zero"])
    def test_negative_header_value(self, dataset_files, tmp_path, capsys,
                                   line, key, value):
        lines = dataset_files[0].read_text().splitlines()
        lines[line - 1] = f"{key}={value}"
        path = tmp_path / "ds.txt"
        path.write_text("\n".join(lines) + "\n")
        _assert_error(main(["inspect", "dataset", str(path)]), capsys,
                           f"line {line}: '{key}' must be >= 1, got {value}")

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
        _assert_error(rc, capsys, f"held-out set has {shape} but the "
                                  f"training set has C=3 M=6 D=8")
        assert not (tmp_path / "run").exists()

    def test_checkpoint_path_is_a_directory(self, dataset_files, runs,
                                            capsys):
        rc = main(["eval", "--checkpoint", str(runs / "three_run"),
                   "--data", str(dataset_files[1])])
        _assert_error(rc, capsys, "Is a directory")

    def test_graph_with_non_numeric_cell(self, runs, tmp_path, capsys):
        lines = (runs / "three_run" / "au_adjacency.csv").read_text().splitlines()
        lines[2] = "a," + lines[2].split(",", 1)[1]
        path = tmp_path / "graph.csv"
        path.write_text("\n".join(lines) + "\n")
        _assert_error(main(["inspect", "graph", str(path)]), capsys,
                           f"{path}, line 3: expected comma-separated numbers")

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
    """A spec or list flag that does not parse, or a negative seed, ends
    in one error line that names the value, and exit 2."""

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

    @pytest.mark.parametrize("flag,value", [("--seeds", "0,a"),
                                            ("--rates", "x")])
    def test_list_flag_that_does_not_parse(self, tmp_path, capsys, flag,
                                           value):
        rc = main(["sweep", flag, value, "--out", str(tmp_path)])
        _assert_error(rc, capsys, f"= '{value}': expected", code=2)

    def test_learning_rate_drop_that_ascends(self, tmp_path, capsys):
        path = tmp_path / "bad.spec"
        path.write_text("[train]\nlr_drops = 3:-0.05\n")
        rc = main(["ablate", "--spec", str(path), "--out", str(tmp_path)])
        _assert_error(rc, capsys, "lr_drops rate at epoch 3 must be finite "
                      "and > 0, got -0.05", code=2)

    def test_negative_seed(self, tmp_path, capsys):
        rc = main(["ablate", "--seeds=2,-1", "--out", str(tmp_path)])
        _assert_error(rc, capsys, "seeds must be >= 0, got -1", code=2)

    @pytest.mark.parametrize("text,message", [
        ("[experiment]\nseeds = 0\nseeds = 1\n", "already exists"),
        ("seeds = 0\n", "no section headers"),
        ("[experiment]\nseeds 0\n", "parsing errors")])
    def test_spec_that_is_not_ini(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.spec"
        path.write_text(text)
        rc = main(["ablate", "--spec", str(path), "--out", str(tmp_path)])
        _assert_error(rc, capsys, message, code=2)


class TestExperimentSpecs:
    def test_spec_round_trip(self, tmp_path):
        from aurelab.experiments import ExperimentSpec, load_spec, save_spec
        spec = ExperimentSpec(name="noise_sweep", seeds=(1, 2),
                              rates=(0.1, 0.3), out_dir="runs/x")
        path = tmp_path / "spec.ini"
        save_spec(spec, path)
        back = load_spec(path)
        assert back.name == "noise_sweep"
        assert back.seeds == (1, 2)
        assert back.rates == (0.1, 0.3)
        assert back.train == spec.train
        assert back.dataset == spec.dataset

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
