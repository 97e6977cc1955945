"""The summary arithmetic and the run handling of scripts/bench_pairs.py;
no benchmark is run: the trees compared are fakes whose ``perfbench/run.py``
prints a fixed result."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

LOWER = {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
         "bound": 0.15}
HIGHER = {"name": "heldout_accuracy", "unit": "fraction", "better": "higher",
          "bound": 0.2}


def test_quartiles_and_medians_of_both_sides():
    # exclusive method: positions (n + 1) * j / 4 of the sorted values
    s = bench_pairs.summarize(LOWER, [4.0, 1.0, 3.0, 2.0], [1.0, 2.0, 3.0, 4.0])
    assert s["parent"] == s["change"] == (1.25, 2.5, 3.75)
    s = bench_pairs.summarize(LOWER, list(range(1, 11)), list(range(10, 0, -1)))
    assert s["parent"] == s["change"] == (2.75, 5.5, 8.25)


def test_ties_count_for_neither_side():
    s = bench_pairs.summarize(LOWER, [63.0, 63.0, 63.0, 63.0],
                              [62.0, 63.0, 64.0, 63.0])
    assert s["wins"] == 1 and s["pairs"] == 4


def test_lower_is_better_gain():
    parent = [63.0, 62.9, 63.2, 62.95, 63.1, 63.0, 62.8, 63.3, 63.05, 62.9]
    change = [57.1, 57.0, 57.3, 57.2, 63.5, 57.1, 57.0, 57.2, 57.1, 57.15]
    s = bench_pairs.summarize(LOWER, parent, change)
    assert s["wins"] == 9
    assert s["parent"][1] == pytest.approx(63.0)
    assert s["change"][1] == pytest.approx(57.125)
    assert s["verdict"] == "gain"


def test_eight_wins_of_ten_is_no_gain():
    parent = [10.0] * 10
    change = [9.0] * 8 + [11.0, 11.0]
    assert bench_pairs.summarize(LOWER, parent, change)["verdict"] == \
        "within bound"


def test_gain_needs_medians_apart_by_the_parent_quartile_distance():
    parent = [10.0, 10.2, 10.4, 10.6, 10.8]    # quartiles 10.1 and 10.7
    change = [p - 0.5 for p in parent]
    s = bench_pairs.summarize(LOWER, parent, change)
    assert s["wins"] == 5 and s["verdict"] == "within bound"
    s = bench_pairs.summarize(LOWER, parent, [p - 0.7 for p in parent])
    assert s["verdict"] == "gain"


def test_higher_is_better_direction():
    parent = [0.90, 0.91, 0.92, 0.93]
    s = bench_pairs.summarize(HIGHER, parent, [0.70, 0.71, 0.72, 0.73])
    assert s["wins"] == 0 and s["verdict"] == "worse"
    s = bench_pairs.summarize(HIGHER, parent, [0.95, 0.96, 0.97, 0.98])
    assert s["wins"] == 4 and s["verdict"] == "gain"


def test_worse_only_beyond_the_bound():
    parent = [100.0, 100.0, 100.0, 100.0]
    assert bench_pairs.summarize(LOWER, parent, [114.0] * 4)["verdict"] == \
        "within bound"
    assert bench_pairs.summarize(LOWER, parent, [116.0] * 4)["verdict"] == \
        "worse"


def test_parent_spread_beyond_the_bound_is_unresolved():
    parent = [50.0, 80.0, 100.0, 120.0, 150.0]  # quartiles 65 and 135
    s = bench_pairs.summarize(LOWER, parent, [130.0, 60.0, 90.0, 125.0, 70.0])
    assert s["verdict"] == "unresolved"
    # ...unless every run of the change reads better than every parent run
    s = bench_pairs.summarize(LOWER, parent, [5.0, 10.0, 15.0, 20.0, 25.0])
    assert s["verdict"] == "gain"


def _fake_tree(root: Path, last_line: str) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        f"print('a metric line')\nprint({last_line!r})\n")
    return root


def test_a_run_that_ends_without_json_is_one_error_line(tmp_path):
    parent = _fake_tree(tmp_path / "parent", "Traceback: not a result")
    proc = subprocess.run(
        [sys.executable, str(_PATH), "--parent", str(parent),
         "--workload", "file_pipeline", "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: file_pipeline pair 1 parent: ")
    assert proc.stderr.count("\n") == 1
    assert "is not JSON: 'Traceback: not a result'" in proc.stderr
    assert "JSONDecodeError" not in proc.stderr


def test_repeated_workloads_print_a_table_each(tmp_path, monkeypatch, capsys):
    metrics = json.loads((_PATH.parent.parent / "BENCHMARK.json")
                         .read_text())["end_to_end"]
    result = json.dumps({"correct": True, "failed": 0, "attempted": 8,
                         "metrics": {m["name"]: {"value": 1.0}
                                     for m in metrics}})
    change = _fake_tree(tmp_path / "change", result)
    (change / "BENCHMARK.json").write_text(
        (_PATH.parent.parent / "BENCHMARK.json").read_text())
    parent = _fake_tree(tmp_path / "parent", result)
    monkeypatch.setattr(bench_pairs, "ROOT", change)
    rc = bench_pairs.main(["--parent", str(parent), "--workload", "a",
                           "--workload", "b", "--seed", "1", "--seconds", "1",
                           "--pairs", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    for workload in ("a", "b"):
        assert f"{workload} seed 1, 2 pairs of 1-s runs" in out
        assert f"{workload} pair 2: run_s 1 -> 1" in out
    assert out.count("run_s (s): 1 [1, 1] -> 1 [1, 1]; change wins 0/2; "
                     "within bound") == 2


def test_each_run_compiles_under_its_own_empty_cache_prefix(
        tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    tree = _fake_tree(tmp_path / "tree", "")
    (tree / "perfbench" / "probe.py").write_text("")
    (tree / "perfbench" / "run.py").write_text(
        "import importlib.util, json, os, sys\n"
        "pyc = importlib.util.cache_from_source(\n"
        "    os.path.join(os.path.dirname(__file__), 'probe.py'))\n"
        "fresh = not os.path.exists(pyc)\n"
        "import probe\n"
        "print(json.dumps({'prefix': sys.pycache_prefix, 'fresh': fresh,"
        " 'cached': probe.__cached__,"
        " 'written': os.path.exists(probe.__cached__)}))\n")
    args = SimpleNamespace(seed=1, seconds=1)
    runs = [bench_pairs.run_once(tree, "a", args, f"run {i}")
            for i in range(2)]
    assert runs[0]["prefix"] != runs[1]["prefix"]
    for run in runs:
        assert run["fresh"] and run["written"]
        assert run["cached"].startswith(run["prefix"])
        assert not Path(run["prefix"]).exists()
