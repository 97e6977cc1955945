"""The summary arithmetic of scripts/bench_pairs.py; no benchmark is run."""

import importlib.util
from pathlib import Path

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
