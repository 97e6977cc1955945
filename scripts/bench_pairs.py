"""Compare the benchmark's end-to-end metrics between a parent tree and this one.

    python scripts/bench_pairs.py --parent /path/to/parent/checkout \\
        --workload file_pipeline --seed 11 --seconds 20 --pairs 10

``--workload`` may repeat; the workloads run one after another, each with
its own pairs and its own summary table.  Each pair runs
``perfbench/run.py --trace 0`` once from the parent tree and once from this
tree, at the same workload, seed and run length; the first pair starts with
the parent, the next with this tree, and so on.  Each run gives one value
per end-to-end metric (its median over rounds).  For every metric in
``BENCHMARK.json`` the script prints each side's median and quartiles over
the pairs, as ``statistics.quantiles(values, n=4)`` gives them, the pairs
this tree wins (ties count for neither) and one verdict:

- ``unresolved``: the distance between the parent's quartiles exceeds the
  metric's bound times the parent's median, and not every run of this tree
  reads better than every run of the parent;
- ``gain``: this tree wins at least nine tenths of the pairs and the
  medians differ, in its favour, by more than the parent's quartile
  distance;
- ``worse``: this tree's median is worse than the parent's by more than
  the bound times the parent's median;
- ``within bound`` otherwise.

A run that is not correct or has failed operations is reported on its own
line and makes the exit code 1.  A run whose last line is not a JSON result
ends the script with one ``error:`` line naming its pair and side, and
exit code 1.  The script reads ``BENCHMARK.json`` and
runs ``perfbench/run.py`` as they are; each run writes only the result file
in its tree's git-ignored ``perfbench/out/``.  Each run gets its own
empty ``PYTHONPYCACHEPREFIX``, with bytecode writing on whatever
``PYTHONDONTWRITEBYTECODE`` says, so both trees start from the same cache
state: a stale ``__pycache__`` in either tree is never read, a run's first
round compiles every module it imports, and its later rounds read that
bytecode.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Quartiles of both sides, the change's wins and the verdict for one
    ``BENCHMARK.json`` end-to-end ``metric`` over pairs of runs."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4)
    c_q1, c_med, c_q3 = statistics.quantiles(change, n=4)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gained = sign * (c_med - p_med)
    allowed = metric["bound"] * abs(p_med)
    if (p_q3 - p_q1 > allowed
            and min(sign * c for c in change) <= max(sign * p for p in parent)):
        verdict = "unresolved"
    elif wins >= 0.9 * len(parent) and gained > p_q3 - p_q1:
        verdict = "gain"
    elif -gained > allowed:
        verdict = "worse"
    else:
        verdict = "within bound"
    return {"parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
            "wins": wins, "pairs": len(parent), "verdict": verdict}


def run_once(tree: Path, workload: str, args, where: str) -> dict:
    """The last line of one ``perfbench/run.py`` run of ``workload`` from
    ``tree``, under a fresh, empty ``PYTHONPYCACHEPREFIX`` that it may
    write; ``where`` names the run in an error."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": ""}
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        env["PYTHONPYCACHEPREFIX"] = cache
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=tree,
                              env=env)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"error: {where}: {' '.join(cmd)} exited "
                         f"{proc.returncode} with no output: "
                         f"{proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise SystemExit(f"error: {where}: the last line of {' '.join(cmd)} "
                         f"(exit {proc.returncode}) is not JSON: "
                         f"{lines[-1][:200]!r}") from None


def _fmt(quarts: tuple[float, float, float]) -> str:
    q1, median, q3 = quarts
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def compare(workload: str, sides: dict, metrics: list[dict], args) -> bool:
    """Run ``args.pairs`` pairs of ``workload`` and print its summary table;
    False when a run was not correct or had failed operations."""
    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    ok = True
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            where = f"{workload} pair {pair + 1} {side}"
            result = run_once(sides[side], workload, args, where)
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{where}: correct={result['correct']}, "
                      f"{result['failed']} of {result['attempted']} "
                      f"operations failed")
            if not result["metrics"]:
                raise SystemExit(f"error: {where}: no metrics")
            for m in metrics:
                values[side][m["name"]].append(
                    result["metrics"][m["name"]]["value"])
        print(f"{workload} pair {pair + 1}: " + ", ".join(
            f"{name} {values['parent'][name][-1]:.6g} -> "
            f"{values['change'][name][-1]:.6g}"
            for name in values["parent"]), flush=True)
    print(f"{workload} seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g}-s runs; median [q1, q3], parent -> change")
    for m in metrics:
        s = summarize(m, values["parent"][m["name"]],
                      values["change"][m["name"]])
        print(f"{m['name']} ({m['unit']}): {_fmt(s['parent'])} -> "
              f"{_fmt(s['change'])}; change wins {s['wins']}/{s['pairs']}; "
              f"{s['verdict']}", flush=True)
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--workload", required=True, action="append",
                        help="a workload to compare; may repeat")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    ok = True
    for workload in args.workload:
        ok = compare(workload, sides, metrics, args) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
