"""aurelab benchmark: one workload, timed in whole rounds for a set time.

    python3 perfbench/run.py --workload protocol_full --seed 0 \
        --seconds 20 --trace 0

Each round runs in a fresh process (``round.py``) with BLAS and OpenMP
pinned to one thread.  Rounds repeat until ``--seconds`` have passed.  With
``--trace 0`` every round is untraced and the end-to-end metrics are medians
over the rounds.  With ``--trace 1`` untraced and traced rounds alternate:
the traced ones give the per-layer metrics, and the difference between the
two kinds gives the tracing overhead.  Every round must produce identical
outputs and pass its checks; the last line printed is the JSON result, and
the exit code is 1 when a check failed.  See README.md in this directory.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("protocol_full", "protocol_plain", "file_pipeline",
             "ablation_grid")
END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("heldout_accuracy", "fraction"), ("clean_labels_final", "count"))
# Every round, and so the whole run, ends within this many seconds.
RUN_LIMIT_S = 170


def run_round(args, index: int, traced: bool, hard_deadline: float) -> dict:
    name = f"{args.workload}-s{args.seed}"
    workdir = OUT / "work" / f"{name}-p{os.getpid()}-r{index}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "round.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", str(workdir), "--trace", str(int(traced)),
           "--full-checks", str(int(index == 0))]
    if traced:
        cmd += ["--spans", str(OUT / f"spans-{name}.jsonl")]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(hard_deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"round still running after {RUN_LIMIT_S} s",
                "attempted": 1, "failed": 1}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"round exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}",
                "attempted": 1, "failed": 1}
    result = json.loads(lines[-1])
    result["traced"] = traced
    if "first_call" in result:
        result["setup_wall_s"] = result.pop("first_call") - spawned
        result["setup_s"] = result["setup_wall_s"] * result["scale"]
    return result


def problems(rounds: list[dict]) -> list[str]:
    """Everything that makes the run incorrect."""
    found = []
    for i, r in enumerate(rounds):
        if "error" in r:
            found.append(f"round {i}: {r['error']}")
        found += [f"round {i}: {f}" for f in r.get("failures", [])]
    digests = {r["digest"] for r in rounds if "digest" in r}
    if len(digests) > 1:
        found.append("rounds produced different outputs")
    counts = [{k: v for k, v in r["layers"].items()
               if not k.endswith(("_s", "_us"))}
              for r in rounds if "layers" in r]
    if any(c != counts[0] for c in counts):
        found.append("traced rounds produced different counts")
    return found


def median_of(rounds: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def end_to_end(rounds: list[dict]) -> dict:
    units = dict(END_TO_END)
    return {name: {"value": median_of(rounds, name), "unit": units[name]}
            for name in units}


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    layers = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        if name.endswith("_us"):
            layers[name] = {"value": statistics.median(values), "unit": "us"}
        elif name.endswith("_s"):
            layers[name] = {"value": statistics.median(values), "unit": "s"}
        else:
            unit = "bytes" if "bytes" in name else "count"
            layers[name] = {"value": values[0], "unit": unit}
    untraced_s = median_of(untraced, "run_s")
    traced_s = median_of(traced, "run_s")
    layers["trace.untraced_run_s"] = {"value": untraced_s, "unit": "s"}
    layers["trace.traced_run_s"] = {"value": traced_s, "unit": "s"}
    layers["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
    layers["host.probe_ms"] = {
        "value": median_of(untraced + traced, "host_ms"), "unit": "ms"}
    layers["host.wall_run_s"] = {"value": median_of(untraced, "wall_s"),
                                 "unit": "s"}
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "aurelab" / "__init__.py").is_file():
        print(f"error: no aurelab source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    kinds = (False, True) if args.trace else (False,)
    rounds: list[dict] = []
    started = time.monotonic()
    deadline = started + args.seconds
    while not rounds or time.monotonic() < deadline:
        for traced in kinds:
            rounds.append(run_round(args, len(rounds), traced,
                                    started + RUN_LIMIT_S))
            if "error" in rounds[-1]:
                break
        if "error" in rounds[-1]:
            break

    found = problems(rounds)
    ok = [r for r in rounds if "error" not in r]
    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    metrics = {}
    if untraced and (traced or not args.trace):
        metrics = per_layer(untraced, traced) if args.trace else end_to_end(
            untraced)
    env = ok[0]["env"] if ok else {}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "problems": found, "rounds": rounds, "metrics": metrics}
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(env))
    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced rounds")
    for problem in found:
        print(f"FAILED {problem}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not found,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0 if not found else 1


if __name__ == "__main__":
    sys.exit(main())
