"""One round of one workload, in a fresh process; started by ``run.py``.

Prints one JSON line: the monotonic time of the first call into the work
(the runner subtracts its spawn time to get set-up time), the timed work's
wall time, peak resident memory, the quality metrics, an output digest, the
failed checks, the environment and, when traced, the per-layer figures.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import aurelab  # noqa: E402

if not Path(aurelab.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"aurelab was imported from {aurelab.__file__}, not from {SRC}")

import micro  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas": blas_name, "blas_threads": blas_threads(),
            "python": platform.python_version(), "numpy": np.__version__}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full-checks", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="file for the traced round's spans")
    args = parser.parse_args()

    work = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir))
    work.prepare()
    tracer = Tracer()
    if args.trace:
        tracer.install()
    try:
        with micro.HostProbe() as probe:
            first_call = time.monotonic()
            start = time.perf_counter()
            outputs = work.run()
            elapsed = time.perf_counter() - start
    except Exception:
        # A failed operation: report it, with the traceback, as a result.
        print(json.dumps({"error": traceback.format_exc(),
                          "attempted": work.operations,
                          "failed": work.operations}))
        return 0
    tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = micro.HostProbe.NOMINAL_MS / probe.median_ms()

    result = {"first_call": first_call, "scale": scale,
              "wall_s": elapsed - probe.spent_s,
              "run_s": (elapsed - probe.spent_s) * scale,
              "peak_rss_mb": peak_rss_mb, "host_ms": probe.median_ms(),
              "attempted": work.operations, "failed": 0,
              **work.quality(outputs), "digest": work.digest(outputs),
              "failures": work.check(outputs, bool(args.full_checks)),
              "env": environment()}
    if args.trace:
        result["layers"] = {**tracer.summary(),
                            **micro.primitive_costs(args.seed)}
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
