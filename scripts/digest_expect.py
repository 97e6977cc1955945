"""The ``--expect FILE`` mode that ``train_digest.py`` and
``artifact_digest.py`` share: each line is compared with the one recorded
for the script as it is printed, and the run stops with exit code 1 at the
first line that differs, naming that line and its recorded text.

``scripts/digests.expected`` holds a ``host`` line, then a ``[<script>]``
line before the lines each script prints in its default run.  The host
line gives the numpy version and the core of the OpenBLAS that numpy
loaded: another BLAS kernel may round differently, so a run on another
host says so before its lines.  To record the file again:

    (PYTHONPATH=src python scripts/digest_expect.py
     echo "[artifact_digest.py]"
     PYTHONPATH=src python scripts/artifact_digest.py
     echo "[train_digest.py]"
     PYTHONPATH=src python scripts/train_digest.py) > scripts/digests.expected

Run by itself, this script prints the host line.
"""

from __future__ import annotations

import ctypes
import sys
from collections.abc import Iterable
from pathlib import Path

import numpy as np


def host() -> str:
    """The host line: numpy's version and the core of its OpenBLAS."""
    core = "unknown"
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower()})
    except OSError:   # no /proc: not Linux
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_corename",
                       "scipy_openblas_get_corename64_",
                       "openblas_get_corename64_"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.argtypes, func.restype = [], ctypes.c_char_p
                core = func().decode()
    return f"host numpy {np.__version__}, OpenBLAS core {core}"


def add_flag(parser) -> None:
    parser.add_argument("--expect", metavar="FILE",
                        help="compare each line with FILE's (exit 1 at the "
                             "first that differs)")


def _recorded(path, script: str) -> tuple[str, list[str]]:
    """The host line of file ``path`` and its lines for ``script``."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if f"[{script}]" not in lines:
        sys.exit(f"error: {path} has no [{script}] section")
    start = lines.index(f"[{script}]") + 1
    end = next((k for k in range(start, len(lines))
                if lines[k].startswith("[")), len(lines))
    return lines[0], lines[start:end]


def emit(lines: Iterable[str], expect, script: str) -> int:
    """Print each of ``lines`` as it comes; with ``expect``, the path of a
    recorded file, stop at the first that differs from the line recorded
    there for ``script``, or at a missing or extra line: exit code 1."""
    if expect is None:
        for line in lines:
            print(line, flush=True)
        return 0
    recorded_host, want = _recorded(expect, script)
    if recorded_host != host():
        print(f"note: {expect} was recorded on '{recorded_host}', this is "
              f"'{host()}'", file=sys.stderr)
    count = 0
    for count, line in enumerate(lines, 1):
        print(line, flush=True)
        if count > len(want) or line != want[count - 1]:
            expected = want[count - 1] if count <= len(want) else "no line"
            print(f"line {count} differs from {expect}: expected {expected}",
                  file=sys.stderr)
            return 1
    if count < len(want):
        print(f"line {count + 1} is missing: expected {want[count]}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    print(host())
