"""Print one sha256 per file a small fixed CLI pipeline writes.

The file-level twin of ``train_digest.py``: two source trees write
byte-identical artifacts when this script prints the same lines for both:

    PYTHONPATH=src python scripts/artifact_digest.py > after.txt
    PYTHONPATH=/path/to/other/tree/src python scripts/artifact_digest.py > before.txt
    diff before.txt after.txt

In a temporary directory it runs ``aurelab gen --test-fraction``, ``gen``
again with the feature and unit-bit noise flags, ``gen`` with only
``--out`` (the defaults: no held-out split, no corruption), ``train``
with the held-out file, ``eval --out``, ``train --resume`` to a later epoch,
``ablate`` on a branch spec and on an edges spec, and ``sweep``; the specs
are tiny.  Then ``ablate`` and ``sweep`` again, given only flags and no
spec file, and three more ``train`` runs that between them use every
training flag the first runs leave out (``--no-target``, ``--no-aux``,
``--random-edges``, ``--high-fraction``, ``--rank-margin``, ``--lr-aux``).
It then prints the digest of each artifact: the datasets and the ``.test``
file; each of the first two runs' ``metrics.csv``, ``checkpoint.json``,
``relabel_audit.csv`` and both unit-graph CSVs; the eval CSV; the five
tables and each table's ``spec.resolved``; the ``checkpoint.json`` (which
stores every training value) and ``metrics.csv`` of each flag run; and the
stdout of ``inspect`` on each kind of the first ``train`` run's files
(``audit``, ``metrics``, ``checkpoint``, both ``graph`` CSVs and the
``dataset`` it trained on), which covers the readers of those files.  The
last line combines them.
Paths are relative to the temporary directory, so the lines do not depend
on where it is.  ``--expect FILE`` compares each line with the recorded
one (``digest_expect.py``).
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import digest_expect
from aurelab import cli

GEN = ["gen", "--classes", "3", "--aus", "6", "--dim", "8", "--size", "300",
       "--corruption", "0.2", "--test-fraction", "0.25", "--seed", "5",
       "--out", "ds.txt"]
# the generator flags GEN leaves out, and then none but --out
GEN_NOISE = ["gen", "--classes", "4", "--aus", "8", "--dim", "6", "--size",
             "120", "--spread", "3.5", "--noise", "0.75", "--au-noise", "0.1",
             "--seed", "3", "--out", "noise.txt"]
GEN_DEFAULTS = ["gen", "--out", "defaults.txt"]
TRAIN = ["--batch-size", "32", "--warmup-epochs", "2", "--ramp-pivot", "2",
         "--lr", "0.05", "--momentum", "0.8", "--seed", "5"]
SPEC = """[experiment]
name = {name}
seeds = 0,1
rate = 0.2
rates = 0.2,0.3
out = {name}

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
FLAGS = ["--epochs", "3", "--size", "160", "--out"]
# run directory: the training flags no other step gives
FLAG_RUNS = {
    "flags_no_target": ["--no-target", "--lr-aux", "0.02"],
    "flags_no_aux": ["--no-aux", "--high-fraction", "0.7",
                     "--rank-margin", "0.3"],
    "flags_random_edges": ["--random-edges", "--high-fraction", "0.6",
                           "--rank-margin", "0.05", "--lr-aux", "0.002"],
}
STEPS = [
    GEN,
    GEN_NOISE,
    GEN_DEFAULTS,
    ["train", "--data", "ds.txt", "--test-data", "ds.txt.test",
     "--out", "run", "--epochs", "4"] + TRAIN,
    ["eval", "--checkpoint", "run/checkpoint.json", "--data", "ds.txt.test",
     "--out", "eval.csv"],
    ["train", "--data", "ds.txt", "--test-data", "ds.txt.test",
     "--out", "resumed", "--resume", "run/checkpoint.json",
     "--epochs", "6"] + TRAIN,
    ["ablate", "--spec", "ablation.spec"],
    ["ablate", "--spec", "edges.spec"],
    ["sweep", "--spec", "noise_sweep.spec"],
    ["ablate", "--seeds", "0,1", "--rate", "0.2"] + FLAGS + ["flag_ablation"],
    ["sweep", "--seeds", "0,1", "--rates", "0.2,0.3"] + FLAGS + ["flag_sweep"],
] + [["train", "--data", "ds.txt", "--test-data", "ds.txt.test",
      "--out", run, "--epochs", "4"] + TRAIN + flags
     for run, flags in FLAG_RUNS.items()]
RUN_FILES = ("metrics.csv", "checkpoint.json", "relabel_audit.csv",
             "au_adjacency.csv", "au_adjacency_normalized.csv")
ARTIFACTS = (["ds.txt", "ds.txt.test", "noise.txt", "defaults.txt",
              "eval.csv"]
             + [f"{run}/{name}" for run in ("run", "resumed")
                for name in RUN_FILES]
             + ["ablation/ablation.csv", "edges/edges.csv",
                "noise_sweep/sweep.csv", "flag_ablation/ablation.csv",
                "flag_sweep/sweep.csv"]
             + [f"{name}/spec.resolved"
                for name in ("ablation", "edges", "noise_sweep",
                             "flag_ablation", "flag_sweep")]
             + [f"{run}/{name}" for run in FLAG_RUNS
                for name in ("checkpoint.json", "metrics.csv")])
# (kind, path) of every ``inspect`` whose stdout is hashed
INSPECTED = [("audit", "run/relabel_audit.csv"), ("metrics", "run/metrics.csv"),
             ("checkpoint", "run/checkpoint.json"),
             ("graph", "run/au_adjacency.csv"),
             ("graph", "run/au_adjacency_normalized.csv"),
             ("dataset", "ds.txt")]


def inspect_stdout(kind: str, path: str) -> bytes:
    """What ``aurelab inspect kind path`` prints; raises unless it exits 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["inspect", kind, path])
    if rc != 0:
        raise RuntimeError(f"aurelab inspect {kind} {path} exited {rc}")
    return out.getvalue().encode()


def write_artifacts() -> int:
    """Run every step in the current directory; the first non-zero exit
    code, or 0."""
    for name in ("ablation", "edges", "noise_sweep"):
        Path(f"{name}.spec").write_text(SPEC.format(name=name))
    for step in STEPS:
        # the commands' own summaries go to stderr, the digests to stdout
        stdout, sys.stdout = sys.stdout, sys.stderr
        try:
            rc = cli.main(step)
        finally:
            sys.stdout = stdout
        if rc != 0:
            print(f"aurelab {' '.join(step)} exited {rc}", file=sys.stderr)
            return rc
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    digest_expect.add_flag(parser)
    args = parser.parse_args(argv)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        os.chdir(root)
        try:
            rc = write_artifacts()
            outputs = [] if rc != 0 else (
                [(rel, Path(rel).read_bytes()) for rel in ARTIFACTS]
                + [(f"inspect {kind} {rel}", inspect_stdout(kind, rel))
                   for kind, rel in INSPECTED])
        finally:
            os.chdir(cwd)
    if rc != 0:
        return rc
    lines = []
    combined = hashlib.sha256()
    for name, output in outputs:
        digest = hashlib.sha256(output).hexdigest()
        combined.update(digest.encode())
        lines.append(f"{name:<36} {digest}")
    lines.append(f"combined {combined.hexdigest()}")
    return digest_expect.emit(lines, args.expect, "artifact_digest.py")


if __name__ == "__main__":
    sys.exit(main())
