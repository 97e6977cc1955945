"""Two-minute end-to-end demo on a small dataset.

Generates a corrupted dataset with a clean held-out split, trains the full
method, evaluates the checkpoint, and prints where the artifacts live.
"""

import sys

from aurelab.cli import main

OUT = "runs/demo"

steps = [
    ["gen", "--classes", "5", "--aus", "10", "--dim", "16", "--size", "800",
     "--corruption", "0.2", "--test-fraction", "0.25", "--seed", "0",
     "--out", f"{OUT}/train.txt"],
    ["train", "--data", f"{OUT}/train.txt", "--test-data",
     f"{OUT}/train.txt.test", "--out", f"{OUT}/run", "--epochs", "25"],
    ["eval", "--checkpoint", f"{OUT}/run/checkpoint.json", "--data",
     f"{OUT}/train.txt.test"],
    ["inspect", "audit", f"{OUT}/run/relabel_audit.csv"],
]

for step in steps:
    print(f"\n$ aurelab {' '.join(step)}")
    rc = main(step)
    if rc != 0:
        sys.exit(rc)
print(f"\nartifacts under {OUT}/run")
