"""Print one sha256 per (seed, configuration) of a trained protocol cell.

Two source trees train bit-identically when this script prints the same
lines for both:

    PYTHONPATH=src python scripts/train_digest.py > after.txt
    PYTHONPATH=/path/to/other/tree/src python scripts/train_digest.py > before.txt
    diff before.txt after.txt

Each cell is ``experiments.run_cell`` at the experiment protocol: 20%
corruption and the default ``TrainConfig``.  The configurations are the
four branch settings plus the full method on random edges; seeds are 0-7
unless ``--seeds`` names others.  A digest covers the checkpoint's parameters, velocities and templates, the
final labels, every relabel record with its distances, the per-epoch
losses, and the four figures a table reads of the cell (accuracy, final
noise rate, relabel precision and recall).  A cell evaluates its held-out
split only after its last epoch, so held-out accuracy enters through the
cell's own figure.  The last line combines all of them.
"""

import argparse
import hashlib
import sys

import numpy as np

from aurelab.experiments import DatasetSpec, run_cell
from aurelab.trainer import TrainConfig

# name: (use_target, use_aux, random_edges)
CONFIGURATIONS = {
    "neither": (False, False, False),
    "target": (True, False, False),
    "aux": (False, True, False),
    "both": (True, True, False),
    "random_edges": (True, True, True),
}


def _add(h, value) -> None:
    h.update(np.ascontiguousarray(value).tobytes())


def cell_digest(seed: int, use_target: bool, use_aux: bool,
                random_edges: bool) -> str:
    cell = run_cell(DatasetSpec(), TrainConfig(), 0.2, seed, use_target,
                    use_aux, random_edges)
    result = cell.result
    ckpt = result.checkpoint
    h = hashlib.sha256()
    for store in (ckpt.params, ckpt.velocities):
        for name in sorted(store):
            h.update(name.encode())
            _add(h, store[name])
    templates = ckpt.templates
    for part in (templates.vectors, templates.valid,
                 templates.last_update_epoch):
        _add(h, part)
    _add(h, result.final_dataset.observed_labels)
    for r in result.records:
        _add(h, np.array([r.sample_id, r.original, r.corrected, r.epoch]))
        _add(h, r.distances)
    for m in result.metrics:
        _add(h, np.array([m.loss_wce, m.loss_rank, m.loss_au, m.loss_total]))
    _add(h, np.array([cell.accuracy, cell.final_noise_rate,
                      cell.relabel_precision, cell.relabel_recall]))
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=range(8),
                        help="cell seeds (default 0-7)")
    args = parser.parse_args(argv)
    combined = hashlib.sha256()
    for seed in args.seeds:
        for name, switches in CONFIGURATIONS.items():
            digest = cell_digest(seed, *switches)
            combined.update(digest.encode())
            print(f"seed {seed} {name:<12} {digest}", flush=True)
    print(f"combined {combined.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
