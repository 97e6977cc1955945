"""Print the tracemalloc peak of one protocol cell's training steps and of
its evaluations, above the memory its datasets hold, the peaks of
writing and reading back its checkpoint, and the peaks of loading its
saved training set.

    PYTHONPATH=src python scripts/step_memory.py --seed 0
    PYTHONPATH=/path/to/other/tree/src python scripts/step_memory.py --seed 0
    PYTHONPATH=src python scripts/step_memory.py --seed 0 --dim 128 --batch-size 128

The cell is ``experiments.run_cell``'s with both branches on: the README's
protocol datasets at 20% corruption and the default ``TrainConfig``, with
``--dim`` features in place of the protocol's 16 and ``--batch-size`` in
place of its batch of 48 when given (the last line above is the benchmark's
``file_pipeline`` step).  Tracing starts once the datasets exist, so their
arrays are not counted.  While ``train``
runs, ``trainer.evaluate`` is wrapped: the peak between the start and the
first evaluation, or between two evaluations, is a training-step peak (the
model's set-up before the first step falls there too), and the peak inside
an evaluation an evaluation peak.  The checkpoint built after the last
evaluation counts toward neither.  Both lines give the highest such peak in
MB of 2**20 bytes, the unit of the benchmark's ``peak_rss_mb``.  The third
gives the training-step peak of one more epoch resumed from the cell's
checkpoint file as ``train --resume`` resumes it: the checkpoint is loaded
under tracing, so its arrays count for as long as anything holds them, but
the peak of the load itself does not.  Two more
lines give, in the same unit, the peak of ``trainer.save_checkpoint``
writing that checkpoint to a temporary file and of
``trainer.load_checkpoint`` reading it back, each traced on its own, with
the file's size and the peak as a multiple of it.  The last line gives
``load_checkpoint``'s peak on the same checkpoint with its velocities
zeroed, the file a momentum-0 or epoch-0 run writes.  Its velocity rows
are short, so a reader that held a whole velocities object's floats at
once, not a row's, would peak at a larger multiple of this file.  The
very last line gives ``data.load``'s peak on the cell's training set,
saved to a temporary file: first with the sidecar that ``data.save``
leaves (a hit, which parses nothing), then with the sidecar deleted (a
parse of the text), in MB and as multiples of the features' bytes.
"""

import argparse
import os
import sys
import tempfile
import tracemalloc
from dataclasses import replace

import numpy as np

from aurelab import data, trainer
from aurelab.experiments import DatasetSpec, cell_config, make_cell_datasets

MB = 2**20


def traced_peak(call) -> int:
    """The tracemalloc peak of ``call()`` in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def phase_peaks(train_ds: data.Dataset, test_ds: data.Dataset,
                cfg: trainer.TrainConfig, resume: str | None = None
                ) -> tuple[int, int, trainer.Checkpoint]:
    """(training-step peak, evaluation peak) in bytes above the datasets,
    and the checkpoint of a run under ``cfg``, which resumes the checkpoint
    file ``resume`` when given."""
    peaks = {"steps": 0, "evaluations": 0}
    real_evaluate = trainer.evaluate

    def phase_end(phase: str) -> None:
        peaks[phase] = max(peaks[phase], tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()

    def evaluate(*args):
        phase_end("steps")
        report = real_evaluate(*args)
        phase_end("evaluations")
        return report

    trainer.evaluate = evaluate
    tracemalloc.start()
    try:
        # held as cli.cmd_train holds it, so train() gets the only reference
        loaded = [trainer.load_checkpoint(resume)] if resume else []
        tracemalloc.reset_peak()
        result = trainer.train(train_ds, cfg, eval_dataset=test_ds,
                               resume=loaded.pop() if loaded else None)
    finally:
        tracemalloc.stop()
        trainer.evaluate = real_evaluate
    return peaks["steps"], peaks["evaluations"], result.checkpoint


def resumed_step_peak(train_ds: data.Dataset, test_ds: data.Dataset,
                      ckpt: trainer.Checkpoint) -> int:
    """The training-step peak in bytes above the datasets of one more epoch
    resumed from ``ckpt``'s file, the loaded checkpoint included."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "checkpoint.json")
        trainer.save_checkpoint(ckpt, path)
        cfg = replace(ckpt.config, epochs=ckpt.epoch + 1)
        return phase_peaks(train_ds, test_ds, cfg, path)[0]


def checkpoint_peaks(ckpt: trainer.Checkpoint) -> tuple[int, int, int]:
    """(save peak, load peak, file size) in bytes of ``ckpt``'s file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "checkpoint.json")
        save = traced_peak(lambda: trainer.save_checkpoint(ckpt, path))
        load = traced_peak(lambda: trainer.load_checkpoint(path))
        return save, load, os.path.getsize(path)


def load_peaks(ds: data.Dataset) -> tuple[int, int]:
    """(peak with the sidecar, peak without it) in bytes of ``data.load``
    on ``ds``'s file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "train.txt")
        data.save(ds, path)
        hit = traced_peak(lambda: data.load(path))
        os.unlink(f"{path}.cache")
        return hit, traced_peak(lambda: data.load(path))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True, help="cell seed")
    parser.add_argument("--dim", type=int, default=DatasetSpec().dim,
                        help="feature dimension (default: the protocol's)")
    parser.add_argument("--batch-size", type=int, default=None,
                        help="training batch size (default: the protocol's)")
    args = parser.parse_args(argv)
    train_ds, test_ds = make_cell_datasets(DatasetSpec(dim=args.dim), 0.2,
                                           args.seed)
    cfg = cell_config(trainer.TrainConfig(), args.seed)
    if args.batch_size is not None:
        cfg = replace(cfg, batch_size=args.batch_size)
    steps, evaluations, ckpt = phase_peaks(train_ds, test_ds, cfg)
    resumed = resumed_step_peak(train_ds, test_ds, ckpt)
    print(f"training steps: peak {steps / MB:.2f} MB above the datasets")
    print(f"evaluations:    peak {evaluations / MB:.2f} MB above the datasets")
    print(f"resumed steps:  peak {resumed / MB:.2f} MB above the datasets")
    save, load, size = checkpoint_peaks(ckpt)
    zeroed = replace(ckpt, velocities={name: np.zeros_like(v) for name, v
                                       in ckpt.velocities.items()})
    _, zeroed_load, zeroed_size = checkpoint_peaks(zeroed)
    for name, peak, size in (
            ("save_checkpoint", save, size), ("load_checkpoint", load, size),
            ("load_checkpoint, zero velocities", zeroed_load, zeroed_size)):
        print(f"{name}: peak {peak / MB:.2f} MB for a {size / MB:.2f} MB "
              f"file ({peak / size:.2f}× the file)")
    hit, parse = load_peaks(train_ds)
    size = train_ds.features.nbytes
    print(f"data.load: peak {hit / MB:.2f} MB with the sidecar, "
          f"{parse / MB:.2f} MB by the parse ({hit / size:.2f}× and "
          f"{parse / size:.2f}× the {size / MB:.2f} MB of features)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
