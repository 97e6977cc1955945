"""Print the tracemalloc peak of one protocol cell's training steps and of
its evaluations, above the memory its datasets hold.

    PYTHONPATH=src python scripts/step_memory.py --seed 0
    PYTHONPATH=/path/to/other/tree/src python scripts/step_memory.py --seed 0

The cell is ``experiments.run_cell``'s with both branches on: the README's
protocol datasets at 20% corruption and the default ``TrainConfig``, with
``--batch-size`` in place of its batch of 48 when given.  Tracing starts
once the datasets exist, so their arrays are not counted.  While ``train``
runs, ``trainer.evaluate`` is wrapped: the peak between the start and the
first evaluation, or between two evaluations, is a training-step peak (the
model's set-up before the first step falls there too), and the peak inside
an evaluation an evaluation peak.  The checkpoint built after the last
evaluation counts toward neither.  Both lines give the highest such peak in
MB of 2**20 bytes, the unit of the benchmark's ``peak_rss_mb``.
"""

import argparse
import sys
import tracemalloc
from dataclasses import replace

from aurelab import trainer
from aurelab.experiments import DatasetSpec, cell_config, make_cell_datasets

MB = 2**20


def phase_peaks(seed: int, batch_size: int | None) -> tuple[float, float]:
    """(training-step peak, evaluation peak) in bytes above the datasets."""
    train_ds, test_ds = make_cell_datasets(DatasetSpec(), 0.2, seed)
    cfg = cell_config(trainer.TrainConfig(), seed)
    if batch_size is not None:
        cfg = replace(cfg, batch_size=batch_size)
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
        trainer.train(train_ds, cfg, eval_dataset=test_ds)
    finally:
        tracemalloc.stop()
        trainer.evaluate = real_evaluate
    return peaks["steps"], peaks["evaluations"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True, help="cell seed")
    parser.add_argument("--batch-size", type=int, default=None,
                        help="training batch size (default: the protocol's)")
    args = parser.parse_args(argv)
    steps, evaluations = phase_peaks(args.seed, args.batch_size)
    print(f"training steps: peak {steps / MB:.2f} MB above the datasets")
    print(f"evaluations:    peak {evaluations / MB:.2f} MB above the datasets")
    return 0


if __name__ == "__main__":
    sys.exit(main())
