"""Spans and counts recorded around the public functions of each aurelab layer.

The tracer lives only in the benchmark's process.  :meth:`Tracer.install`
replaces each traced function or method with a wrapper wherever the package
binds it (a module attribute, a name imported into another module, or a
class attribute), and :meth:`Tracer.uninstall` puts the originals back.
Spans are kept in memory as ``[name, start, end, parent]`` rows; a layer's
self time is its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _arguments(func, args, kwargs) -> dict:
    bound = inspect.signature(func).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _counter(name):
    def hook(tracer, func, args, kwargs, result):
        tracer.counts[name] += 1
    return hook


def _file_size(counter, argument):
    def hook(tracer, func, args, kwargs, result):
        path = _arguments(func, args, kwargs)[argument]
        tracer.counts[counter] += _file_bytes(path)
    return hook


def _count_steps(tracer, func, args, kwargs, result):
    tracer.counts["trainer.steps"] += len(result)


def _count_corrections(tracer, func, args, kwargs, result):
    bound = _arguments(func, args, kwargs)
    ds, records = bound["ds"], bound["records"]
    tracer.counts["relabel.corrections"] += len(records)
    tracer.counts["relabel.corrections_right"] += sum(
        int(r.corrected == ds.true_labels[r.sample_id]) for r in records)


def _count_cell(tracer, func, args, kwargs, result):
    # A cell is fixed by its dataset spec, config, rate, seed and switches.
    tracer.counts["experiments.cells_run"] += 1
    tracer.distinct_cells.add(
        repr(sorted(_arguments(func, args, kwargs).items())))


def _count_artifacts(tracer, func, args, kwargs, result):
    out = Path(args[0].out)
    files = out.iterdir() if out.is_dir() else [out]
    tracer.counts["cli.artifact_bytes"] += sum(_file_bytes(f) for f in files)


# (layer, owner, attribute, span name, hook).  An owner names a module or
# "module:Class"; a hook gets the tracer, the original function, its
# arguments and its result.
TRACED = (
    ("autodiff", "aurelab.autodiff", "gradients", "autodiff.gradients",
     _counter("autodiff.gradients_calls")),
    ("target_branch", "aurelab.target_branch:TargetBranch", "features",
     "target_branch.features", None),
    ("target_branch", "aurelab.target_branch", "weighted_cross_entropy",
     "target_branch.weighted_cross_entropy", None),
    ("target_branch", "aurelab.target_branch", "rank_regularization",
     "target_branch.rank_regularization", None),
    ("aux_branch", "aurelab.aux_branch:AuxiliaryBranch", "semantic_logits",
     "aux_branch.semantic_logits", None),
    ("aux_branch", "aurelab.aux_branch", "au_detection_loss",
     "aux_branch.detection_loss", None),
    ("relabel", "aurelab.relabel", "semantic_distances",
     "relabel.semantic_distances",
     _counter("relabel.semantic_distances_calls")),
    ("relabel", "aurelab.relabel", "decide_relabel", "relabel.decide_relabel",
     None),
    ("relabel", "aurelab.relabel:SemanticTemplates", "update",
     "relabel.templates_update", None),
    ("relabel", "aurelab.relabel", "apply_corrections",
     "relabel.apply_corrections", _count_corrections),
    ("trainer", "aurelab.trainer", "train", "trainer.train", None),
    ("trainer", "aurelab.trainer", "evaluate", "trainer.evaluate",
     _counter("trainer.evaluate_calls")),
    ("trainer", "aurelab.trainer", "save_checkpoint", "trainer.save_checkpoint",
     _file_size("trainer.checkpoint_bytes", "path")),
    ("trainer", "aurelab.trainer", "load_checkpoint", "trainer.load_checkpoint",
     None),
    ("data", "aurelab.data", "generate", "data.generate", None),
    ("data", "aurelab.data", "save", "data.save",
     _file_size("data.bytes_written", "path")),
    ("data", "aurelab.data", "load", "data.load",
     _file_size("data.bytes_read", "path")),
    ("data", "aurelab.data", "batches", "data.batches",
     _count_steps),
    ("experiments", "aurelab.experiments", "run_cell", "experiments.run_cell",
     _count_cell),
    ("experiments", "aurelab.experiments", "write_table",
     "experiments.write_table", None),
    ("cli", "aurelab.cli", "cmd_gen", "cli.gen", None),
    ("cli", "aurelab.cli", "cmd_train", "cli.train", _count_artifacts),
    ("cli", "aurelab.cli", "cmd_eval", "cli.eval", None),
    ("cli", "aurelab.cli", "cmd_inspect", "cli.inspect", None),
    ("cli", "aurelab.cli", "cmd_ablate", "cli.ablate", None),
    ("cli", "aurelab.cli", "cmd_sweep", "cli.sweep", None),
)

LAYER_OF = {name: layer for layer, _, _, name, _ in TRACED}
LAYERS = ("autodiff", "target_branch", "aux_branch", "relabel", "trainer",
          "data", "experiments", "cli")

COUNTS = ("autodiff.gradients_calls", "relabel.semantic_distances_calls",
          "relabel.corrections", "relabel.corrections_right", "trainer.steps",
          "trainer.evaluate_calls", "trainer.checkpoint_bytes",
          "data.bytes_written", "data.bytes_read", "experiments.cells_run",
          "experiments.cells_distinct", "cli.artifact_bytes")


def _resolve(owner: str):
    module_name, _, cls = owner.partition(":")
    module = sys.modules[module_name]
    return getattr(module, cls) if cls else module


class Tracer:
    """Wraps the layer functions listed in :data:`TRACED` while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.distinct_cells: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrapper(self, func, name, hook):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if hook is not None:
                hook(tracer, func, args, kwargs, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        traced.__doc__ = func.__doc__
        return traced

    def install(self) -> None:
        packages = [m for n, m in list(sys.modules.items())
                    if n == "aurelab" or n.startswith("aurelab.")]
        for _, owner, attr, name, hook in TRACED:
            target = _resolve(owner)
            original = getattr(target, attr)
            wrapped = self._wrapper(original, name, hook)
            if isinstance(target, type):
                self._undo.append((target, attr, original))
                setattr(target, attr, wrapped)
                continue
            for module in packages:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, float]:
        """Per-span-name totals, per-layer self times and counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: Counter = Counter()
        self_time: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child[i]
        out = {f"{name}_s": total[name] for _, _, _, name, _ in TRACED}
        for layer in LAYERS:
            if layer == "trainer":
                # The trainer's own loop: train() minus every traced call.
                out["trainer.self_s"] = self_time["trainer.train"]
                continue
            out[f"{layer}.self_s"] = sum(
                v for name, v in self_time.items()
                if LAYER_OF[name] == layer)
        counts = dict(self.counts)
        counts["experiments.cells_distinct"] = len(self.distinct_cells)
        for name in COUNTS:
            out[name] = counts.get(name, 0)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
