"""End-to-end training: ramped composite loss, per-branch SGD, template
maintenance, deferred label correction, evaluation, and checkpointing.

Per epoch, each shuffled batch runs: backbone forward, confidence scores,
class weights, high/low split, detection branch forward, loss composition,
and one SGD update per branch on the flat buffer its trained parameters are
views of.  Each step is a scope, ``_train_step``: its tape lives only in
that function's locals and is freed when it returns, so only one step's
tape is alive at a time and none during evaluation.  At the epoch's end
``relabel.epoch_corrections`` updates the templates from each step's high
group and (after the warmup) corrects its low group; the corrections are
applied to the stored labels, and then the epoch is evaluated on the
held-out set, if one is given.  The detection branch never participates in
evaluation: predictions are the plain argmax of the classifier logits.
"""

from __future__ import annotations

import ctypes
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cache

import numpy as np

from . import autodiff as ad
from .aux_branch import (AUGraph, AuxiliaryBranch, au_detection_loss,
                         build_au_graph, random_au_graph)
from .data import Dataset, _csv_rows, batches, read_lines, write_atomic, write_csv
from .errors import ConfigError, InputError, TrainingDivergedError
from .relabel import (RelabelRecord, SemanticTemplates, apply_corrections,
                      correction_figures, epoch_corrections)
from .target_branch import (TargetBranch, class_weights, confidence_split,
                            rank_regularization, weighted_cross_entropy)


@dataclass(frozen=True)
class TrainConfig:
    """All training hyperparameters; the defaults are the desk-scale
    protocol.  The reference regime (``scripts/specs/reference.spec``)
    assumes pretrained features: trained from scratch on 1600 samples it
    neither converges by the relabeling start nor ever memorizes noisy
    labels.  Batch 48 still gives about 8 high-confidence members per class
    for the templates; momentum puts the plain baseline in the
    noise-memorizing regime that label correction targets.

    ``high_fraction`` is the share of each batch treated as high-confidence;
    ``rank_margin`` the required mean-confidence gap; ``ramp_pivot`` the
    epoch where the loss emphasis crosses over from the detection branch to
    the classifier; ``warmup_epochs`` how long label correction stays off
    while templates accumulate.  The classifier-side learning rate is
    ``lr_initial`` with hard drops at the listed epochs; the detection-side
    rate decays multiplicatively per epoch.
    """
    high_fraction: float = 0.8
    rank_margin: float = 0.15
    ramp_pivot: int = 10
    epochs: int = 40
    batch_size: int = 48
    lr_initial: float = 0.05
    lr_drops: tuple[tuple[int, float], ...] = ((20, 5e-3), (30, 5e-4))
    lr_aux: float = 0.01
    lr_aux_decay: float = 0.95
    momentum: float = 0.8
    warmup_epochs: int = 15
    seed: int = 0
    hidden_dim: int = 128
    feat_dim: int = 64
    node_dim: int = 16
    gcn_channels: int = 64
    leaky_slope: float = 0.01
    use_target_branch: bool = True
    use_aux_branch: bool = True
    random_edges: bool = False

    def validate(self) -> None:
        if not 0.0 < self.high_fraction < 1.0:
            raise ConfigError(f"high_fraction must lie in (0, 1), "
                              f"got {self.high_fraction}")
        if not (math.isfinite(self.rank_margin) and self.rank_margin >= 0):
            raise ConfigError(f"rank_margin must be finite and >= 0, "
                              f"got {self.rank_margin}")
        if self.ramp_pivot < 1:
            raise ConfigError(f"ramp_pivot must be >= 1, got {self.ramp_pivot}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.epochs >= 2**63:   # templates and audits hold epochs as int64
            raise ConfigError(f"epochs must be < 2**63, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        rates = [("lr_initial", self.lr_initial), ("lr_aux", self.lr_aux)]
        rates += [(f"lr_drops rate at epoch {e}", r) for e, r in self.lr_drops]
        for name, rate in rates:
            if not (math.isfinite(rate) and rate > 0):
                raise ConfigError(f"{name} must be finite and > 0, got {rate}")
        drop_epochs = [e for e, _ in self.lr_drops]
        if any(a >= b for a, b in zip([0, *drop_epochs], drop_epochs)):
            raise ConfigError(f"lr_drops epochs must be >= 1 and strictly "
                              f"increasing, got {drop_epochs}")
        if not 0.0 < self.lr_aux_decay <= 1.0:
            raise ConfigError("lr_aux_decay must lie in (0, 1]")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if self.warmup_epochs < 0:
            raise ConfigError("warmup_epochs must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("hidden_dim", "feat_dim", "node_dim", "gcn_channels"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not 0.0 < self.leaky_slope < 1.0:
            raise ConfigError("leaky_slope must lie in (0, 1)")

    def lr_target(self, epoch: int) -> float:
        lr = self.lr_initial
        for drop_epoch, value in self.lr_drops:
            if epoch >= drop_epoch:
                lr = value
        return lr

    def lr_aux_at(self, epoch: int) -> float:
        return self.lr_aux * self.lr_aux_decay ** (epoch - 1)


def ramp_weights(epoch: int, pivot: int) -> tuple[float, float]:
    """Loss weights (classifier side, detection side) at epoch, pivot >= 1.

    The classifier weight ramps up as exp(-(1 - epoch/pivot)^2) until the
    pivot then stays 1; the detection weight is 1 until the pivot then decays
    as exp(-(1 - pivot/epoch)^2).  Both are 1 exactly at the pivot.
    """
    e, b = float(epoch), float(pivot)
    if e <= b:
        return math.exp(-((1.0 - e / b) ** 2)), 1.0
    return 1.0, math.exp(-((1.0 - b / e) ** 2))


def total_loss(loss_wce: ad.Tensor, loss_rank: ad.Tensor, loss_au: ad.Tensor,
               target_weight: float, aux_weight: float) -> ad.Tensor:
    """(target_weight / 2) * (wce + rank) + aux_weight * au, one tape node."""
    half, aux = float(target_weight / 2.0), float(aux_weight)

    def vjp(g):
        g_target = g * half
        return g_target, g_target, g * aux

    return ad.node((loss_wce.data + loss_rank.data) * half
                   + loss_au.data * aux, (loss_wce, loss_rank, loss_au), vjp)


@dataclass(eq=False)
class Model:
    """Both branches, the frozen unit graph, the template store and each
    parameter's SGD velocity.  ``trained`` holds, for each branch a step
    moves (the target branch first), its trained parameters, and the flat
    buffers their data and velocities are views of."""
    target: TargetBranch
    aux: AuxiliaryBranch
    graph: AUGraph
    templates: SemanticTemplates
    config: TrainConfig
    velocities: dict[str, np.ndarray]
    trained: list[tuple[dict[str, ad.Tensor], np.ndarray, np.ndarray]]

    def parameters(self) -> dict[str, ad.Tensor]:
        return {**self.target.parameters(), **self.aux.parameters()}

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Class predictions from the classifier logits alone; the detection
        branch and the confidence scale play no part.  The forward runs a
        training batch of rows at a time, so no activation is wider."""
        x = np.asarray(features, dtype=np.float64)
        step = self.config.batch_size
        preds = []
        for start in range(0, max(len(x), 1), step):  # no rows: one slice
            feats = self.target.features(ad.constant(x[start:start + step]))
            preds.append(np.argmax(self.target.logits(feats).data, axis=1))
        return np.concatenate(preds)


def init_model(dataset: Dataset, config: TrainConfig) -> Model:
    """A fresh model for ``dataset``'s shapes, seeded with ``config.seed``;
    raises ConfigError when its weights or templates do not fit in memory
    (a header's class count, say, can be far larger than its labels need)."""
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(config.seed)))
    c, m, d = dataset.n_classes, dataset.n_units, dataset.dim
    try:
        target = TargetBranch(d, config.hidden_dim, config.feat_dim, c,
                              config.leaky_slope, rng=rng)
        aux = AuxiliaryBranch(config.feat_dim, m, config.node_dim,
                              config.gcn_channels, config.leaky_slope, rng=rng)
        if config.random_edges:
            graph = random_au_graph(m, rng)
        else:
            graph = build_au_graph(dataset.au_labels)
        model = Model(target, aux, graph, SemanticTemplates.empty(c, m),
                      config, {}, [])
        model.velocities = {name: np.zeros_like(t.data)
                            for name, t in model.parameters().items()}
        # No loss reads the detection branch when it is off, nor the
        # confidence head when the target branch is off; their gradients and
        # velocities stay zero all run long, so they are left out.
        branches = [target.parameters()]
        if not config.use_target_branch:
            del branches[0][target.confidence_w.name]
        if config.use_aux_branch:
            branches.append(aux.parameters())
        for params in branches:
            sizes = [t.data.size for t in params.values()]
            flat = np.zeros((2, sum(sizes)))   # data, velocities
            for (name, t), end in zip(params.items(), np.cumsum(sizes)):
                data, model.velocities[name] = flat[
                    :, end - t.data.size:end].reshape(2, *t.data.shape)
                data[...] = t.data
                t.data = data
            model.trained.append((params, *flat))
    except MemoryError as exc:
        raise ConfigError(f"a model for C={c}, M={m}, D={d} is too large to "
                          f"allocate: {exc}") from None
    return model


@dataclass
class EvalReport:
    accuracy: float
    per_class_accuracy: np.ndarray
    confusion: np.ndarray   # rows = stored label, cols = prediction
    n: int


def evaluate(model: Model, dataset: Dataset) -> EvalReport:
    """Accuracy and confusion of argmax predictions against the dataset's
    stored labels; read-only."""
    preds = model.predict(dataset.features)
    labels = dataset.observed_labels
    c = dataset.n_classes
    confusion = np.zeros((c, c), dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)
    counts = confusion.sum(axis=1)
    per_class = np.divide(np.diag(confusion), counts,
                          out=np.zeros(c), where=counts > 0)
    return EvalReport(float(np.mean(preds == labels)), per_class, confusion,
                      dataset.n)


@dataclass
class EpochMetrics:
    epoch: int
    target_weight: float
    aux_weight: float
    loss_wce: float
    loss_rank: float
    loss_au: float
    loss_total: float
    accuracy: float
    per_class_accuracy: np.ndarray
    confusion: np.ndarray
    relabel_count: int
    relabel_precision: float
    relabel_recall: float
    noise_rate: float


# every scalar field; the two arrays follow them as per-class columns
METRICS_FIXED_COLUMNS = tuple(
    f.name for f in fields(EpochMetrics)
    if f.name not in ("per_class_accuracy", "confusion"))


def write_metrics_csv(metrics: list[EpochMetrics], n_classes: int, path) -> None:
    classes = range(n_classes)
    header = [*METRICS_FIXED_COLUMNS, *(f"class_acc_{c}" for c in classes),
              *(f"cm_{i}_{j}" for i in classes for j in classes)]
    write_csv(path, [header, *(
        [*(getattr(m, name) for name in METRICS_FIXED_COLUMNS),
         *m.per_class_accuracy, *m.confusion.ravel()] for m in metrics)])


def read_metrics(path) -> list[dict[str, str]]:
    """The rows of a metrics CSV, each field's text keyed by its column."""
    fixed = list(METRICS_FIXED_COLUMNS)
    return [row for _, row in _csv_rows(
        path, lambda h: h[:len(fixed)] == fixed,
        f"a metrics header starting '{','.join(fixed)}'")]


# Decoders of a checkpoint's JSON values raise one of these on a bad value.
_MALFORMED = (AttributeError, KeyError, OverflowError, TypeError, ValueError)

_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _json_value(value, kind: type, name: str):
    """``value`` as ``kind`` when its JSON type fits: true or false for a
    bool, an integer for an int, any number for a float, a string for a
    str, and a list of [integer, number] pairs for a tuple (``lr_drops``)."""
    if kind is tuple:
        return tuple((_json_value(e, int, name), _json_value(r, float, name))
                     for e, r in value)
    if type(value) not in _JSON_TYPES[kind]:
        raise TypeError(f"{name} must be of type {kind.__name__}, "
                        f"got {value!r}")
    return kind(value)


def _json_array(value, kind: type, ndim: int, name: str) -> np.ndarray:
    """``value``, a JSON list ``ndim`` deep with rows of equal length, as
    an array of ``kind``: each leaf by the rule of ``_json_value``, finite."""
    arr = value   # a matrix _walk_checkpoint read is a float64 array already
    if type(value) is not np.ndarray:
        leaves = np.asarray(value, dtype=object)   # each leaf as JSON read it
        if type(value) is not list or leaves.ndim != ndim:
            raise TypeError(f"{name} must be a {ndim}-dimensional list")
        if not set(map(type, leaves.flat)) <= set(_JSON_TYPES[kind]):
            for leaf in leaves.flat:
                _json_value(leaf, kind, name)
        arr = leaves.astype(np.int64 if kind is int else kind)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} holds a non-finite value")
    return arr


def _named_arrays(value) -> dict[str, np.ndarray]:
    return {name: _json_array(v, float, 2, name) for name, v in value.items()}


def _config(value) -> TrainConfig:
    """Every field of a ``TrainConfig``: a missing one is an error, not its
    default, so that a resumed run cannot change configuration."""
    kinds = {f.name: type(f.default) for f in fields(TrainConfig)}
    missing = [name for name in kinds if name not in value]
    if missing:
        raise ValueError(f"no value for {', '.join(missing)}")
    cfg = TrainConfig(**{name: _json_value(v, kinds[name], name)
                         if name in kinds else v
                         for name, v in value.items()})
    cfg.validate()
    return cfg


def _epoch(value) -> int:
    epoch = _json_value(value, int, "epoch")
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    return epoch


def _templates(value) -> SemanticTemplates:
    return SemanticTemplates(
        _json_array(value["vectors"], float, 2, "vectors"),
        _json_array(value["valid"], bool, 1, "valid"),
        _json_array(value["last_update_epoch"], int, 1, "last_update_epoch"))


def _stored(decode):
    return field(metadata={"decode": decode})


@dataclass
class Checkpoint:
    """Everything needed to continue a run bit-exactly, each field with the
    decoder that reads it back.  The unit graph is not stored: ``init_model``
    rebuilds it identically from the dataset or the seed.
    """
    epoch: int = _stored(_epoch)
    config: TrainConfig = _stored(_config)
    dataset_hash: str = _stored(lambda v: _json_value(v, str, "dataset_hash"))
    params: dict[str, np.ndarray] = _stored(_named_arrays)
    velocities: dict[str, np.ndarray] = _stored(_named_arrays)
    templates: SemanticTemplates = _stored(_templates)
    observed_labels: np.ndarray = _stored(
        lambda v: _json_array(v, int, 1, "observed_labels"))


CHECKPOINT_FORMAT = "aurelab-checkpoint-v2"


def _json_pieces(value) -> Iterator[str]:
    """The JSON text of ``value`` in pieces no larger than one matrix row: a
    dict, or a dataclass by its fields, key by key, a 2-D array row by row,
    anything else, an array as its list, in one ``json.dumps``.  The pieces
    join to the text one ``json.dumps`` of the whole gives, since the same
    encoder writes every number."""
    if is_dataclass(value):
        value = vars(value)
    if isinstance(value, dict):
        yield "{"
        for i, (key, item) in enumerate(value.items()):
            yield f"{', ' if i else ''}{json.dumps(key)}: "
            yield from _json_pieces(item)
        yield "}"
    elif isinstance(value, np.ndarray) and value.ndim == 2:
        yield "["
        for i, row in enumerate(value):
            yield f"{', ' if i else ''}{json.dumps(row.tolist())}"
        yield "]"
    else:
        yield json.dumps(value.tolist() if isinstance(value, np.ndarray)
                         else value)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write ``ckpt`` as a v2 checkpoint file, a matrix row at a time."""
    write_atomic(path, _json_pieces({"format": CHECKPOINT_FORMAT, **vars(ckpt)}))


_scan = json.JSONDecoder().raw_decode


def _walk_checkpoint(text: str) -> dict:
    """The document ``json.loads`` reads from ``text``, for the layout of
    ``save_checkpoint`` alone: each parameter and velocity matrix is read a
    row at a time straight into a float64 array (every leaf a JSON float,
    every row of one length); ``load_checkpoint`` checks the rest.  Keys
    may come in any order, and a later duplicate replaces the value.  Any
    other text, also one ``json.loads`` reads (an integer leaf, a matrix
    with no row, other white space than ``", "`` and ``": "``), raises one
    of ``_MALFORMED`` or RecursionError."""

    def skip(pos: int, literal: str) -> int:
        if not text.startswith(literal, pos):
            raise ValueError(f"expected {literal!r} at character {pos}")
        return pos + len(literal)

    def walk_object(pos: int, value_at) -> tuple[dict, int]:
        obj = {}
        pos = skip(pos, "{")
        while not text.startswith("}", pos):
            key, pos = _scan(text, skip(pos, ", ") if obj else pos)
            if type(key) is not str:
                raise TypeError(f"key {key!r} is not a string")
            obj[key], pos = value_at(key, skip(pos, ": "))
        return obj, pos + 1

    def matrix(_, pos: int) -> tuple[np.ndarray, int]:
        rows = []
        pos = skip(pos, "[")
        while not text.startswith("]", pos):
            row, pos = _scan(text, skip(pos, ", ") if rows else pos)
            if set(map(type, row)) != {float}:   # TypeError if not a list
                raise TypeError("not a row of JSON floats")
            rows.append(np.fromiter(row, float, len(row)))
        return np.stack(rows), pos + 1   # ValueError if rows differ in length

    doc, end = walk_object(0, lambda key, pos: walk_object(pos, matrix)
                           if key in ("params", "velocities")
                           else _scan(text, pos))
    if end != len(text):
        raise ValueError(f"text after the document at character {end}")
    return doc


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint file; anything but a well-formed v2 checkpoint
    raises InputError.  The text is read by ``_walk_checkpoint``, a matrix
    row at a time, or by ``json.loads`` where the walk does not read it;
    either document then has one check: its format, and each field's
    decoder, whose fault the message names."""
    text = "\n".join(read_lines(path))
    try:
        doc = _walk_checkpoint(text)
    except (*_MALFORMED, RecursionError):
        try:
            doc = json.loads(text)
        except (RecursionError, ValueError) as exc:
            why = "nested too deeply" if type(exc) is RecursionError else exc
            raise InputError(f"{path}: not a JSON file ({why})") from None
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt == "aurelab-checkpoint-v1":
        raise InputError(f"{path}: v1 checkpoints are no longer read; "
                         f"retrain to write {CHECKPOINT_FORMAT}")
    if fmt != CHECKPOINT_FORMAT:
        raise InputError(f"{path}: not an {CHECKPOINT_FORMAT} file")
    values = {}
    for f in fields(Checkpoint):
        try:
            values[f.name] = f.metadata["decode"](doc[f.name])
        except _MALFORMED as exc:
            raise InputError(f"{path}: field '{f.name}' is missing or "
                             f"malformed ({exc})") from None
    return Checkpoint(**values)


def restore_model(ckpt: Checkpoint, dataset: Dataset,
                  config: TrainConfig | None = None) -> Model:
    """Rebuild a checkpointed model, velocities included, on ``dataset``
    under ``config`` (by default the checkpoint's own), with the unit graph
    exactly as in training, writing every stored array in place; raises
    InputError when a stored shape does not fit."""
    model = init_model(dataset, config or ckpt.config)
    stored = [(f"{kind} {name}", store.get(name), t.data.shape)
              for kind, store in (("parameter", ckpt.params),
                                  ("velocity", ckpt.velocities))
              for name, t in model.parameters().items()]
    stored += [(f"template {name}", getattr(ckpt.templates, name), arr.shape)
               for name, arr in vars(model.templates).items()]
    for what, arr, shape in stored:
        if getattr(arr, "shape", None) != shape:
            raise InputError(
                f"checkpoint does not fit this dataset: {what} has shape "
                f"{getattr(arr, 'shape', None)}, expected {shape}")
    for name, tensor in model.parameters().items():
        tensor.data[...] = ckpt.params[name]
        model.velocities[name][...] = ckpt.velocities[name]
    model.templates = ckpt.templates.copy()
    return model


@dataclass
class TrainResult:
    model: Model
    metrics: list[EpochMetrics]
    records: list[RelabelRecord]
    final_dataset: Dataset
    checkpoint: Checkpoint


# glibc gives freed memory at the top of the heap back to the system once it
# passes the trim threshold (128 KiB by default).  A protocol step frees
# about 245 KB of GCN buffers, so the heap shrank after every step and grew
# again on the next: up to ~90 minor page faults per step, 75k-121k per
# protocol cell.  16 MiB of top pad keeps that memory mapped: 0 faults per
# step, 13-120 per repeated cell (a 2 MiB pad still takes 5-9 per step).
# Allocation does not change arithmetic.  C libraries without mallopt
# (macOS) are left alone.
_M_TOP_PAD = -2
_HEAP_TOP_PAD = 16 << 20


@cache
def _keep_heap_between_steps() -> None:
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_TOP_PAD, _HEAP_TOP_PAD)


def _train_step(model: Model, config: TrainConfig, ds: Dataset,
                idx: np.ndarray, params: list[ad.Tensor],
                lrs: tuple[float, float], weights: tuple[float, float],
                epoch: int, batch_no: int
                ) -> tuple[dict[str, float], tuple | None]:
    """One SGD step on the samples ``idx``, one update per branch of
    ``model.trained`` (``params`` lists their parameters in order): the
    step's four loss components and, with the detection branch on, its
    semantics, confidences, labels, sample ids and split, for
    ``relabel.epoch_corrections``.

    The step's tape is held only by locals of this function, so it is freed
    on return, before the next step builds its own tape or the epoch's
    evaluation runs; floats and plain arrays are all that leave.
    """
    n = len(idx)
    batch_labels = ds.observed_labels[idx]
    x = ad.constant(ds.features[idx])
    feats = model.target.features(x)

    if config.use_target_branch or config.use_aux_branch:
        conf = model.target.confidence(feats)
        high, low = confidence_split(conf, idx, config.high_fraction)
    if config.use_target_branch:
        gamma = class_weights(batch_labels, ds.n_classes)
        loss_wce = weighted_cross_entropy(
            feats, model.target.classifier_w, conf, gamma, batch_labels)
        loss_rank = rank_regularization(conf, high, low, config.rank_margin)
    else:
        ones = ad.constant(np.ones((n, 1)))
        loss_wce = weighted_cross_entropy(
            feats, model.target.classifier_w, ones,
            np.ones(ds.n_classes), batch_labels)
        loss_rank = ad.scalar(0.0)

    if config.use_aux_branch:
        probs, semantics = model.aux.semantic_logits(
            feats, model.graph.normalized)
        loss_au = au_detection_loss(probs, ds.au_labels[idx], conf.data)
    else:
        loss_au = ad.scalar(0.0)

    loss = total_loss(loss_wce, loss_rank, loss_au, *weights)
    components = {"wce": loss_wce.item(), "rank": loss_rank.item(),
                  "au": loss_au.item(), "total": loss.item()}
    if not all(math.isfinite(v) for v in components.values()):
        raise TrainingDivergedError(
            f"non-finite loss at epoch {epoch}, batch {batch_no}: "
            f"{components}", epoch=epoch, batch=batch_no,
            components=components)

    grads = np.concatenate([g.ravel() for g in ad.gradients(loss, params)])
    for (_, flat, velocity), lr in zip(model.trained, lrs):
        g, grads = grads[:flat.size], grads[flat.size:]
        if config.momentum > 0.0:
            velocity *= config.momentum
            velocity += g
            g = velocity
        flat -= lr * g

    if not config.use_aux_branch:
        return components, None
    return components, (semantics.data, conf.data[:, 0], batch_labels, idx,
                        high, low)


def train(dataset: Dataset, config: TrainConfig,
          eval_dataset: Dataset | None = None,
          resume: Checkpoint | None = None) -> TrainResult:
    """Run the full training loop; the input dataset is never mutated.

    Only its observed labels are copied, since label correction rewrites
    them; the features, unit bits and true labels are shared read-only, and
    the result's ``final_dataset`` shares them too.

    When ``eval_dataset`` is given, each epoch's accuracy and confusion
    come from it; otherwise each epoch records the figures of an evaluation
    of no sample (NaN accuracies, an all-zero confusion).  ``resume``
    continues a checkpointed run up to ``config.epochs`` total epochs, which
    may not be fewer than the checkpoint's; no reference to it is kept once
    the model and labels are restored from it.
    """
    config.validate()
    dataset.validate()
    if eval_dataset is not None:
        held_out, training = (f"C={d.n_classes} M={d.n_units} D={d.dim}"
                              for d in (eval_dataset, dataset))
        if held_out != training:
            raise InputError(f"held-out set has {held_out} but "
                             f"the training set has {training}")
    _keep_heap_between_steps()
    ds = replace(dataset, observed_labels=dataset.observed_labels.copy())
    batch_size = min(config.batch_size, ds.n)

    if resume is None:
        model = init_model(ds, config)
        start_epoch = 1
    else:
        was, given = vars(resume.config), vars(config)
        if differ := [f"{k}: {v} in the checkpoint, {given[k]} given" for k, v
                      in was.items() if k != "epochs" and v != given[k]]:
            raise ConfigError("checkpoint configuration does not match; only "
                              "the total epoch count may change on resume: "
                              + "; ".join(differ))
        if resume.epoch > config.epochs:
            raise ConfigError(f"checkpoint is at epoch {resume.epoch}, past "
                              f"the {config.epochs} total epochs asked for")
        model = restore_model(resume, ds, config)
        if resume.dataset_hash != ds.fingerprint():
            raise InputError("checkpoint was trained on a different "
                             "dataset; resume needs the same training set")
        labels = resume.observed_labels
        if labels.shape != (ds.n,) or np.any((labels < 0) | (labels >= ds.n_classes)):
            raise InputError("checkpoint labels do not fit the dataset")
        ds.observed_labels[...] = labels
        start_epoch = resume.epoch + 1
        # the model and labels are copies: a caller that handed over its
        # last reference to the checkpoint has it freed here
        del resume, labels

    params = [t for branch, *_ in model.trained for t in branch.values()]
    metrics: list[EpochMetrics] = []
    all_records: list[RelabelRecord] = []

    # With both branches off the model degenerates to a standard classifier:
    # plain cross-entropy at full weight, no ramp damping.
    plain_baseline = not (config.use_target_branch or config.use_aux_branch)

    for epoch in range(start_epoch, config.epochs + 1):
        if plain_baseline:
            weights = 2.0, 0.0
        else:
            weights = ramp_weights(epoch, config.ramp_pivot)
        # the target branch's rate, then the detection branch's
        lrs = config.lr_target(epoch), config.lr_aux_at(epoch)
        steps = []
        sums = {"wce": 0.0, "rank": 0.0, "au": 0.0, "total": 0.0}

        for batch_no, idx in enumerate(
                batches(ds, batch_size, config.seed * 1_000_003 + epoch)):
            components, step = _train_step(
                model, config, ds, idx, params, lrs, weights, epoch,
                batch_no)
            for key, v in components.items():
                sums[key] += v * len(idx)
            steps.append(step)

        epoch_records = epoch_corrections(
            model.templates, steps, epoch, epoch > config.warmup_epochs
        ) if config.use_aux_branch else []

        start_labels = ds.observed_labels.copy()
        apply_corrections(ds, epoch_records)
        all_records.extend(epoch_records)
        precision, recall = correction_figures(
            start_labels, ds.observed_labels, ds.true_labels)
        report = (evaluate(model, eval_dataset) if eval_dataset is not None
                  else EvalReport(math.nan, np.full(ds.n_classes, math.nan),
                                  np.zeros((ds.n_classes,) * 2, np.int64), 0))

        metrics.append(EpochMetrics(
            epoch=epoch, target_weight=weights[0], aux_weight=weights[1],
            loss_wce=sums["wce"] / ds.n, loss_rank=sums["rank"] / ds.n,
            loss_au=sums["au"] / ds.n, loss_total=sums["total"] / ds.n,
            accuracy=report.accuracy,
            per_class_accuracy=report.per_class_accuracy,
            confusion=report.confusion,
            relabel_count=len(epoch_records), relabel_precision=precision,
            relabel_recall=recall,
            noise_rate=ds.observed_noise_rate()))

    ckpt = Checkpoint(
        epoch=config.epochs,
        config=config, dataset_hash=ds.fingerprint(),
        params={k: t.data.copy() for k, t in model.parameters().items()},
        velocities={k: v.copy() for k, v in model.velocities.items()},
        templates=model.templates.copy(),
        observed_labels=ds.observed_labels.copy())
    return TrainResult(model, metrics, all_records, ds, ckpt)
