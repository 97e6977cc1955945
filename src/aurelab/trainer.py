"""End-to-end training: ramped composite loss, per-branch SGD, template
maintenance, deferred label correction, evaluation, and checkpointing.

Per epoch, each shuffled batch runs: backbone forward, confidence scores,
class weights, high/low split, detection branch forward, loss composition,
one SGD step with per-branch learning rates, template update from the high
group, and (after the warmup) correction decisions for the low group.
Corrections collected during an epoch are applied to the stored labels
between epochs.  The detection branch never participates in evaluation:
predictions are the plain argmax of the classifier logits.
"""

from __future__ import annotations

import ctypes
import json
import math
import warnings
from dataclasses import dataclass, field, fields, replace
from functools import cache

import numpy as np

from . import autodiff as ad
from .aux_branch import (AUGraph, AuxiliaryBranch, au_detection_loss,
                         build_au_graph, random_au_graph)
from .data import Dataset, batches, write_text_atomic
from .errors import (CheckpointError, ConfigError, DatasetValidationError,
                     TrainingDivergedError)
from .relabel import (RelabelRecord, SemanticTemplates, apply_corrections,
                      correction_figures, decide_relabel, semantic_distances)
from .target_branch import (TargetBranch, class_weights, confidence_split,
                            rank_regularization, weighted_cross_entropy)


@dataclass(frozen=True)
class TrainConfig:
    """All training hyperparameters.

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
    batch_size: int = 512
    lr_initial: float = 0.01
    lr_drops: tuple[tuple[int, float], ...] = ((10, 1e-3), (20, 1e-4))
    lr_aux: float = 0.005
    lr_aux_decay: float = 0.95
    momentum: float = 0.0
    warmup_epochs: int = 10
    seed: int = 0
    hidden_dim: int = 64
    feat_dim: int = 32
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
    """Epoch-dependent loss weights (classifier side, detection side).

    The classifier weight ramps up as exp(-(1 - epoch/pivot)^2) until the
    pivot then stays 1; the detection weight is 1 until the pivot then decays
    as exp(-(1 - pivot/epoch)^2).  Both are 1 exactly at the pivot.
    """
    if epoch < 1:
        raise ConfigError(f"epoch must be >= 1, got {epoch}")
    if pivot < 1:
        raise ConfigError(f"ramp pivot must be >= 1, got {pivot}")
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


class Model:
    """Both branches plus the frozen unit graph and the template store."""

    def __init__(self, target: TargetBranch, aux: AuxiliaryBranch,
                 graph: AUGraph, templates: SemanticTemplates,
                 config: TrainConfig):
        self.target = target
        self.aux = aux
        self.graph = graph
        self.templates = templates
        self.config = config

    def parameters(self) -> dict[str, ad.Tensor]:
        return {**self.target.parameters(), **self.aux.parameters()}

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Class predictions from the classifier logits alone; the detection
        branch and the confidence scale play no part."""
        x = ad.constant(np.asarray(features, dtype=np.float64))
        feats = self.target.features(x)
        return np.argmax(self.target.logits(feats).data, axis=1)


def trained_parameters(model: Model, config: TrainConfig
                       ) -> dict[str, ad.Tensor]:
    """The parameters a step under ``config`` can move.

    No loss reads the detection branch when it is off, nor the confidence
    head when the target branch is off; their gradients and velocities stay
    zero all run long, so leaving them out of the update changes no number.
    """
    params = model.target.parameters()
    if not config.use_target_branch:
        del params[model.target.confidence_w.name]
    if config.use_aux_branch:
        params.update(model.aux.parameters())
    return params


def init_model(dataset: Dataset, config: TrainConfig,
               rng: np.random.Generator) -> Model:
    target = TargetBranch(dataset.dim, config.hidden_dim, config.feat_dim,
                          dataset.n_classes, config.leaky_slope, rng)
    aux = AuxiliaryBranch(config.feat_dim, dataset.n_units, config.node_dim,
                          config.gcn_channels, config.leaky_slope, rng)
    if config.random_edges:
        graph = random_au_graph(dataset.n_units, rng)
    else:
        graph = build_au_graph(dataset.au_labels)
    templates = SemanticTemplates.empty(dataset.n_classes, dataset.n_units)
    return Model(target, aux, graph, templates, config)


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


METRICS_FIXED_COLUMNS = ("epoch", "target_weight", "aux_weight", "loss_wce",
                         "loss_rank", "loss_au", "loss_total", "accuracy",
                         "relabel_count", "relabel_precision",
                         "relabel_recall", "noise_rate")


def metrics_header(n_classes: int) -> str:
    cols = list(METRICS_FIXED_COLUMNS)
    cols.extend(f"class_acc_{c}" for c in range(n_classes))
    cols.extend(f"cm_{i}_{j}" for i in range(n_classes) for j in range(n_classes))
    return ",".join(cols)


def metrics_row(m: EpochMetrics) -> str:
    vals = [repr(getattr(m, name)) for name in METRICS_FIXED_COLUMNS]
    vals.extend(repr(float(v)) for v in m.per_class_accuracy)
    vals.extend(str(int(v)) for v in m.confusion.ravel())
    return ",".join(vals)


def write_metrics_csv(metrics: list[EpochMetrics], n_classes: int, path) -> None:
    lines = [metrics_header(n_classes)]
    lines.extend(metrics_row(m) for m in metrics)
    write_text_atomic(path, "\n".join(lines) + "\n")


# Decoders of a checkpoint's JSON values; each raises AttributeError,
# KeyError, OverflowError, TypeError or ValueError on a malformed value.

_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float)}


def _json_value(value, kind: type, name: str):
    """``value`` as ``kind`` when its JSON type fits: true or false for a
    bool, an integer for an int, any number for a float, and a list of
    [integer, number] pairs for a tuple (``lr_drops``)."""
    if kind is tuple:
        return tuple((_json_value(e, int, name), _json_value(r, float, name))
                     for e, r in value)
    if type(value) not in _JSON_TYPES[kind]:
        raise TypeError(f"{name} must be of type {kind.__name__}, "
                        f"got {value!r}")
    return kind(value)


def _named_arrays(value) -> dict[str, np.ndarray]:
    return {name: np.asarray(v, dtype=np.float64) for name, v in value.items()}


def _config(value) -> TrainConfig:
    kinds = {f.name: type(f.default) for f in fields(TrainConfig)}
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


def _json_list(value, kind: type, name: str) -> np.ndarray:
    """A JSON list of ``kind`` values, each checked by ``_json_value``."""
    if type(value) is not list:
        raise TypeError(f"{name} must be a list, got {value!r}")
    return np.array([_json_value(v, kind, name) for v in value],
                    dtype=np.int64 if kind is int else kind)


def _templates(value) -> SemanticTemplates:
    return SemanticTemplates(
        np.asarray(value["vectors"], dtype=np.float64),
        _json_list(value["valid"], bool, "valid"),
        _json_list(value["last_update_epoch"], int, "last_update_epoch"))


def _rng_state(value) -> dict:
    np.random.PCG64(0).state = value   # raises unless a PCG64 state
    return value


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
    dataset_hash: str = _stored(str)
    params: dict[str, np.ndarray] = _stored(_named_arrays)
    velocities: dict[str, np.ndarray] = _stored(_named_arrays)
    templates: SemanticTemplates = _stored(_templates)
    observed_labels: np.ndarray = _stored(
        lambda value: _json_list(value, int, "observed_labels"))
    rng_state: dict = _stored(_rng_state)


CHECKPOINT_FORMAT = "aurelab-checkpoint-v2"


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    doc = {"format": CHECKPOINT_FORMAT, **vars(ckpt)}
    write_text_atomic(path, json.dumps(doc, default=lambda obj: (
        obj.tolist() if isinstance(obj, np.ndarray) else vars(obj))))


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint file; anything but a well-formed v2 checkpoint
    raises CheckpointError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise CheckpointError(f"{path}: not a JSON file ({exc})") from None
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt == "aurelab-checkpoint-v1":
        raise CheckpointError(f"{path}: v1 checkpoints are no longer read; "
                              f"retrain to write {CHECKPOINT_FORMAT}")
    if fmt != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: not an {CHECKPOINT_FORMAT} file")
    values = {}
    for f in fields(Checkpoint):
        try:
            values[f.name] = f.metadata["decode"](doc[f.name])
        except (AttributeError, KeyError, OverflowError, TypeError,
                ValueError) as exc:
            raise CheckpointError(f"{path}: field '{f.name}' is missing or "
                                  f"malformed ({exc})") from None
    return Checkpoint(**values)


def restore_model(ckpt: Checkpoint, dataset: Dataset,
                  config: TrainConfig | None = None
                  ) -> tuple[Model, np.random.Generator]:
    """Rebuild a checkpointed model on ``dataset`` under ``config`` (by
    default the checkpoint's own), with the unit graph exactly as in
    training; raises CheckpointError when a stored shape does not fit."""
    config = config or ckpt.config
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    model = init_model(dataset, config, rng)
    stored = [(f"{kind} {name}", store.get(name), t.data.shape)
              for kind, store in (("parameter", ckpt.params),
                                  ("velocity", ckpt.velocities))
              for name, t in model.parameters().items()]
    stored += [(f"template {name}", getattr(ckpt.templates, name), arr.shape)
               for name, arr in vars(model.templates).items()]
    for what, arr, shape in stored:
        if getattr(arr, "shape", None) != shape:
            raise CheckpointError(
                f"checkpoint does not fit this dataset: {what} has shape "
                f"{getattr(arr, 'shape', None)}, expected {shape}")
    for name, tensor in model.parameters().items():
        tensor.data[...] = ckpt.params[name]
    model.templates = ckpt.templates.copy()
    rng.bit_generator.state = ckpt.rng_state
    return model, rng


@dataclass
class TrainResult:
    model: Model
    metrics: list[EpochMetrics]
    records: list[RelabelRecord]
    final_dataset: Dataset
    checkpoint: Checkpoint


def _epoch_seed(seed: int, epoch: int) -> int:
    return seed * 1_000_003 + epoch


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


def train(dataset: Dataset, config: TrainConfig,
          eval_dataset: Dataset | None = None,
          resume: Checkpoint | None = None) -> TrainResult:
    """Run the full training loop; the input dataset is copied, never mutated.

    When ``eval_dataset`` is given, per-epoch accuracy/confusion come from it;
    otherwise they are measured on the training samples against their hidden
    true labels.  ``resume`` continues a checkpointed run up to
    ``config.epochs`` total epochs.
    """
    config.validate()
    dataset.validate()
    if eval_dataset is not None:
        held_out, training = (f"C={d.n_classes} M={d.n_units} D={d.dim}"
                              for d in (eval_dataset, dataset))
        if held_out != training:
            raise DatasetValidationError(f"held-out set has {held_out} but "
                                         f"the training set has {training}")
    _keep_heap_between_steps()
    ds = dataset.copy()
    batch_size = min(config.batch_size, ds.n)

    if resume is None:
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(config.seed)))
        model = init_model(ds, config, rng)
        start_epoch = 1
    else:
        if replace(resume.config, epochs=config.epochs) != config:
            raise ConfigError("checkpoint configuration does not match; "
                              "only the total epoch count may change on resume")
        model, rng = restore_model(resume, ds, config)
        if resume.dataset_hash != ds.fingerprint():
            raise CheckpointError("checkpoint was trained on a different "
                                  "dataset; resume needs the same training set")
        labels = resume.observed_labels
        if labels.shape != (ds.n,) or np.any((labels < 0) | (labels >= ds.n_classes)):
            raise CheckpointError("checkpoint labels do not fit the dataset")
        ds.observed_labels[...] = labels
        start_epoch = resume.epoch + 1

    velocities = {name: resume.velocities[name].copy() if resume
                  else np.zeros_like(t.data)
                  for name, t in model.parameters().items()}
    params = trained_parameters(model, config)
    target_names = set(model.target.parameters())
    metrics: list[EpochMetrics] = []
    all_records: list[RelabelRecord] = []

    # With both branches off the model degenerates to a standard classifier:
    # plain cross-entropy at full weight, no ramp damping.
    plain_baseline = not (config.use_target_branch or config.use_aux_branch)

    for epoch in range(start_epoch, config.epochs + 1):
        if plain_baseline:
            lam_target, lam_aux = 2.0, 0.0
        else:
            lam_target, lam_aux = ramp_weights(epoch, config.ramp_pivot)
        lr_t = config.lr_target(epoch)
        lr_a = config.lr_aux_at(epoch)
        relabel_on = config.use_aux_branch and epoch > config.warmup_epochs
        epoch_records: list[RelabelRecord] = []
        sums = {"wce": 0.0, "rank": 0.0, "au": 0.0, "total": 0.0}

        for batch_no, idx in enumerate(
                batches(ds, batch_size, _epoch_seed(config.seed, epoch))):
            n = len(idx)
            batch_labels = ds.observed_labels[idx]
            x = ad.constant(ds.features[idx])
            feats = model.target.features(x)

            if not plain_baseline:
                conf = model.target.confidence(feats)
                high, low = confidence_split(conf, idx, config.high_fraction)
            if config.use_target_branch:
                gamma = class_weights(batch_labels, ds.n_classes)
                loss_wce = weighted_cross_entropy(
                    feats, model.target.classifier_w, conf, gamma, batch_labels)
                loss_rank = rank_regularization(conf, high, low,
                                                config.rank_margin)
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

            loss = total_loss(loss_wce, loss_rank, loss_au, lam_target, lam_aux)
            components = {"wce": loss_wce.item(), "rank": loss_rank.item(),
                          "au": loss_au.item(), "total": loss.item()}
            if not all(math.isfinite(v) for v in components.values()):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}: "
                    f"{components}", epoch=epoch, batch=batch_no,
                    components=components)
            for key, v in components.items():
                sums[key] += v * n

            grads = ad.gradients(loss, list(params.values()))
            for (name, tensor), g in zip(params.items(), grads):
                lr = lr_t if name in target_names else lr_a
                if config.momentum > 0.0:
                    v = velocities[name]
                    v *= config.momentum
                    v += g
                    g = v
                tensor.data -= lr * g

            if config.use_aux_branch:
                sem_vals = semantics.data
                model.templates.update(sem_vals[high], conf.data[high, 0],
                                       batch_labels[high], epoch)
                if relabel_on:
                    low = low[np.argsort(idx[low])]
                    low_sem = sem_vals[low]
                    dists = semantic_distances(low_sem, model.templates)
                    zero = np.linalg.norm(low_sem, axis=1) == 0.0
                    if zero.any() and model.templates.usable().any():
                        for sid in idx[low[zero]]:
                            warnings.warn(f"skipping relabel of sample "
                                          f"{int(sid)}: zero-norm semantics")
                    org = batch_labels[low]
                    new = decide_relabel(dists, org)
                    for j in np.flatnonzero(new != org):
                        epoch_records.append(RelabelRecord(
                            int(idx[low[j]]), int(org[j]), int(new[j]),
                            dists[j].copy(), epoch))

        start_labels = ds.observed_labels.copy()
        apply_corrections(ds, epoch_records)
        all_records.extend(epoch_records)
        precision, recall = correction_figures(
            start_labels, ds.observed_labels, ds.true_labels)
        report = evaluate(model, eval_dataset if eval_dataset is not None
                          else replace(ds, observed_labels=ds.true_labels))

        metrics.append(EpochMetrics(
            epoch=epoch, target_weight=lam_target, aux_weight=lam_aux,
            loss_wce=sums["wce"] / ds.n, loss_rank=sums["rank"] / ds.n,
            loss_au=sums["au"] / ds.n, loss_total=sums["total"] / ds.n,
            accuracy=report.accuracy,
            per_class_accuracy=report.per_class_accuracy,
            confusion=report.confusion,
            relabel_count=len(epoch_records), relabel_precision=precision,
            relabel_recall=recall,
            noise_rate=ds.observed_noise_rate()))

    ckpt = Checkpoint(
        epoch=max(config.epochs, resume.epoch if resume else 0),
        config=config, dataset_hash=ds.fingerprint(),
        params={k: t.data.copy() for k, t in model.parameters().items()},
        velocities={k: v.copy() for k, v in velocities.items()},
        templates=model.templates.copy(),
        observed_labels=ds.observed_labels.copy(),
        rng_state=rng.bit_generator.state)
    return TrainResult(model, metrics, all_records, ds, ckpt)
