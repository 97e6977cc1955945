"""Independent reference implementations used to check the library.

Everything here is deliberately written the dumb way (loops, direct
formulas) and must stay decoupled from the package internals.  The loss
compositions at the end are built from generic tape primitives only
(``tape_kit``'s and the library's); the library computes each loss as one tape node, and its value and
gradients must equal these compositions bit for bit.
"""

import itertools
import json
import math
import warnings
from dataclasses import fields, is_dataclass

import numpy as np

from aurelab import autodiff as ad
from aurelab import data
from aurelab.relabel import RelabelRecord, decide_relabel, semantic_distances
from aurelab.errors import InputError
from aurelab.trainer import CHECKPOINT_FORMAT, Checkpoint

import tape_kit as tk


def nearest_prototype_accuracy(ds) -> float:
    """Classify by nearest per-class feature mean (means from true labels)."""
    means = np.stack([ds.features[ds.true_labels == c].mean(axis=0)
                      for c in range(ds.n_classes)])
    hits = 0
    for i in range(ds.n):
        dists = [np.linalg.norm(ds.features[i] - means[c])
                 for c in range(ds.n_classes)]
        hits += int(np.argmin(dists) == ds.true_labels[i])
    return hits / ds.n


def gathered_features(n_classes, dim, n, class_spread, within_noise, seed):
    """``data.generate``'s features as it once built them: the prototypes
    gathered per sample, plus the scaled draws, a new array for each of the
    three steps."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    for _ in range(100):
        cand = rng.standard_normal((n_classes, dim))
        norms = np.linalg.norm(cand, axis=1, keepdims=True)
        if np.any(norms == 0):
            continue
        cand = cand / norms * class_spread
        dists = np.linalg.norm(cand[:, None, :] - cand[None, :, :], axis=2)
        np.fill_diagonal(dists, np.inf)
        if dists.min() > 1e-9:
            break
    true = np.arange(n, dtype=np.int64) % n_classes
    return cand[true] + within_noise * rng.standard_normal((n, dim))


def cooccurrence_by_double_loop(bits) -> np.ndarray:
    """Conditional co-occurrence matrix by explicit pairwise counting."""
    bits = np.asarray(bits)
    n, m = bits.shape
    out = np.zeros((m, m))
    for p in range(m):
        for q in range(m):
            occ_q = sum(int(bits[i, q] == 1) for i in range(n))
            both = sum(int(bits[i, p] == 1 and bits[i, q] == 1)
                       for i in range(n))
            out[p, q] = both / occ_q if occ_q > 0 else 0.0
    return out


def au_table_by_combination_scan(n_classes, n_units):
    """The class -> unit table of a size other than 7x12 by scanning every
    ``itertools.combinations`` pattern in order, at each overlap limit in
    turn, or None when no limit gives ``n_classes`` patterns."""
    weight = min(max(2, round(2 * n_units / n_classes)),
                 max(2, n_units // 2))
    for max_overlap in range(weight):
        chosen = []
        for cand in itertools.combinations(range(n_units), weight):
            if all(len(set(cand) & set(row)) <= max_overlap for row in chosen):
                chosen.append(cand)
                if len(chosen) == n_classes:
                    table = np.zeros((n_classes, n_units), dtype=np.int64)
                    for row, pattern in enumerate(chosen):
                        table[row, list(pattern)] = 1
                    return table
    return None


def _row_by_row(line, i, lineno, n_units, dim, n_classes):
    fields = line.split(",")
    if len(fields) != 3 + n_units + dim:
        raise InputError(
            f"line {lineno}: expected {3 + n_units + dim} fields "
            f"(3 + M={n_units} + D={dim}), got {len(fields)}")
    try:
        # the format is numpy's: no underscore, no non-ASCII digit
        if any("_" in f or not f.strip().isascii() for f in fields):
            raise ValueError
        sid = int(fields[0])
        obs, tru = int(fields[1]), int(fields[2])
        bits = list(map(int, fields[3:3 + n_units]))
        vals = list(map(float, fields[3 + n_units:]))
        # and no integer beyond int64
        if not all(-2**63 <= v < 2**63 for v in (sid, obs, tru, *bits)):
            raise ValueError
    except ValueError:
        raise InputError(f"line {lineno}: unparseable field") from None
    if sid != i:
        raise InputError(
            f"line {lineno}: sample id {sid} out of order (expected {i})")
    if not (0 <= obs < n_classes and 0 <= tru < n_classes):
        raise InputError(f"line {lineno}: label out of range")
    if any(b not in (0, 1) for b in bits):
        raise InputError(f"line {lineno}: unit bits must be 0/1")
    return obs, tru, bits, vals


def load_row_at_a_time(path):
    """``data.load`` as it was before it parsed blocks through numpy: every
    field goes through ``int`` or ``float``, one row at a time, into arrays
    that double as rows arrive, and only the fields numpy reads are
    accepted.  The header and line readers are the library's, and a fault
    names the file as the library's does."""
    first = len(data._HEADER_KEYS)
    try:
        lines = data.read_lines(path)
        header = data._read_header(lines)
        n_classes, n_units, dim, n = (header[key] for key in "CMDn")
        features = np.empty((0, dim))
        observed = np.empty(0, dtype=np.int64)
        true = np.empty(0, dtype=np.int64)
        au = np.empty((0, n_units), dtype=np.int64)
        fault = None
        rows = blanks = 0
        for line in lines:
            if not line:
                blanks += 1
                continue
            for text in [""] * blanks + [line]:
                if fault is None and rows < n:
                    try:
                        obs, tru, bits, vals = _row_by_row(
                            text, rows, first + 1 + rows, n_units, dim,
                            n_classes)
                    except InputError as exc:
                        fault = exc
                    else:
                        if rows == len(observed):
                            cap = min(2 * rows or 1, n)
                            features.resize((cap, dim), refcheck=False)
                            au.resize((cap, n_units), refcheck=False)
                            observed.resize(cap, refcheck=False)
                            true.resize(cap, refcheck=False)
                        observed[rows], true[rows] = obs, tru
                        au[rows] = bits
                        features[rows] = vals
                rows += 1
            blanks = 0
        if rows != n:
            raise InputError(
                f"line {first + rows + 1}: header declares n={n} "
                f"samples but file has {rows}")
        if fault is not None:
            raise fault
        ds = data.Dataset(features, observed, true, au, n_classes, n_units, dim,
                          header["corruption_rate"], header["seed"])
        ds.validate()
    except InputError as exc:
        if str(exc).startswith(f"{path}: "):   # the reader names the file
            raise
        where = ", " if str(exc).startswith("line ") else ": "
        raise InputError(f"{path}{where}{exc}") from None
    return ds


def one_shot_checkpoint_text(ckpt) -> str:
    """A checkpoint file's text as ``save_checkpoint`` wrote it before it
    wrote a matrix row at a time: the whole document in one ``json.dumps``."""
    return json.dumps({"format": CHECKPOINT_FORMAT, **vars(ckpt)},
                      default=lambda obj: obj.tolist()
                      if isinstance(obj, np.ndarray) else vars(obj))


def one_shot_load_checkpoint(path) -> Checkpoint:
    """A checkpoint file as ``load_checkpoint`` read it before it walked
    the file a matrix row at a time: the whole document in one
    ``json.loads``, then each field through its decoder."""
    text = "\n".join(data.read_lines(path))
    try:
        doc = json.loads(text)
    except RecursionError:
        raise InputError(f"{path}: not a JSON file (nested too deeply)") from None
    except ValueError as exc:
        raise InputError(f"{path}: not a JSON file ({exc})") from None
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
        except (AttributeError, KeyError, OverflowError, TypeError,
                ValueError) as exc:
            raise InputError(f"{path}: field '{f.name}' is missing or "
                             f"malformed ({exc})") from None
    return Checkpoint(**values)


def bits(value):
    """``value`` as plain data that is equal only for the same types and
    bits: an array as its dtype, shape and bytes, a dataclass or dict as
    its items in order, anything else with its type."""
    if isinstance(value, np.ndarray):
        return "array", value.dtype.str, value.shape, value.tobytes()
    if is_dataclass(value):
        return type(value).__name__, bits(vars(value))
    if isinstance(value, dict):
        return "dict", [(key, bits(item)) for key, item in value.items()]
    if isinstance(value, tuple):
        return "tuple", [bits(item) for item in value]
    return type(value).__name__, repr(value)


def checkpoint_outcome(load, path):
    """``load(path)``'s checkpoint as ``bits``, or the text of the
    InputError it raises."""
    try:
        return bits(load(path))
    except InputError as exc:
        return "InputError", str(exc)


def scalar_class_weights(labels, n_classes) -> list:
    n = len(labels)
    return [1.0 - sum(1 for y in labels if y == j) / n for j in range(n_classes)]


def scalar_ramp_weights(epoch, pivot):
    if epoch <= pivot:
        return math.exp(-(1.0 - epoch / pivot) ** 2), 1.0
    return 1.0, math.exp(-(1.0 - pivot / epoch) ** 2)


def scalar_cosine_distance(t, s) -> float:
    dot = sum(a * b for a, b in zip(t, s))
    nt = math.sqrt(sum(a * a for a in t))
    ns = math.sqrt(sum(b * b for b in s))
    return 1.0 - dot / (nt * ns)


def scalar_relabel(distances, original) -> int:
    """Strictly-closer-other-class rule, ties to the smallest class index."""
    valid = [j for j, d in enumerate(distances) if not math.isnan(d)]
    if original not in valid or len(valid) < 2:
        return original
    best, best_d = None, None
    for j in valid:
        if j == original:
            continue
        if best_d is None or distances[j] < best_d:
            best, best_d = j, distances[j]
    if distances[original] - best_d > 0.0:
        return best
    return original


def scalar_correction_figures(start, end, true):
    """(precision, recall) of the moves from ``start`` to ``end`` labels, by
    one pass over the samples; NaN when nothing moved or nothing was wrong."""
    moved = moved_right = wrong = fixed = 0
    for s, e, t in zip(start, end, true):
        if s != e:
            moved += 1
            moved_right += int(e == t)
        if s != t:
            wrong += 1
            fixed += int(e == t)
    return (moved_right / moved if moved else math.nan,
            fixed / wrong if wrong else math.nan)


def two_where_leaky_relu(x, slope):
    """Leaky ReLU output and local gradient, each by its own np.where."""
    factor = np.where(x > 0, 1.0, slope)
    return np.where(x > 0, x, slope * x), factor


def factor_leaky_relu(x, slope, g):
    """Leaky ReLU output and vjp of ``g`` through one float factor, 1.0
    where x > 0 and the slope elsewhere (NaN included)."""
    factor = np.maximum(x > 0, slope)
    return x * factor, g * factor


def masked_sigmoid(x):
    """Logistic function with each branch evaluated on its own entries."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def broadcast_block_row_dot_grads(g, x3, w):
    """Gradients of block_row_dot by broadcast products and a sum over
    blocks: (d blocks of x, d w)."""
    g3 = g[:, :, None]
    return g3 * w, (g3 * x3).sum(axis=0)


def scalar_softmax_ce(logits_row, label) -> float:
    mx = max(logits_row)
    exps = [math.exp(v - mx) for v in logits_row]
    return -math.log(exps[label] / sum(exps))


def per_class_template_update(vectors, valid, last_update_epoch, semantics,
                              confidence, labels, epoch) -> None:
    """Template update by one masked weighted sum per present class, in
    place.  ``sum(axis=0)`` adds the rows in order for two or more units."""
    for c in np.unique(labels):
        members = labels == c
        weighted = confidence[members, None] * semantics[members]
        vectors[c] = weighted.sum(axis=0) / members.sum()
        valid[c] = True
        last_update_epoch[c] = epoch


def propose_corrections(templates, semantics, labels, sample_ids, epoch):
    """The moves ``decide_relabel`` makes in one batch's low-confidence
    group, given in any order (semantics (k, M), labels, sample ids), in
    sample-id order; a zero-norm sample stays, with a warning if a template
    is usable.  The per-batch reference for ``relabel.epoch_corrections``,
    which takes an epoch's steps at once."""
    order = np.argsort(sample_ids)
    semantics, labels, ids = semantics[order], labels[order], sample_ids[order]
    dists = semantic_distances(semantics, templates)
    zero = np.linalg.norm(semantics, axis=1) == 0.0
    if zero.any() and templates.usable().any():
        for sid in ids[zero]:
            warnings.warn(f"skipping relabel of sample "
                          f"{int(sid)}: zero-norm semantics")
    new = decide_relabel(dists, labels)
    return [RelabelRecord(int(ids[j]), int(labels[j]), int(new[j]),
                          dists[j].copy(), epoch)
            for j in np.flatnonzero(new != labels)]


def one_step_at_a_time(templates, steps, epoch, propose):
    """The per-step sequence that ``relabel.epoch_corrections`` does at
    once: each step's template update by the per-class loop, then, when
    ``propose``, its corrections by ``propose_corrections``."""
    records = []
    for sem, conf, labels, ids, high, low in steps:
        per_class_template_update(templates.vectors, templates.valid,
                                  templates.last_update_epoch, sem[high],
                                  conf[high], labels[high], epoch)
        if propose:
            records += propose_corrections(templates, sem[low], labels[low],
                                           ids[low], epoch)
    return records


def per_parameter_sgd(params, velocities, grads, lrs, momentum) -> None:
    """Momentum SGD one named parameter at a time: v <- momentum * v + g
    and p <- p - lr * v, or p <- p - lr * g with v untouched at momentum 0.
    Rebinds the entries of ``params`` and ``velocities``."""
    for name, g in grads.items():
        if momentum > 0.0:
            velocities[name] = momentum * velocities[name] + g
            g = velocities[name]
        params[name] = params[name] - lrs[name] * g


def whole_set_predict(model, features) -> np.ndarray:
    """``Model.predict`` in one forward over every row at once."""
    x = ad.constant(np.asarray(features, dtype=np.float64))
    feats = model.target.features(x)
    return np.argmax(model.target.logits(feats).data, axis=1)


def composed_weighted_cross_entropy(features, classifier_w, confidence,
                                    class_wts, labels):
    """Confidence- and class-scaled softmax cross-entropy, one primitive per
    step."""
    labels = np.asarray(labels)
    n, n_cls = features.rows, classifier_w.cols
    sel = ad.constant(np.asarray(class_wts, dtype=np.float64)[labels].reshape(n, 1))
    scales = tk.mul(confidence, sel)
    scaled = tk.scale_rows(ad.matmul(features, classifier_w), scales)
    logp = ad.log_softmax_row(scaled)
    onehot = np.zeros((n, n_cls))
    onehot[np.arange(n), labels] = 1.0
    picked = ad.row_sum(tk.mul(logp, ad.constant(onehot)))
    return tk.scale(ad.total_sum(picked), -1.0 / n)


def composed_rank_hinge(confidence, high, low, margin):
    """max(0, margin - (mean of the high group - mean of the low group)) for
    a batch of at least 2 samples."""
    n, k = confidence.rows, len(high)
    mask_h = np.zeros((1, n))
    mask_h[0, high] = 1.0 / k
    mask_l = np.zeros((1, n))
    mask_l[0, low] = 1.0 / (n - k)
    avg_h = ad.matmul(ad.constant(mask_h), confidence)
    avg_l = ad.matmul(ad.constant(mask_l), confidence)
    return tk.relu(tk.sub(ad.scalar(margin), tk.sub(avg_h, avg_l)))


def composed_au_detection_loss(probs, au_bits, confidence):
    """Confidence-weighted binary cross-entropy over clamped probabilities."""
    n, m = probs.shape
    z = np.asarray(au_bits, dtype=np.float64)
    alpha = np.asarray(confidence, dtype=np.float64).reshape(n, 1)
    p = tk.clip(probs, 1e-12, 1.0 - 1e-12)
    on = tk.mul(ad.constant(z), tk.log(p))
    off = tk.mul(ad.constant(1.0 - z),
                 tk.log(tk.sub(ad.constant(np.ones((n, m))), p)))
    per_sample = ad.row_sum(tk.add(on, off))
    weighted = tk.mul(per_sample, ad.constant(alpha))
    return tk.scale(ad.total_sum(weighted), -1.0 / n)


def composed_total_loss(loss_wce, loss_rank, loss_au, target_weight,
                        aux_weight):
    """(target_weight / 2) * (wce + rank) + aux_weight * au."""
    target_part = tk.scale(tk.add(loss_wce, loss_rank), target_weight / 2.0)
    return tk.add(target_part, tk.scale(loss_au, aux_weight))
