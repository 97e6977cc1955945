"""Independent reference implementations used to check the library.

Everything here is deliberately written the dumb way (loops, direct
formulas) and must stay decoupled from the package internals.  The loss
compositions at the end are built from generic tape primitives only
(``tape_kit``'s and the library's); the library computes each loss as one tape node, and its value and
gradients must equal these compositions bit for bit.
"""

import itertools
import math

import numpy as np

from aurelab import autodiff as ad
from aurelab import data
from aurelab.errors import DatasetFormatError, DatasetValidationError

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
        raise DatasetValidationError(
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
        raise DatasetFormatError(f"line {lineno}: unparseable field") from None
    if sid != i:
        raise DatasetValidationError(
            f"line {lineno}: sample id {sid} out of order (expected {i})")
    if not (0 <= obs < n_classes and 0 <= tru < n_classes):
        raise DatasetValidationError(f"line {lineno}: label out of range")
    if any(b not in (0, 1) for b in bits):
        raise DatasetValidationError(f"line {lineno}: unit bits must be 0/1")
    return obs, tru, bits, vals


def load_row_at_a_time(path):
    """``data.load`` as it was before it parsed blocks through numpy: every
    field goes through ``int`` or ``float``, one row at a time, into arrays
    that double as rows arrive, and only the fields numpy reads are
    accepted.  The header and line readers are the library's."""
    first = len(data._HEADER_KEYS)
    with open(path) as fh:
        lines = data._lines(fh)
        header = data._read_header(lines)
        n_classes, n_units = header["C"], header["M"]
        dim, n = header["D"], header["n"]
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
                    except (DatasetFormatError, DatasetValidationError) as exc:
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
        raise DatasetFormatError(
            f"line {first + rows + 1}: header declares n={n} "
            f"samples but file has {rows}")
    if fault is not None:
        raise fault
    ds = data.Dataset(features, observed, true, au, n_classes, n_units, dim,
                      header["corruption_rate"], header["seed"])
    ds.validate()
    return ds


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
