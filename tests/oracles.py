"""Independent reference implementations used to check the library.

Everything here is deliberately written the dumb way (loops, direct
formulas) and must stay decoupled from the package internals.
"""

import math

import numpy as np


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


def two_where_leaky_relu(x, slope):
    """Leaky ReLU output and local gradient, each by its own np.where."""
    factor = np.where(x > 0, 1.0, slope)
    return np.where(x > 0, x, slope * x), factor


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
