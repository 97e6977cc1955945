"""Semantic templates and label correction.

Each class keeps a template: the confidence-weighted mean of the semantic
features of that class's members in the most recent batch's high-confidence
group.  A batch's low-confidence samples are compared against all valid
templates by cosine distance in one matrix, and each is moved to the closest
other class only when that class is strictly closer than its current one.
``correction_figures`` scores the moves between two label snapshots against
the hidden true labels, for one epoch or a whole run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import IntegrityError, ShapeError


@dataclass
class SemanticTemplates:
    """Per-class template vectors with validity tracking."""
    vectors: np.ndarray            # (n_classes, n_units)
    valid: np.ndarray              # (n_classes,) bool
    last_update_epoch: np.ndarray  # (n_classes,) int, -1 = never

    @classmethod
    def empty(cls, n_classes: int, n_units: int) -> "SemanticTemplates":
        return cls(np.zeros((n_classes, n_units)),
                   np.zeros(n_classes, dtype=bool),
                   np.full(n_classes, -1, dtype=np.int64))

    @property
    def n_classes(self) -> int:
        return len(self.vectors)

    def update(self, semantics: np.ndarray, confidence: np.ndarray,
               labels: np.ndarray, epoch: int) -> None:
        """Replace each class's template with the confidence-weighted mean of
        its members among the given (high-confidence) samples.

        Classes with no members keep their previous template and validity.
        """
        semantics = np.asarray(semantics, dtype=np.float64)
        confidence = np.asarray(confidence, dtype=np.float64).ravel()
        labels = np.asarray(labels)
        # np.add.at adds the rows to a zero sum one by one in sample order,
        # as a per-class ``sum(axis=0)`` does for two or more units, so the
        # templates match it bit for bit (np.add.reduceat does not).
        sums = np.zeros_like(self.vectors)
        np.add.at(sums, labels, confidence[:, None] * semantics)
        counts = np.bincount(labels, minlength=self.n_classes)
        present = counts > 0
        self.vectors[present] = sums[present] / counts[present, None]
        self.valid[present] = True
        self.last_update_epoch[present] = epoch

    def usable(self) -> np.ndarray:
        """Valid templates with a nonzero norm: those that have a direction."""
        return self.valid & (np.linalg.norm(self.vectors, axis=1) != 0.0)

    def copy(self) -> "SemanticTemplates":
        return SemanticTemplates(self.vectors.copy(), self.valid.copy(),
                                 self.last_update_epoch.copy())


@dataclass
class RelabelRecord:
    """One correction decision; distances are NaN for invalid classes."""
    sample_id: int
    original: int
    corrected: int
    distances: np.ndarray
    epoch: int


def semantic_distances(semantics: np.ndarray, templates: SemanticTemplates
                       ) -> np.ndarray:
    """Cosine distance (1 - cosine similarity, in [0, 2]) to every template.

    Takes one semantic vector (M,) and returns (C,), or a batch (k, M) and
    returns (k, C).  Templates that are not usable give NaN columns; a
    zero-norm sample gives an all-NaN row.
    """
    s = np.asarray(semantics, dtype=np.float64)
    rows = np.atleast_2d(s)
    k, width = rows.shape
    if width != templates.vectors.shape[1]:
        raise ShapeError(f"semantics have {width} units, templates "
                         f"{templates.vectors.shape[1]}")
    # One product gives every dot product and squared norm.  Its right
    # operand is a copy so numpy calls gemm, not syrk: for vectors shorter
    # than 16, OpenBLAS's gemm sums agree bit for bit with np.dot on each
    # pair (and so with np.linalg.norm), syrk's do not for some batch sizes,
    # and a one-ulp difference can flip a tie in decide_relabel.
    both = np.concatenate([rows, templates.vectors])
    gram = both @ np.ascontiguousarray(both.T)
    norms = np.sqrt(np.diag(gram))
    with np.errstate(divide="ignore", invalid="ignore"):
        cosine = gram[:k, k:] / (norms[k:] * norms[:k, None])
    out = 1.0 - np.clip(cosine, -1.0, 1.0)
    out[:, ~templates.usable()] = np.nan
    out[norms[:k] == 0.0] = np.nan
    return out[0] if s.ndim == 1 else out


def decide_relabel(distances: np.ndarray, originals) -> np.ndarray | int:
    """Correction rule over per-class template distances.

    Takes one distance row (C,) with its original label and returns an int,
    or rows (k, C) with k labels and returns k labels.  A row moves to its
    closest other class when that class is strictly closer than the original
    one, and keeps its label otherwise.  It needs the original class distance
    and at least one other non-NaN distance; ties among other-class minima
    break toward the smallest class index.
    """
    d = np.asarray(distances, dtype=np.float64)
    rows = np.atleast_2d(d)
    org = np.atleast_1d(np.asarray(originals, dtype=np.int64))
    at = np.arange(len(rows))
    d_org = rows[at, org]
    enough = ~np.isnan(d_org) & (np.sum(~np.isnan(rows), axis=1) >= 2)
    others = np.where(np.isnan(rows), np.inf, rows)
    others[at, org] = np.inf
    best = np.argmin(others, axis=1)
    out = np.where(enough & (d_org - others[at, best] > 0.0), best, org)
    return int(out[0]) if d.ndim == 1 else out


def apply_corrections(ds: Dataset, records: list[RelabelRecord]) -> int:
    """Overwrite the observed label of every referenced sample; returns how
    many labels actually changed."""
    changed = 0
    for rec in records:
        if not 0 <= rec.sample_id < ds.n:
            raise IntegrityError(f"relabel record references unknown sample id "
                                 f"{rec.sample_id}")
        if ds.observed_labels[rec.sample_id] != rec.corrected:
            changed += 1
        ds.observed_labels[rec.sample_id] = rec.corrected
    return changed


def correction_figures(start_labels: np.ndarray, end_labels: np.ndarray,
                       true_labels: np.ndarray) -> tuple[float, float]:
    """(precision, recall) of the label moves from ``start_labels`` to
    ``end_labels``: the share of moved labels that end on the true class,
    and the share of labels wrong at the start that end right.  Each is NaN
    when nothing moved or nothing was wrong."""
    moved = start_labels != end_labels
    wrong = start_labels != true_labels
    right = end_labels == true_labels
    n_moved, n_wrong = int(moved.sum()), int(wrong.sum())
    precision = int((moved & right).sum()) / n_moved if n_moved else np.nan
    recall = int((wrong & right).sum()) / n_wrong if n_wrong else np.nan
    return precision, recall


AUDIT_HEADER = "epoch,sample_id,original,corrected,dist_original,dist_corrected"


def audit_rows(records: list[RelabelRecord]) -> list[str]:
    """CSV rows under AUDIT_HEADER, one per record."""
    rows = []
    for r in records:
        rows.append(",".join([
            str(r.epoch), str(r.sample_id), str(r.original), str(r.corrected),
            repr(float(r.distances[r.original])),
            repr(float(r.distances[r.corrected])),
        ]))
    return rows
