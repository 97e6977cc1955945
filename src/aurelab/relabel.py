"""Semantic templates, label correction and the relabel audit file.

Each class keeps a template: the confidence-weighted mean of the semantic
features of that class's members in the most recent batch's high-confidence
group.  ``propose_corrections`` takes a batch's low-confidence samples in
sample-id order, compares them against all valid templates by cosine
distance in one matrix, and moves each to the closest other class only when
that class is strictly closer than its current one.  ``write_audit`` and
``read_audit`` write and read ``relabel_audit.csv``, a row per correction.
``correction_figures`` scores the moves between two label snapshots against
the hidden true labels, for one epoch or a whole run.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .data import Dataset, _csv_rows, write_csv
from .errors import ArtifactFormatError, IntegrityError, ShapeError


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
    """Cosine distances (1 - cosine similarity, in [0, 2]) of a batch of
    semantic vectors (k, M) to every template: (k, C).

    Templates that are not usable give NaN columns; a zero-norm sample gives
    an all-NaN row.
    """
    rows = np.asarray(semantics, dtype=np.float64)
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
    return out


def decide_relabel(distances: np.ndarray, originals) -> np.ndarray:
    """Correction rule over per-class template distances: rows (k, C) with
    their k original labels give k labels.

    A row moves to its closest other class when that class is strictly
    closer than the original one, and keeps its label otherwise.  It needs
    the original class distance and at least one other non-NaN distance;
    ties among other-class minima break toward the smallest class index.
    """
    rows = np.asarray(distances, dtype=np.float64)
    org = np.asarray(originals, dtype=np.int64)
    at = np.arange(len(rows))
    d_org = rows[at, org]
    enough = ~np.isnan(d_org) & (np.sum(~np.isnan(rows), axis=1) >= 2)
    others = np.where(np.isnan(rows), np.inf, rows)
    others[at, org] = np.inf
    best = np.argmin(others, axis=1)
    return np.where(enough & (d_org - others[at, best] > 0.0), best, org)


def propose_corrections(templates: SemanticTemplates, semantics: np.ndarray,
                        labels: np.ndarray, sample_ids: np.ndarray,
                        epoch: int) -> list[RelabelRecord]:
    """The moves ``decide_relabel`` makes in a batch's low-confidence group,
    given in any order (semantics (k, M), labels, sample ids), in sample-id
    order; a zero-norm sample stays, with a warning if a template is usable."""
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


def apply_corrections(ds: Dataset, records: list[RelabelRecord]) -> None:
    """Overwrite the observed label of every referenced sample."""
    for rec in records:
        if not 0 <= rec.sample_id < ds.n:
            raise IntegrityError(f"relabel record references unknown sample id "
                                 f"{rec.sample_id}")
        ds.observed_labels[rec.sample_id] = rec.corrected


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


# the audit's columns and the type of each
AUDIT_COLUMNS = dict(epoch=int, sample_id=int, original=int, corrected=int,
                     dist_original=float, dist_corrected=float)
AUDIT_HEADER = ",".join(AUDIT_COLUMNS)


def write_audit(path, records: list[RelabelRecord]) -> None:
    """Write ``records`` as a relabel audit CSV, one row per record, each
    row made as it is written."""
    write_csv(path, chain([AUDIT_COLUMNS], (
        [r.epoch, r.sample_id, r.original, r.corrected,
         r.distances[r.original], r.distances[r.corrected]]
        for r in records)))


def read_audit(path) -> dict[str, np.ndarray]:
    """The columns of a relabel audit CSV: int64 ``epoch``, ``sample_id``,
    ``original`` and ``corrected``, float64 ``dist_original`` and
    ``dist_corrected``.  A field that does not parse, or an integer beyond
    int64, raises ArtifactFormatError naming its line and column."""
    columns = {name: [] for name in AUDIT_COLUMNS}
    for lineno, row in _csv_rows(path, lambda h: h == list(AUDIT_COLUMNS),
                                 f"the audit header '{AUDIT_HEADER}'"):
        for name, text in row.items():
            parse = AUDIT_COLUMNS[name]
            try:
                value = parse(text)
            except ValueError:
                expected = "an integer" if parse is int else "a number"
                raise ArtifactFormatError(f"{path}, line {lineno}: {name} "
                                          f"'{text}' is not {expected}"
                                          ) from None
            if parse is int and not -2**63 <= value < 2**63:
                raise ArtifactFormatError(f"{path}, line {lineno}: {name} "
                                          f"'{text}' does not fit in int64")
            columns[name].append(value)
    return {name: np.array(columns[name], dtype=np.int64 if parse is int
                           else np.float64)
            for name, parse in AUDIT_COLUMNS.items()}
