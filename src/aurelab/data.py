"""Synthetic expression datasets: clustered features, action-unit bit labels,
controllable label corruption, a diff-able text file format, and batching.

Each sample carries the label used for training (``observed``), the hidden
generation label (``true``, kept for auditing only), and a bit-vector of
active action units drawn from its true class's prototype pattern.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DatasetFormatError, DatasetValidationError)

# Columns of the default table, by action-unit number:
# AU1 inner brow raiser, AU2 outer brow raiser, AU4 brow lowerer,
# AU5 upper lid raiser, AU6 cheek raiser, AU7 lid tightener,
# AU9 nose wrinkler, AU12 lip corner puller, AU15 lip corner depressor,
# AU20 lip stretcher, AU23 lip tightener, AU26 jaw drop.
AU_NUMBERS = (1, 2, 4, 5, 6, 7, 9, 12, 15, 20, 23, 26)

# Stylized activation patterns for the seven basic-emotion classes over the
# twelve units above (indices into AU_NUMBERS).
_BASIC_EMOTION_PATTERNS = (
    (0, 1, 11),        # surprise: AU1, AU2, AU26
    (0, 1, 2, 3, 9),   # fear: AU1, AU2, AU4, AU5, AU20
    (6, 8),            # disgust: AU9, AU15
    (4, 7),            # happiness: AU6, AU12
    (0, 2, 8),         # sadness: AU1, AU4, AU15
    (2, 5, 10),        # anger: AU4, AU7, AU23
    (3,),              # neutral: AU5
)


def emotion_au_table(n_classes: int, n_units: int) -> np.ndarray:
    """Class -> action-unit prototype bit table, shape (n_classes, n_units).

    The 7x12 case uses the stylized basic-emotion patterns above.  Other
    sizes get a deterministic constant-weight code: every class activates the
    same number of units, chosen greedily so patterns overlap as little as
    possible.  Wide angular separation between rows keeps the per-class
    semantic signatures distinguishable under bit noise.  Every row has at
    least one active unit and no two rows match.
    """
    if n_classes < 2:
        raise ConfigError(f"need at least 2 classes, got {n_classes}")
    if n_units < 4:
        raise ConfigError(f"need at least 4 action units, got {n_units}")
    if (n_classes, n_units) == (7, 12):
        patterns = _BASIC_EMOTION_PATTERNS
    else:
        weight = min(max(2, round(2 * n_units / n_classes)),
                     max(2, n_units // 2))
        patterns = None
        for max_overlap in range(weight):
            chosen: list[tuple[int, ...]] = []
            for cand in itertools.combinations(range(n_units), weight):
                if all(len(set(cand) & set(row)) <= max_overlap
                       for row in chosen):
                    chosen.append(cand)
                    if len(chosen) == n_classes:
                        break
            if len(chosen) == n_classes:
                patterns = chosen
                break
        if patterns is None:
            raise ConfigError(
                f"cannot build {n_classes} distinct unit patterns over "
                f"{n_units} units")
    table = np.zeros((n_classes, n_units), dtype=np.int64)
    for row, pattern in enumerate(patterns):
        table[row, list(pattern)] = 1
    return table


@dataclass
class Dataset:
    """Struct-of-arrays dataset; treat as read-only outside label correction.
    A sample's id is its row position."""
    features: np.ndarray          # (n, dim) float64
    observed_labels: np.ndarray   # (n,) int64
    true_labels: np.ndarray       # (n,) int64, hidden from training
    au_labels: np.ndarray         # (n, n_units) int64 bits
    n_classes: int
    n_units: int
    dim: int
    corruption_rate: float
    seed: int

    @property
    def n(self) -> int:
        return len(self.features)

    def copy(self) -> "Dataset":
        return Dataset(self.features.copy(), self.observed_labels.copy(),
                       self.true_labels.copy(), self.au_labels.copy(),
                       self.n_classes, self.n_units, self.dim,
                       self.corruption_rate, self.seed)

    def observed_noise_rate(self) -> float:
        return float(np.mean(self.observed_labels != self.true_labels))

    def fingerprint(self) -> str:
        """sha256 over the shape header, features, unit bits and true labels
        (not observed labels: label correction rewrites them)."""
        h = hashlib.sha256(
            f"{self.n},{self.n_classes},{self.n_units},{self.dim}".encode())
        for arr in (self.features, self.au_labels, self.true_labels):
            h.update(np.ascontiguousarray(arr))
        return h.hexdigest()

    def validate(self) -> None:
        n = self.n
        if self.features.shape != (n, self.dim):
            raise DatasetValidationError(
                f"features shape {self.features.shape} != ({n}, {self.dim})")
        if self.au_labels.shape != (n, self.n_units):
            raise DatasetValidationError(
                f"au_labels shape {self.au_labels.shape} != ({n}, {self.n_units})")
        for name, labels in (("observed", self.observed_labels),
                             ("true", self.true_labels)):
            if labels.shape != (n,):
                raise DatasetValidationError(f"{name} labels shape {labels.shape}")
            if n and (labels.min() < 0 or labels.max() >= self.n_classes):
                raise DatasetValidationError(f"{name} labels out of range")
        if not np.isin(self.au_labels, (0, 1)).all():
            raise DatasetValidationError("au_labels must be 0/1 bits")
        if not np.isfinite(self.features).all():
            raise DatasetValidationError("non-finite feature values")


def generate(n_classes: int, n_units: int, dim: int, n: int,
             class_spread: float, within_noise: float, seed: int,
             au_noise: float = 0.05) -> Dataset:
    """Clustered Gaussian features around per-class prototypes.

    Each class gets a random unit-norm prototype scaled by ``class_spread``
    (resampled on the improbable collision); sample i belongs to class
    ``i % n_classes`` and is its prototype plus N(0, within_noise^2) noise.
    Unit bits copy the class's table row with per-bit flip chance au_noise.
    Observed and true labels start identical; see :func:`corrupt_labels`.
    """
    if n < n_classes:
        raise ConfigError(f"need n >= n_classes, got n={n}, classes={n_classes}")
    if dim < 1:
        raise ConfigError(f"feature dimension must be >= 1, got {dim}")
    if not (class_spread > within_noise > 0):
        raise ConfigError(
            f"need class_spread > within_noise > 0, got "
            f"spread={class_spread}, noise={within_noise}")
    if not 0.0 <= au_noise < 1.0:
        raise ConfigError(f"au_noise must lie in [0, 1), got {au_noise}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    table = emotion_au_table(n_classes, n_units)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))

    prototypes = None
    for _ in range(100):
        cand = rng.standard_normal((n_classes, dim))
        norms = np.linalg.norm(cand, axis=1, keepdims=True)
        if np.any(norms == 0):
            continue
        cand = cand / norms * class_spread
        diffs = cand[:, None, :] - cand[None, :, :]
        dists = np.linalg.norm(diffs, axis=2)
        np.fill_diagonal(dists, np.inf)
        if dists.min() > 1e-9:
            prototypes = cand
            break
    if prototypes is None:
        raise ConfigError(
            f"could not draw {n_classes} distinct prototypes in {dim} dimensions")

    true = np.arange(n, dtype=np.int64) % n_classes
    features = prototypes[true] + within_noise * rng.standard_normal((n, dim))
    flips = rng.random((n, n_units)) < au_noise
    au = np.where(flips, 1 - table[true], table[true]).astype(np.int64)
    return Dataset(features, true.copy(), true.copy(), au,
                   n_classes, n_units, dim, 0.0, seed)


def corrupt_labels(ds: Dataset, rate: float, seed: int) -> Dataset:
    """Flip round(rate * n) uniformly chosen observed labels to a uniformly
    drawn different class (never the sample's true label)."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"corruption rate must lie in [0, 1), got {rate}")
    out = ds.copy()
    k = int(round(rate * ds.n))
    if k == 0:
        out.corruption_rate = rate
        return out
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    chosen = rng.choice(ds.n, size=k, replace=False)
    offsets = rng.integers(0, ds.n_classes - 1, size=k)
    true = out.true_labels[chosen]
    out.observed_labels[chosen] = offsets + (offsets >= true)
    out.corruption_rate = rate
    return out


# ---------------------------------------------------------------------------
# file format: key=value header, then one CSV row per sample of
#   id (the row position), observed, true, <n_units bits>, <dim feature values>

_HEADER_KEYS = ("C", "M", "D", "n", "corruption_rate", "seed")


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then move it into
    place with ``os.replace``: a failed write leaves the old file whole."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def save(ds: Dataset, path) -> None:
    lines = [
        f"C={ds.n_classes}",
        f"M={ds.n_units}",
        f"D={ds.dim}",
        f"n={ds.n}",
        f"corruption_rate={ds.corruption_rate!r}",
        f"seed={ds.seed}",
    ]
    for i in range(ds.n):
        fields = [str(i), str(int(ds.observed_labels[i])),
                  str(int(ds.true_labels[i]))]
        fields.extend(str(int(b)) for b in ds.au_labels[i])
        fields.extend(repr(float(v)) for v in ds.features[i])
        lines.append(",".join(fields))
    write_text_atomic(path, "\n".join(lines) + "\n")


def load(path) -> Dataset:
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = {}
    for lineno, key in enumerate(_HEADER_KEYS, start=1):
        if lineno > len(lines):
            raise DatasetFormatError(f"line {lineno}: missing header line '{key}='")
        line = lines[lineno - 1]
        if "=" not in line:
            raise DatasetFormatError(f"line {lineno}: expected '{key}=<value>'")
        got_key, _, value = line.partition("=")
        if got_key != key:
            raise DatasetFormatError(
                f"line {lineno}: expected header key '{key}', got '{got_key}'")
        try:
            header[key] = float(value) if key == "corruption_rate" else int(value)
        except ValueError:
            raise DatasetFormatError(
                f"line {lineno}: cannot parse value for '{key}': {value!r}") from None
        if key in ("C", "M", "D", "n") and header[key] < 1:
            raise DatasetFormatError(
                f"line {lineno}: '{key}' must be >= 1, got {header[key]}")

    n_classes, n_units = header["C"], header["M"]
    dim, n = header["D"], header["n"]
    body = lines[len(_HEADER_KEYS):]
    while body and body[-1] == "":
        body.pop()
    if len(body) != n:
        raise DatasetFormatError(
            f"line {len(_HEADER_KEYS) + len(body) + 1}: header declares n={n} "
            f"samples but file has {len(body)}")

    expected_fields = 3 + n_units + dim
    features = np.zeros((n, dim))
    observed = np.zeros(n, dtype=np.int64)
    true = np.zeros(n, dtype=np.int64)
    au = np.zeros((n, n_units), dtype=np.int64)
    for i, line in enumerate(body):
        lineno = len(_HEADER_KEYS) + 1 + i
        fields = line.split(",")
        if len(fields) != expected_fields:
            raise DatasetValidationError(
                f"line {lineno}: expected {expected_fields} fields "
                f"(3 + M={n_units} + D={dim}), got {len(fields)}")
        try:
            sid = int(fields[0])
            obs, tru = int(fields[1]), int(fields[2])
            bits = [int(b) for b in fields[3:3 + n_units]]
            vals = [float(v) for v in fields[3 + n_units:]]
        except ValueError:
            raise DatasetFormatError(f"line {lineno}: unparseable field") from None
        if sid != i:
            raise DatasetValidationError(
                f"line {lineno}: sample id {sid} out of order (expected {i})")
        if not (0 <= obs < n_classes and 0 <= tru < n_classes):
            raise DatasetValidationError(f"line {lineno}: label out of range")
        if any(b not in (0, 1) for b in bits):
            raise DatasetValidationError(f"line {lineno}: unit bits must be 0/1")
        observed[i], true[i] = obs, tru
        au[i] = bits
        features[i] = vals
    ds = Dataset(features, observed, true, au, n_classes, n_units, dim,
                 header["corruption_rate"], header["seed"])
    ds.validate()
    return ds


# ---------------------------------------------------------------------------
# batching and splits


def batches(ds: Dataset, batch_size: int, epoch_seed: int) -> list[np.ndarray]:
    """Deterministic shuffled partition into ceil(n / batch_size) index arrays."""
    if not 1 <= batch_size <= ds.n:
        raise ConfigError(
            f"batch_size must lie in [1, {ds.n}], got {batch_size}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(epoch_seed)))
    perm = rng.permutation(ds.n)
    return [perm[i:i + batch_size] for i in range(0, ds.n, batch_size)]


def train_test_split(ds: Dataset, test_fraction: float, seed: int
                     ) -> tuple[Dataset, Dataset]:
    """Stratified (by true label) deterministic split; both parts re-indexed."""
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    test_mask = np.zeros(ds.n, dtype=bool)
    for c in range(ds.n_classes):
        members = np.flatnonzero(ds.true_labels == c)
        k = int(round(test_fraction * len(members)))
        k = min(max(k, 1 if len(members) > 1 else 0), len(members) - 1)
        picked = rng.permutation(members)[:k]
        test_mask[picked] = True
    if not test_mask.any():
        raise ConfigError("the held-out split would be empty: no class has "
                          "2 or more samples")

    def take(mask: np.ndarray) -> Dataset:
        sub = Dataset(ds.features[mask].copy(), ds.observed_labels[mask].copy(),
                      ds.true_labels[mask].copy(), ds.au_labels[mask].copy(),
                      ds.n_classes, ds.n_units, ds.dim, 0.0, ds.seed)
        sub.corruption_rate = sub.observed_noise_rate()
        return sub

    return take(~test_mask), take(test_mask)
