"""Synthetic expression datasets: clustered features, action-unit bit labels,
controllable label corruption, a diff-able text file format, and batching.
``DatasetSpec`` holds the generator's arguments and is their one check.
``write_atomic`` writes every artifact as UTF-8, ``write_csv`` makes every
CSV artifact's values text, and ``read_lines`` alone reads a file's lines.
``save`` leaves a sidecar beside a dataset's text, which ``load`` returns
in place of parsing the text while the text is unchanged.

Each sample carries the label used for training (``observed``), the hidden
generation label (``true``, kept for auditing only), and a bit-vector of
active action units drawn from its true class's prototype pattern.
"""

from __future__ import annotations

import codecs
import contextlib
import functools
import hashlib
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from itertools import islice, repeat

import numpy as np

from .errors import ConfigError, InputError

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


# Steps of the pattern search one table may take: every table of 2-10
# classes over 4-24 units takes fewer than 25,000, and a size that runs
# past this budget, such as 5 classes over 60 units, could take minutes.
_TABLE_SEARCH_STEPS = 250_000


def _first_fitting_pattern(n_units: int, weight: int,
                           chosen: list[tuple[int, ...]], max_overlap: int,
                           steps: int) -> tuple[tuple[int, ...] | None, int]:
    """The lexicographically first ``weight``-unit pattern that shares at
    most ``max_overlap`` units with every chosen pattern, or None, and the
    steps left of ``steps``: None and a negative count when the search
    ran out of them.

    A depth-first search over the units in ascending order.  It drops a
    prefix as soon as it shares more than ``max_overlap`` units with a
    chosen pattern (adding units never lowers an overlap), and when the
    units left cannot complete it: it can add every unit left that no
    chosen pattern holds, but each held one spends at least one unit of
    the chosen patterns' remaining overlap.  Every pattern up to the last
    chosen one shares too many units with some chosen pattern (a chosen
    pattern shares all of its own), so this is also the next pattern a
    scan of ``itertools.combinations`` would pick.
    """
    owners: list[list[int]] = [[] for _ in range(n_units)]
    for k, pattern in enumerate(chosen):
        for unit in pattern:
            owners[unit].append(k)
    free_from = [0] * (n_units + 1)   # units >= u that no chosen pattern holds
    for unit in reversed(range(n_units)):
        free_from[unit] = free_from[unit + 1] + (not owners[unit])
    overlap = [0] * len(chosen)
    budget = max_overlap * len(chosen)   # overlap the prefix may still add
    prefix: list[int] = []
    unit = 0
    while len(prefix) < weight:
        steps -= 1
        if steps < 0:
            return None, steps
        held_left = n_units - unit - free_from[unit]
        if len(prefix) + free_from[unit] + min(held_left, budget) < weight:
            if not prefix:
                return None, steps
            unit = prefix.pop()
            budget += len(owners[unit])
            for k in owners[unit]:
                overlap[k] -= 1
        elif all(overlap[k] < max_overlap for k in owners[unit]):
            prefix.append(unit)
            budget -= len(owners[unit])
            for k in owners[unit]:
                overlap[k] += 1
        unit += 1
    return tuple(prefix), steps


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
    # Allocated before the search, so a table too large for memory fails
    # at once; numpy refuses one beyond the address space with ValueError.
    try:
        table = np.zeros((n_classes, n_units), dtype=np.int64)
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"a {n_classes}x{n_units} unit table is too large "
                          f"to allocate: {exc}") from None
    if (n_classes, n_units) == (7, 12):
        patterns = _BASIC_EMOTION_PATTERNS
    else:
        weight = min(max(2, round(2 * n_units / n_classes)),
                     max(2, n_units // 2))
        patterns = None
        steps = _TABLE_SEARCH_STEPS
        for max_overlap in range(weight):
            chosen: list[tuple[int, ...]] = []
            while len(chosen) < n_classes:
                cand, steps = _first_fitting_pattern(
                    n_units, weight, chosen, max_overlap, steps)
                if steps < 0:
                    raise ConfigError(
                        f"no table of {n_classes} unit patterns over "
                        f"{n_units} units found within "
                        f"{_TABLE_SEARCH_STEPS} search steps")
                if cand is None:
                    break
                chosen.append(cand)
            if len(chosen) == n_classes:
                patterns = chosen
                break
        if patterns is None:
            raise ConfigError(
                f"cannot build {n_classes} distinct unit patterns over "
                f"{n_units} units")
    for row, pattern in enumerate(patterns):
        table[row, list(pattern)] = 1
    return table


@dataclass
class Dataset:
    """Struct-of-arrays dataset.  A sample's id is its row position.

    Only label correction writes to a dataset, and only to
    ``observed_labels``: ``corrupt_labels`` and ``train`` copy that array
    alone and share the features, unit bits and true labels with their
    input, so none of those may be written to in place.  The sample count
    and widths are read from the arrays; the class count is stored, since a
    file's header may declare more classes than its labels use."""
    features: np.ndarray          # (n, dim) float64
    observed_labels: np.ndarray   # (n,) int64
    true_labels: np.ndarray       # (n,) int64, hidden from training
    au_labels: np.ndarray         # (n, n_units) int64 bits
    n_classes: int
    corruption_rate: float
    seed: int

    @property
    def n(self) -> int:
        return len(self.features)

    @property
    def n_units(self) -> int:
        return self.au_labels.shape[1]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

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
        if self.features.ndim != 2:
            raise InputError(
                f"features shape {self.features.shape} is not (n, dim)")
        n = self.n
        if self.au_labels.ndim != 2 or len(self.au_labels) != n:
            raise InputError(f"au_labels shape {self.au_labels.shape} "
                             f"is not ({n}, n_units)")
        for name, labels in (("observed", self.observed_labels),
                             ("true", self.true_labels)):
            if labels.shape != (n,):
                raise InputError(f"{name} labels shape {labels.shape}")
            if n and (labels.min() < 0 or labels.max() >= self.n_classes):
                raise InputError(f"{name} labels out of range")
        if not ((self.au_labels == 0) | (self.au_labels == 1)).all():
            raise InputError("au_labels must be 0/1 bits")
        if not np.isfinite(self.features).all():
            raise InputError("non-finite feature values")


@dataclass(frozen=True)
class DatasetSpec:
    """Generator arguments and the held-out share, and their one check."""
    n_classes: int = 5
    n_units: int = 10
    dim: int = 16
    n: int = 2000
    class_spread: float = 4.0
    within_noise: float = 1.0
    au_noise: float = 0.03
    test_fraction: float = 0.2

    def validate(self) -> None:
        if self.n < self.n_classes:
            raise ConfigError(f"need n >= n_classes, got n={self.n}, "
                              f"classes={self.n_classes}")
        if self.dim < 1:
            raise ConfigError(f"feature dimension must be >= 1, got {self.dim}")
        if not np.inf > self.class_spread > self.within_noise > 0:
            raise ConfigError(
                f"need a finite class_spread > within_noise > 0, got "
                f"spread={self.class_spread}, noise={self.within_noise}")
        for name in ("au_noise", "test_fraction"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1), got "
                                  f"{getattr(self, name)}")
        # the class and unit minimums and the search budget
        emotion_au_table(self.n_classes, self.n_units)
        # numpy refuses an array past the address space with ValueError, so
        # the features and unit bits, 8 bytes a value, are checked here
        if self.n * max(self.dim, self.n_units) * 8 > sys.maxsize:
            raise ConfigError(f"a dataset of n={self.n}, dim={self.dim}, "
                              f"C={self.n_classes}, M={self.n_units} is too "
                              f"large to allocate")


@np.errstate(over="raise", invalid="raise")
def generate(n_classes: int, n_units: int, dim: int, n: int,
             class_spread: float, within_noise: float, seed: int,
             au_noise: float = 0.05) -> Dataset:
    """Clustered Gaussian features around per-class prototypes.

    Each class gets a random unit-norm prototype scaled by ``class_spread``
    (resampled on the improbable collision); sample i belongs to class
    ``i % n_classes`` and is its prototype plus N(0, within_noise^2) noise,
    added in place to the scaled draws, a class's rows at a time.
    Unit bits copy the class's table row with per-bit flip chance au_noise.
    Observed and true labels start identical; see :func:`corrupt_labels`.
    Float overflow raises, so features too large for float64 are refused.
    """
    DatasetSpec(n_classes, n_units, dim, n, class_spread, within_noise,
                au_noise).validate()
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    try:
        table = emotion_au_table(n_classes, n_units)
        rng = np.random.default_rng(seed)

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
        else:
            raise ConfigError(f"could not draw {n_classes} distinct "
                              f"prototypes in {dim} dimensions")

        true = np.arange(n, dtype=np.int64) % n_classes
        features = rng.standard_normal((n, dim))
        features *= within_noise
        for c in range(n_classes):
            features[c::n_classes] += cand[c]
        flips = rng.random((n, n_units)) < au_noise
        au = np.where(flips, 1 - table[true], table[true]).astype(np.int64)
        return Dataset(features, true.copy(), true, au, n_classes, 0.0, seed)
    except FloatingPointError as exc:
        raise ConfigError(f"class_spread={class_spread} and within_noise="
                          f"{within_noise} overflow float64: {exc}") from None
    except MemoryError as exc:
        raise ConfigError(f"a dataset of n={n}, dim={dim}, C={n_classes}, "
                          f"M={n_units} is too large to allocate: {exc}") from None


def check_corruption_rate(rate: float) -> None:
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"corruption rate must lie in [0, 1), got {rate}")


def corrupt_labels(ds: Dataset, rate: float, seed: int) -> Dataset:
    """Flip round(rate * n) uniformly chosen observed labels to a uniformly
    drawn different class (never the sample's true label).  Only the
    observed labels are copied; the rest is shared with ``ds``."""
    check_corruption_rate(rate)
    out = replace(ds, observed_labels=ds.observed_labels.copy(),
                  corruption_rate=rate)
    k = int(round(rate * ds.n))
    if k == 0:
        return out
    rng = np.random.default_rng(seed)
    chosen = rng.choice(ds.n, size=k, replace=False)
    offsets = rng.integers(0, ds.n_classes - 1, size=k)
    true = out.true_labels[chosen]
    out.observed_labels[chosen] = offsets + (offsets >= true)
    return out


# ---------------------------------------------------------------------------
# file format: key=value header, then one CSV row per sample of
#   id (the row position), observed, true, <n_units bits>, <dim feature values>

# each header key's least and greatest value: counts index int64 arrays,
# and labels below C are stored in them
_HEADER_KEYS = dict.fromkeys("CMDn", (1, 2**63 - 1, "[1, 2**63)")) | {
    "corruption_rate": (0.0, 1.0, "[0, 1]"), "seed": (0, np.inf, "[0, inf)")}
_BLOCK_ROWS = 256   # rows that ``load`` parses with one np.loadtxt call


@contextlib.contextmanager
def _replacing(path, mode: str, **kwargs):
    """A file opened with ``mode`` that replaces ``path`` when the block
    ends: it is a temporary file beside ``path`` until ``os.replace`` moves
    it there, so a failed write leaves the old file whole."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        if exc.filename != tmp:
            raise
        # name the file asked for, not the temporary one beside it
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_atomic(path, pieces: Iterable[str]) -> None:
    """Write ``pieces`` one by one as UTF-8 (an argument's undecodable bytes
    as given) in place of ``path``, atomically; the text is never held
    whole."""
    with _replacing(path, "w", encoding="utf-8",
                    errors="surrogateescape") as fh:
        fh.writelines(pieces)


def _csv_field(value) -> str:
    """A CSV field's text: a float, Python's or numpy's, as its shortest
    round-trip ``repr``, an integer as its digits, text as it is."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return value


def write_csv(path, rows: Iterable[Iterable]) -> None:
    """Write each of ``rows`` as one line of comma-separated fields through
    :func:`write_atomic`; every CSV artifact's values become text here."""
    write_atomic(path, (",".join(map(_csv_field, row)) + "\n"
                        for row in rows))


def read_lines(path) -> Iterator[str]:
    """The lines of file ``path`` as ``str.splitlines`` cuts them, decoded
    as UTF-8 a line at a time, without a byte-order mark at byte 0; a bad
    byte is named by file and by its offset from byte 0."""
    offset = 0
    with open(path, "rb") as fh:
        for raw in fh:
            if not offset and raw.startswith(codecs.BOM_UTF8):
                raw, offset = raw[len(codecs.BOM_UTF8):], len(codecs.BOM_UTF8)
            try:
                yield from raw.decode().splitlines()
            except UnicodeDecodeError as exc:
                raise InputError(f"{path}: not UTF-8 text "
                                 f"(byte {offset + exc.start})") from None
            offset += len(raw)


def _csv_rows(path, header_ok, expected: str
              ) -> list[tuple[int, dict[str, str]]]:
    """The line number and the fields, keyed by column, of every row of a
    CSV artifact whose header passes ``header_ok``; every row must have as
    many fields as the header."""
    lines = list(read_lines(path))
    header = lines[0].split(",") if lines else []
    if not header_ok(header):
        raise InputError(f"{path}, line 1: expected {expected}")
    rows = []
    for lineno, line in enumerate(lines[1:], 2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != len(header):
            raise InputError(f"{path}, line {lineno}: {len(fields)} "
                             f"fields, expected {len(header)}")
        rows.append((lineno, dict(zip(header, fields))))
    return rows


def _dataset_lines(ds: Dataset) -> Iterator[str]:
    """The lines of ``ds``'s file, each row formatted as it is asked for."""
    yield (f"C={ds.n_classes}\nM={ds.n_units}\nD={ds.dim}\nn={ds.n}\n"
           f"corruption_rate={ds.corruption_rate!r}\nseed={ds.seed}\n")
    for i, (bits, values) in enumerate(zip(ds.au_labels, ds.features)):
        yield ",".join([str(i), str(int(ds.observed_labels[i])),
                        str(int(ds.true_labels[i])),
                        *map(str, bits.tolist()),
                        *map(repr, values.tolist())]) + "\n"


def save(ds: Dataset, path) -> None:
    """Write ``ds`` in the text format, a row at a time, then its sidecar
    (:func:`_write_sidecar`), keyed by the text's bytes as they are written.
    The text is whole by then, so an ``OSError`` while writing the sidecar
    is ignored: ``load`` parses a text that has no matching sidecar."""
    key = _key_hash()

    def hashed(pieces: Iterator[str]) -> Iterator[str]:
        for piece in pieces:
            key.update(piece.encode("utf-8", "surrogateescape"))
            yield piece

    write_atomic(path, hashed(_dataset_lines(ds)))
    with contextlib.suppress(OSError):
        _write_sidecar(ds, path, key.digest())


def _read_header(lines: Iterator[str]) -> dict:
    header = {}
    for lineno, (key, (low, high, interval)) in enumerate(
            _HEADER_KEYS.items(), start=1):
        line = next(lines, None)
        if line is None:
            raise InputError(f"line {lineno}: missing header line '{key}='")
        if "=" not in line:
            raise InputError(f"line {lineno}: expected '{key}=<value>'")
        got_key, _, value = line.partition("=")
        if got_key != key:
            raise InputError(
                f"line {lineno}: expected header key '{key}', got '{got_key}'")
        try:
            # the body's rule: no underscore and no non-ASCII digit
            if "_" in value or not value.strip().isascii():
                raise ValueError
            header[key] = float(value) if key == "corruption_rate" else int(value)
        except ValueError:
            raise InputError(
                f"line {lineno}: cannot parse value for '{key}': {value!r}") from None
        if not low <= header[key] <= high:   # NaN included
            raise InputError(f"line {lineno}: '{key}' must lie in "
                             f"{interval}, got {header[key]}")
    return header


def _rows(lines: Iterator[str]) -> Iterator[str]:
    """The body's rows: blank lines before a row are rows of one empty
    field, blank lines at the end are not rows."""
    blanks = 0
    for line in lines:
        if not line:
            blanks += 1
            continue
        yield from repeat("", blanks)
        blanks = 0
        yield line


def _parse_block(block: list[str], start: int, lineno: int, n_units: int,
                 dim: int, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """(ints, values) of the rows ``block``, the first of them row ``start``
    on line ``lineno``: ints holds each row's id, observed and true labels
    and unit bits, values its features.

    One ``np.loadtxt`` call parses the block once every row has the
    header's field count, so nothing is sized from a header the rows do
    not bear out; array operations then check the ids, labels and bits.
    numpy is the one parser: it refuses an underscore, a non-ASCII digit,
    an integer beyond int64 and an integer field written as a float
    (``1.0``, ``0.9``).  A block that fails is read again a row at a time
    by the same code, which raises the first faulty row's fault, checked
    in this order: field count, parse, sample id, label range, unit bits,
    finite features.
    """
    try:
        return _parse_rows(block, start, lineno, n_units, dim, n_classes)
    except InputError as exc:
        fault = exc
    for k, line in enumerate(block):
        _parse_rows([line], start + k, lineno + k, n_units, dim, n_classes)
    raise fault   # not reached: a block fails only where one of its rows does


def _parse_rows(rows: list[str], start: int, lineno: int, n_units: int,
                dim: int, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_parse_block`'s one pass over ``rows``; the error it raises
    names the first row, so it is that row's own only for a single row."""
    fields = 3 + n_units + dim
    for line in rows:
        if line.count(",") != fields - 1:
            raise InputError(
                f"line {lineno}: expected {fields} fields "
                f"(3 + M={n_units} + D={dim}), got {line.count(',') + 1}")
    try:
        table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=1,
                           dtype=[("i", np.int64, (3 + n_units,)),
                                  ("f", np.float64, (dim,))])
    except ValueError:
        raise InputError(f"line {lineno}: unparseable field") from None
    ints = table["i"]
    labels, bits = ints[:, 1:3], ints[:, 3:]
    if not np.array_equal(ints[:, 0], np.arange(start, start + len(rows))):
        raise InputError(f"line {lineno}: sample id {ints[0, 0]} "
                         f"out of order (expected {start})")
    if not ((labels >= 0).all() and (labels < n_classes).all()):
        raise InputError(f"line {lineno}: label out of range")
    if not ((bits == 0) | (bits == 1)).all():
        raise InputError(f"line {lineno}: unit bits must be 0/1")
    values = table["f"]
    if not np.isfinite(values).all():
        raise InputError(f"line {lineno}: non-finite feature value")
    return ints, values


# ---------------------------------------------------------------------------
# sidecar: ``<path>.cache``, a 32-byte digest, then four ``.npy`` records:
# features, observed labels, true labels and unit bits.  The digest is a
# sha256 over the text's key (:func:`_key_hash`) and every byte after it,
# so one comparison finds an edited text, another parser and any damage to
# the records, and numpy parses only records it has vouched for.  The
# header is the text's own.

# the dtype of each record: those of the arrays ``load`` parses
_SIDECAR_DTYPES = (np.float64, np.int64, np.int64, np.int64)


@functools.cache
def _source_digest() -> bytes:
    """The sha256 of this module's source, taken when first asked for."""
    with open(__file__, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").digest()


def _key_hash():
    """A sha256 fed this module's source and numpy's version; fed a text's
    bytes as well, it gives the text's key, so a sidecar that another
    parser wrote never matches."""
    return hashlib.sha256(_source_digest() + np.__version__.encode() + b"\0")


def _records_digest(text_key: bytes, fh) -> bytes:
    """A sha256 over ``text_key`` and the bytes of ``fh`` from its position
    to its end."""
    return hashlib.file_digest(fh, lambda: hashlib.sha256(text_key)).digest()


def _write_sidecar(ds: Dataset, path, text_key: bytes) -> None:
    """Write ``ds``'s sidecar in place of ``<path>.cache``, atomically,
    unless an array's dtype is not the one ``load`` parses.  The file is
    unbuffered, so numpy writes each array from its own memory; the records
    are then read back to be hashed, and the digest written in front of
    them."""
    records = [np.ascontiguousarray(a) for a in (
        ds.features, ds.observed_labels, ds.true_labels, ds.au_labels)]
    if any(r.dtype != dtype for r, dtype in zip(records, _SIDECAR_DTYPES)):
        return
    with _replacing(f"{path}.cache", "w+b", buffering=0) as fh:
        fh.write(bytes(32))   # the digest's place
        for record in records:
            np.lib.format.write_array(fh, record, allow_pickle=False)
        fh.seek(32)
        digest = _records_digest(text_key, fh)
        fh.seek(0)
        fh.write(digest)


def _cached(path) -> Dataset | None:
    """The dataset that ``path``'s sidecar holds, or None, and ``load``
    parses the text.  It is None unless ``path`` and the sidecar are
    regular files, so a pipe is never hashed, and the sidecar's digest
    matches the text and its records; those records are then what ``save``
    wrote.  It is None too unless the text's header parses, each record
    has the dtype and shape that header gives and the dataset is valid: a
    sidecar never changes what ``load`` returns or the error it raises."""
    cache = f"{path}.cache"
    try:
        if not (os.path.isfile(path) and os.path.isfile(cache)):
            return None
        with open(path, "rb") as text:
            text_key = hashlib.file_digest(text, _key_hash).digest()
        with open(cache, "rb") as fh:
            digest = fh.read(32)
            if _records_digest(text_key, fh) != digest:
                return None
            fh.seek(32)
            arrays = [np.lib.format.read_array(fh, allow_pickle=False)
                      for _ in _SIDECAR_DTYPES]
        with contextlib.closing(read_lines(path)) as lines:
            header = _read_header(lines)
        n_classes, n_units, dim, n = (header[k] for k in "CMDn")
        shapes = ((n, dim), (n,), (n,), (n, n_units))
        if any(a.dtype != dtype or a.shape != shape for a, dtype, shape
               in zip(arrays, _SIDECAR_DTYPES, shapes)):
            return None
        ds = Dataset(*arrays, n_classes, header["corruption_rate"],
                     header["seed"])
        ds.validate()
        return ds
    except (OSError, ValueError):   # InputError is a ValueError
        return None


def load(path) -> Dataset:
    """The dataset in file ``path``: its sidecar's arrays when it has one
    that matches the text (:func:`_cached`), otherwise the text parsed by
    :func:`_parse`, with the same result.  ``load`` writes no file."""
    ds = _cached(path)
    return _parse(path) if ds is None else ds


def _parse(path) -> Dataset:
    """Read a dataset file in one pass through :func:`read_lines`, a block
    of ``_BLOCK_ROWS`` rows at a time.

    Each block is parsed by :func:`_parse_block`, through numpy, and stored
    in arrays that double as blocks arrive, never past the header's ``n``.
    Only rows with the header's field count are parsed or stored: no array
    holds more than twice the rows read, however large the header's
    values.  Blank lines at the end are not rows.  After the first
    faulty row the rest are only counted, because a wrong row count is
    reported first; otherwise that row's fault is.  Each fault names the
    file and line, ``<path>, line N: ...``, but a byte that is not UTF-8,
    which :func:`read_lines` names by its offset.
    """
    first = len(_HEADER_KEYS)
    try:
        lines = read_lines(path)
        header = _read_header(lines)
        n_classes, n_units, dim, n = (header[key] for key in "CMDn")
        features = np.empty((0, dim))
        observed = np.empty(0, dtype=np.int64)
        true = np.empty(0, dtype=np.int64)
        au = np.empty((0, n_units), dtype=np.int64)
        texts = _rows(lines)
        fault = None
        rows = 0
        while fault is None and rows < n:
            block = list(islice(texts, min(_BLOCK_ROWS, n - rows)))
            if not block:
                break
            try:
                ints, values = _parse_block(block, rows, first + 1 + rows,
                                            n_units, dim, n_classes)
            except InputError as exc:
                fault = exc
            else:
                end = rows + len(block)
                if end > len(observed):
                    # no view of these arrays exists to be left dangling
                    cap = min(max(2 * len(observed), end), n)
                    features.resize((cap, dim), refcheck=False)
                    au.resize((cap, n_units), refcheck=False)
                    observed.resize(cap, refcheck=False)
                    true.resize(cap, refcheck=False)
                observed[rows:end], true[rows:end] = ints[:, 1], ints[:, 2]
                au[rows:end] = ints[:, 3:]
                features[rows:end] = values
                del ints, values
            rows += len(block)
            del block   # freed before the next block is read
        rows += sum(1 for _ in texts)
        if rows != n:
            raise InputError(
                f"line {first + rows + 1}: header declares n={n} "
                f"samples but file has {rows}")
        if fault is not None:
            raise fault
    except InputError as exc:
        if str(exc).startswith(f"{path}: "):   # the reader names the file
            raise
        raise InputError(f"{path}, {exc}") from None
    return Dataset(features, observed, true, au, n_classes,
                   header["corruption_rate"], header["seed"])


# ---------------------------------------------------------------------------
# batching and splits


def batches(ds: Dataset, batch_size: int, epoch_seed: int) -> list[np.ndarray]:
    """Deterministic shuffled partition into ceil(n / batch_size) index arrays."""
    if not 1 <= batch_size <= ds.n:
        raise ConfigError(
            f"batch_size must lie in [1, {ds.n}], got {batch_size}")
    rng = np.random.default_rng(epoch_seed)
    perm = rng.permutation(ds.n)
    return [perm[i:i + batch_size] for i in range(0, ds.n, batch_size)]


def train_test_split(ds: Dataset, test_fraction: float, seed: int
                     ) -> tuple[Dataset, Dataset]:
    """Stratified (by true label) deterministic split; both parts re-indexed."""
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
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
        sub = Dataset(ds.features[mask], ds.observed_labels[mask],
                      ds.true_labels[mask], ds.au_labels[mask],
                      ds.n_classes, 0.0, ds.seed)
        sub.corruption_rate = sub.observed_noise_rate()
        return sub

    return take(~test_mask), take(test_mask)
