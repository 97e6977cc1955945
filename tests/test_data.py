import hashlib
import os
import tempfile
import threading
import tracemalloc

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from aurelab import data
from aurelab.errors import (ConfigError, DatasetFormatError,
                            DatasetValidationError)
from oracles import (au_table_by_combination_scan, load_row_at_a_time,
                     nearest_prototype_accuracy)


def small_ds(seed=7, **kw):
    args = dict(n_classes=3, n_units=6, dim=16, n=300, class_spread=4.0,
                within_noise=1.0, seed=seed)
    args.update(kw)
    return data.generate(**args)


class TestEmotionAuTable:
    def test_canonical_7x12_patterns(self):
        t = data.emotion_au_table(7, 12)
        assert t.shape == (7, 12)
        # happiness (class 3) activates two units, surprise (class 0) three
        assert t[3].sum() == 2
        assert t[0].sum() == 3

    @pytest.mark.parametrize("c,m", [(2, 4), (3, 6), (5, 10), (7, 12),
                                     (6, 9), (10, 12)])
    def test_rows_distinct_and_nonempty(self, c, m):
        t = data.emotion_au_table(c, m)
        assert t.shape == (c, m)
        assert (t.sum(axis=1) >= 1).all()
        assert len({tuple(row) for row in t}) == c

    @pytest.mark.parametrize("c", range(2, 11))
    def test_matches_the_combination_scan(self, c):
        for m in range(4, 19):
            if (c, m) == (7, 12):
                continue
            want = au_table_by_combination_scan(c, m)
            if want is None:
                with pytest.raises(ConfigError, match="cannot build"):
                    data.emotion_au_table(c, m)
            else:
                assert np.array_equal(data.emotion_au_table(c, m), want), m

    def test_size_validation(self):
        with pytest.raises(ConfigError):
            data.emotion_au_table(1, 8)
        with pytest.raises(ConfigError):
            data.emotion_au_table(3, 3)


class TestGenerate:
    def test_nearest_prototype_oracle_exceeds_95_percent(self):
        ds = small_ds()
        assert nearest_prototype_accuracy(ds) > 0.95

    def test_vanishing_noise_collapses_to_prototypes(self):
        ds = small_ds(within_noise=1e-9)
        assert nearest_prototype_accuracy(ds) == 1.0
        per_class = [ds.features[ds.true_labels == c] for c in range(3)]
        for block in per_class:
            assert np.allclose(block, block[0], atol=1e-6)

    def test_same_seed_is_bit_identical(self):
        a, b = small_ds(), small_ds()
        assert a.features.tobytes() == b.features.tobytes()
        assert np.array_equal(a.au_labels, b.au_labels)

    def test_au_labels_follow_table_when_noise_free(self):
        ds = small_ds(au_noise=0.0)
        table = data.emotion_au_table(3, 6)
        assert np.array_equal(ds.au_labels, table[ds.true_labels])

    def test_prototypes_pairwise_separated(self):
        for seed in range(30):
            ds = data.generate(4, 6, 8, 8, 3.0, 0.5, seed=seed)
            protos = np.stack([ds.features[ds.true_labels == c][0]
                               for c in range(4)])
            for i in range(4):
                for j in range(i + 1, 4):
                    assert np.linalg.norm(protos[i] - protos[j]) > 0

    def test_argument_validation(self):
        with pytest.raises(ConfigError):
            small_ds(n=2)                      # n < n_classes
        with pytest.raises(ConfigError):
            small_ds(within_noise=5.0)         # spread <= noise
        with pytest.raises(ConfigError):
            small_ds(au_noise=1.0)

    @pytest.mark.parametrize("size", [dict(n=10**14), dict(dim=10**14)])
    def test_size_too_large_to_allocate(self, size):
        # beyond the address space: numpy refuses before touching memory
        with pytest.raises(ConfigError, match="too large to allocate: "
                                              "Unable to allocate"):
            small_ds(**size)

    def test_fresh_dataset_validates(self):
        small_ds().validate()


class TestCorruptLabels:
    def test_zero_rate_changes_nothing(self):
        ds = small_ds()
        out = data.corrupt_labels(ds, 0.0, seed=1)
        assert np.array_equal(out.observed_labels, ds.observed_labels)

    def test_exact_count(self):
        ds = data.generate(5, 8, 8, 500, 4.0, 1.0, seed=3)
        out = data.corrupt_labels(ds, 0.2, seed=4)
        assert int(np.sum(out.observed_labels != out.true_labels)) == 100

    def test_new_label_never_equals_true(self):
        ds = small_ds()
        out = data.corrupt_labels(ds, 0.5, seed=5)
        changed = out.observed_labels != ds.observed_labels
        assert changed.any()
        assert np.all(out.observed_labels[changed] != out.true_labels[changed])

    def test_input_untouched(self):
        ds = small_ds()
        before = ds.observed_labels.copy()
        data.corrupt_labels(ds, 0.3, seed=6)
        assert np.array_equal(ds.observed_labels, before)

    def test_rate_validation(self):
        with pytest.raises(ConfigError):
            data.corrupt_labels(small_ds(), 1.0, seed=0)

    @pytest.mark.parametrize("rate", [0.1, 0.25, 0.33])
    def test_audit_within_one_sample(self, rate):
        ds = small_ds()
        out = data.corrupt_labels(ds, rate, seed=8)
        wrong = int(np.sum(out.observed_labels != out.true_labels))
        assert abs(wrong - rate * ds.n) <= 1


class TestSaveLoad:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = data.corrupt_labels(small_ds(), 0.2, seed=9)
        path = tmp_path / "ds.txt"
        data.save(ds, path)
        back = data.load(path)
        assert back.features.tobytes() == ds.features.tobytes()
        assert np.array_equal(back.observed_labels, ds.observed_labels)
        assert np.array_equal(back.true_labels, ds.true_labels)
        assert np.array_equal(back.au_labels, ds.au_labels)
        assert back.seed == ds.seed
        assert back.corruption_rate == ds.corruption_rate

    def test_truncated_file_is_parse_error_with_line(self, tmp_path):
        ds = small_ds()
        path = tmp_path / "ds.txt"
        data.save(ds, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-10]) + "\n")
        with pytest.raises(DatasetFormatError, match=r"line \d+"):
            data.load(path)

    def test_header_body_mismatch_is_validation_error(self, tmp_path):
        ds = small_ds()
        path = tmp_path / "ds.txt"
        data.save(ds, path)
        lines = path.read_text().splitlines()
        lines[2] = "D=99"   # declared dimension disagrees with the rows
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetValidationError, match="line 7"):
            data.load(path)

    def test_garbled_header_is_parse_error(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_text("C=3\nM=6\nnot a header\n")
        with pytest.raises(DatasetFormatError, match="line 3"):
            data.load(path)

    def test_bad_label_is_validation_error(self, tmp_path):
        ds = small_ds()
        path = tmp_path / "ds.txt"
        data.save(ds, path)
        lines = path.read_text().splitlines()
        fields = lines[6].split(",")
        fields[1] = "17"
        lines[6] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetValidationError, match="line 7"):
            data.load(path)

    def test_rows_out_of_order_are_validation_error(self, tmp_path):
        path = tmp_path / "ds.txt"
        data.save(small_ds(), path)
        lines = path.read_text().splitlines()
        lines[6], lines[7] = lines[7], lines[6]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetValidationError,
                           match=r"line 7: sample id 1 out of order"):
            data.load(path)


class TestStreamedFormat:
    """``save`` writes a row at a time and ``load`` reads a block of rows
    at a time; ``load`` checks the row count and every row's field count
    before it allocates."""

    @pytest.fixture
    def saved(self, tmp_path):
        ds = data.corrupt_labels(small_ds(), 0.2, seed=9)
        path = tmp_path / "ds.txt"
        data.save(ds, path)
        return ds, path, path.read_text().splitlines()

    @staticmethod
    def write(path, lines, end="\n"):
        path.write_bytes(("\n".join(lines) + end).encode())

    def test_peak_memory_is_a_fraction_of_the_features(self, tmp_path):
        ds = data.generate(5, 10, 64, 2000, 4.0, 1.0, seed=3)
        path = tmp_path / "ds.txt"
        for step, bound in ((lambda: data.save(ds, path), 0.5),
                            (lambda: data.load(path), 2.0)):
            tracemalloc.start()
            try:
                step()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound * ds.features.nbytes

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a FIFO")
    def test_reads_from_a_pipe(self, saved, tmp_path):
        ds, path, _ = saved
        fifo = tmp_path / "ds.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(
            target=lambda: fifo.write_bytes(path.read_bytes()))
        writer.start()
        try:
            back = data.load(fifo)
        finally:
            writer.join()
        assert back.fingerprint() == ds.fingerprint()
        assert np.array_equal(back.observed_labels, ds.observed_labels)

    def test_trailing_blank_lines_are_accepted(self, saved):
        ds, path, lines = saved
        self.write(path, lines, end="\n\n\n")
        assert data.load(path).fingerprint() == ds.fingerprint()

    def blank_row(self, saved, row):
        _, path, lines = saved
        lines[6 + row] = ""
        self.write(path, lines)
        with pytest.raises(DatasetValidationError,
                           match=rf"^line {7 + row}: expected 25 fields "
                                 r"\(3 \+ M=6 \+ D=16\), got 1$"):
            data.load(path)

    def test_blank_line_inside_the_body_is_its_own_row(self, saved):
        self.blank_row(saved, 4)

    def test_blank_line_opening_the_second_block(self, saved):
        assert data._BLOCK_ROWS == 256
        self.blank_row(saved, 256)

    def test_crlf_file_loads_bit_identically(self, saved):
        ds, path, lines = saved
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        back = data.load(path)
        assert back.features.tobytes() == ds.features.tobytes()
        assert np.array_equal(back.observed_labels, ds.observed_labels)
        assert back.fingerprint() == ds.fingerprint()

    def test_row_count_error_comes_before_a_bad_row(self, saved):
        _, path, lines = saved
        lines[3] = "n=301"
        lines[7] = lines[7].rsplit(",", 1)[0]       # a field short
        lines[8] = "x" + lines[8]                   # unparseable
        self.write(path, lines)
        with pytest.raises(DatasetFormatError, match=r"^line 307: header "
                           r"declares n=301 samples but file has 300$"):
            data.load(path)

    def first_bad_row_wins(self, saved, short):
        _, path, lines = saved
        lines[8] = "x" + lines[8]                   # unparseable, line 9
        lines[short] = lines[short].rsplit(",", 1)[0]   # a field short
        self.write(path, lines)
        with pytest.raises(DatasetFormatError,
                           match=r"^line 9: unparseable field$"):
            data.load(path)

    def test_first_bad_row_wins_over_a_later_field_count(self, saved):
        self.first_bad_row_wins(saved, 9)

    # every row's field count is checked before its block is parsed
    @pytest.mark.parametrize("row", [256, 299])
    def test_first_bad_row_wins_over_a_field_count_in_a_later_block(
            self, saved, row):
        self.first_bad_row_wins(saved, 6 + row)

    def test_fault_in_the_first_row_of_the_second_block(self, saved):
        _, path, lines = saved
        fields = lines[6 + 256].split(",")
        fields[1] = "3"                             # C=3: out of range
        lines[6 + 256] = ",".join(fields)
        self.write(path, lines)
        with pytest.raises(DatasetValidationError,
                           match=r"^line 263: label out of range$"):
            data.load(path)

    # numpy would size its rows from a header of M=10**5 before it found
    # them short
    @pytest.mark.parametrize("m,d", [(10**12, 16), (6, 10**12), (10**5, 16)])
    def test_header_size_the_rows_contradict_allocates_nothing(
            self, saved, m, d):
        _, path, lines = saved
        lines[1:3] = [f"M={m}", f"D={d}"]
        self.write(path, lines)
        tracemalloc.start()
        try:
            with pytest.raises(DatasetValidationError,
                               match=rf"^line 7: expected {3 + m + d} fields "
                                     rf"\(3 \+ M={m} \+ D={d}\), got 25$"):
                data.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    # str.splitlines cuts at these besides line ends; the reader cuts the
    # same lines, so a row holding one splits in two, as before the rows
    # were streamed
    @pytest.mark.parametrize("char", ["\v", "\f", "\x1c", "\x1d", "\x1e",
                                      "\x85", "\u2028", "\u2029"])
    def test_other_line_breaks_split_a_row(self, saved, char):
        ds, path, lines = saved
        head, _, tail = lines[12].partition(",")
        self.write(path, lines[:12] + [f"{head},{char}{tail}"] + lines[13:])
        with pytest.raises(DatasetFormatError, match=r"^line 308: header "
                           r"declares n=300 samples but file has 301$"):
            data.load(path)
        # at the end of the last row it only adds a trailing blank line
        self.write(path, lines[:-1] + [lines[-1] + char])
        assert data.load(path).fingerprint() == ds.fingerprint()


# A saved file of 600 rows, three blocks, mutated in its first block, on
# the boundary between the first two and in its last block.
def _saved_lines(ds) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ds.txt")
        data.save(ds, path)
        with open(path) as fh:
            return fh.read().splitlines()


_BODY = _saved_lines(data.corrupt_labels(small_ds(n=600), 0.2, seed=9))


def _mutate(lines: list[str], row: int, kind: str, pick: int) -> None:
    at = 6 + row
    fields = lines[at].split(",")
    bit, value = 3 + pick % 6, 9 + pick % 16     # a unit bit, a feature
    if kind == "drop":
        del fields[pick % len(fields)]
    elif kind == "extra":
        fields.insert(pick % len(fields), "0")
    elif kind == "garble int":
        fields[pick % 9] += "x"
    elif kind == "garble float":
        fields[value] = fields[value][:-1] + "e"
    elif kind == "int as float":
        # an id, a label or a unit bit
        fields[pick % 9] = f"{fields[pick % 9]}.0" if pick % 2 else "0.9"
    elif kind == "underscore":
        fields[value] = "1_0.5"
    elif kind == "underscore in int":
        # an id, a label or a unit bit whose value int() reads unchanged
        fields[pick % 9] = f"0_{fields[pick % 9]}"
    elif kind == "big int":
        # a 20-digit id, label or unit bit, beyond int64
        fields[pick % 9] = f"{'-' if pick % 2 else ''}{10**19 + pick}"
    elif kind == "non-ASCII digit":
        # the same digits in Arabic-Indic or fullwidth
        digits = "\u0660\u0661" if pick % 2 else "\uff10\uff11"
        fields[bit] = digits[int(fields[bit])]
    elif kind == "spaces":
        fields[pick % len(fields)] = f" {fields[pick % len(fields)]}\t"
    elif kind == "label out of range":
        fields[1 + pick % 2] = "3" if pick % 4 < 2 else "-1"
    elif kind == "bit of 2":
        fields[bit] = "2"
    elif kind == "swap ids":
        other = at - 1 if row == 599 else at + 1
        lines[at], lines[other] = lines[other], lines[at]
        return
    elif kind == "blank line":
        lines.insert(at, "")
        return
    elif kind == "CR":
        fields[pick % len(fields)] += "\r"
    lines[at] = ",".join(fields)


@hypothesis.settings(max_examples=80, deadline=None, derandomize=True)
@hypothesis.given(mutations=st.lists(st.tuples(
    st.sampled_from([0, 1, 100, 254, 255, 256, 257, 258, 420, 598, 599]),
    st.sampled_from(["drop", "extra", "garble int", "garble float",
                     "int as float", "underscore", "underscore in int",
                     "big int", "non-ASCII digit", "spaces",
                     "label out of range", "bit of 2", "swap ids",
                     "blank line", "CR"]),
    st.integers(0, 10**6)), min_size=1, max_size=3))
def test_block_parse_matches_the_row_by_row_reference(mutations):
    lines = list(_BODY)
    for row, kind, pick in mutations:
        _mutate(lines, row, kind, pick)
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ds.txt")
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
        for load in (data.load, load_row_at_a_time):
            try:
                ds = load(path)
            except (DatasetFormatError, DatasetValidationError) as exc:
                outcomes.append((type(exc), str(exc)))
            else:
                outcomes.append(tuple(
                    (a.dtype, a.shape, a.tobytes())
                    for a in (ds.features, ds.observed_labels,
                              ds.true_labels, ds.au_labels)))
    assert outcomes[0] == outcomes[1]


class TestBatches:
    def test_single_batch_when_size_is_n(self):
        ds = small_ds()
        out = data.batches(ds, ds.n, epoch_seed=0)
        assert len(out) == 1 and len(out[0]) == ds.n

    def test_partition_property(self):
        ds = small_ds()
        out = data.batches(ds, 64, epoch_seed=3)
        assert len(out) == int(np.ceil(ds.n / 64))
        joined = np.concatenate(out)
        assert sorted(joined.tolist()) == list(range(ds.n))

    def test_seed_controls_order(self):
        ds = small_ds()
        a = np.concatenate(data.batches(ds, 50, epoch_seed=1))
        b = np.concatenate(data.batches(ds, 50, epoch_seed=1))
        c = np.concatenate(data.batches(ds, 50, epoch_seed=2))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_size_validation(self):
        with pytest.raises(ConfigError):
            data.batches(small_ds(), 0, epoch_seed=0)


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(batch_size=st.integers(min_value=1, max_value=120),
                  epoch_seed=st.integers(min_value=0, max_value=2**31))
def test_batches_always_partition(batch_size, epoch_seed):
    ds = small_ds(n=120)
    out = data.batches(ds, batch_size, epoch_seed)
    joined = np.concatenate(out)
    assert sorted(joined.tolist()) == list(range(ds.n))
    assert all(len(b) == batch_size for b in out[:-1])


class TestTrainTestSplit:
    def test_partition_and_reindex(self, tmp_path):
        ds = small_ds()
        train, test = data.train_test_split(ds, 0.2, seed=11)
        assert train.n + test.n == ds.n
        # a sample's id is its row position: each part is written with ids
        # 0..n-1, which load (it rejects rows out of order) reads back
        for part in (train, test):
            path = tmp_path / "part.txt"
            data.save(part, path)
            rows = path.read_text().splitlines()[6:]
            assert [int(r.split(",")[0]) for r in rows] == list(range(part.n))
            assert data.load(path).fingerprint() == part.fingerprint()

    def test_stratified(self):
        ds = small_ds()
        _, test = data.train_test_split(ds, 0.2, seed=11)
        counts = np.bincount(test.true_labels, minlength=3)
        assert (counts >= 1).all()
        assert counts.max() - counts.min() <= 2

    def test_deterministic(self):
        ds = small_ds()
        a, _ = data.train_test_split(ds, 0.25, seed=1)
        b, _ = data.train_test_split(ds, 0.25, seed=1)
        assert a.features.tobytes() == b.features.tobytes()


def test_file_checksum_stable_for_same_seed(tmp_path):
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    data.save(small_ds(), p1)
    data.save(small_ds(), p2)
    h = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()
    assert h(p1) == h(p2)
