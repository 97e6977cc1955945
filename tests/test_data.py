import ast
import codecs
import hashlib
import io
import os
import re
import tempfile
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from aurelab import data
from aurelab.errors import ConfigError, InputError
from oracles import (au_table_by_combination_scan, gathered_features,
                     load_row_at_a_time, nearest_prototype_accuracy)


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
        with pytest.raises(InputError, match=r"line \d+"):
            data.load(path)

    def test_header_body_mismatch_is_validation_error(self, tmp_path):
        ds = small_ds()
        path = tmp_path / "ds.txt"
        data.save(ds, path)
        lines = path.read_text().splitlines()
        lines[2] = "D=99"   # declared dimension disagrees with the rows
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match="line 7"):
            data.load(path)

    def test_garbled_header_is_parse_error(self, tmp_path):
        path = tmp_path / "ds.txt"
        path.write_text("C=3\nM=6\nnot a header\n")
        with pytest.raises(InputError, match="line 3"):
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
        with pytest.raises(InputError, match="line 7"):
            data.load(path)

    # n % C != 0 on most rows, and a noise scale whose products are
    # subnormal
    @pytest.mark.parametrize("c,n,dim,noise", [
        (2, 5, 1, 1.0), (5, 101, 16, 0.5), (7, 2000, 128, 1e-300),
        (3, 6, 3, 3.9), (5, 6000, 128, 1.0)])
    def test_features_are_those_of_the_gather(self, c, n, dim, noise):
        for seed in (0, 9):
            got = data.generate(c, 12, dim, n, 4.0, noise, seed).features
            want = gathered_features(c, dim, n, 4.0, noise, seed)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_features_are_built_in_place(self):
        tracemalloc.start()
        try:
            ds = data.generate(5, 10, 128, 6000, 4.0, 1.0, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * ds.features.nbytes

    def test_rows_out_of_order_are_validation_error(self, tmp_path):
        path = tmp_path / "ds.txt"
        data.save(small_ds(), path)
        lines = path.read_text().splitlines()
        lines[6], lines[7] = lines[7], lines[6]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError,
                           match=r"line 7: sample id 1 out of order"):
            data.load(path)


def at(path, pattern: str) -> str:
    """A load fault's pattern: ``pattern`` after the file's name."""
    return rf"^{re.escape(str(path))}, {pattern}"


# text with every line end ``str.splitlines`` knows, and a non-ASCII letter
LINE_TEXT = st.lists(st.sampled_from(["a", "7,", "\n", "\r", "\r\n", "\x0c",
                                      "\x85", "\u2028", "\u00e9"]),
                     max_size=40).map("".join)


class TestReadLines:
    """``read_lines`` is the one way a file is read: UTF-8 whatever the
    locale, a line at a time, a bad byte named by file and offset."""

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(text=LINE_TEXT)
    def test_lines_match_text_mode(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "f")
            with open(path, "wb") as fh:
                fh.write(text.encode())
            with open(path, encoding="utf-8") as fh:
                expected = [piece for line in fh
                            for piece in line.splitlines()]
            assert list(data.read_lines(path)) == expected

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(before=LINE_TEXT, after=LINE_TEXT,
                      bad=st.sampled_from([b"\xff", b"\xc3", b"\x80",
                                           b"\xed\xa0\x80"]))
    def test_bad_byte_is_named_by_its_offset_in_the_file(self, before,
                                                        after, bad):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "f")
            with open(path, "wb") as fh:
                fh.write(before.encode() + bad + after.encode())
            with pytest.raises(InputError) as info:
                list(data.read_lines(path))
        assert str(info.value) == \
            f"{path}: not UTF-8 text (byte {len(before.encode())})"

    def test_byte_order_mark_is_dropped_at_byte_0_only(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(codecs.BOM_UTF8 + b"a\n" + codecs.BOM_UTF8 + b"b\n")
        assert list(data.read_lines(path)) == ["a", "\ufeffb"]
        path.write_bytes(codecs.BOM_UTF8)
        assert list(data.read_lines(path)) == []

    def test_bad_byte_after_a_byte_order_mark_is_named_from_byte_0(
            self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(codecs.BOM_UTF8 + b"ab\n\xff")
        with pytest.raises(InputError, match=r"\(byte 6\)$"):
            list(data.read_lines(path))
        path.write_bytes(codecs.BOM_UTF8 + b"a\xff")
        with pytest.raises(InputError, match=r"\(byte 4\)$"):
            list(data.read_lines(path))

    def test_only_read_lines_opens_a_file_to_read(self):
        # (module, function, call) of every call that opens or reads a file:
        # read_lines reads every text input; the others write atomically,
        # hash this module's source and a dataset's text, and read and
        # hash a dataset's sidecar
        calls = []
        for path in sorted(Path(data.__file__).parent.glob("*.py")):
            for fn in ast.walk(ast.parse(path.read_text())):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                for node in ast.walk(fn):
                    if not isinstance(node, ast.Call):
                        continue
                    call = ast.unparse(node)
                    name = ast.unparse(node.func).rsplit(".", 1)[-1]
                    if name in ("open", "read_text", "read_bytes", "read",
                                "read_file", "fromfile", "read_array",
                                "readinto", "file_digest") or \
                            call.startswith(("json.load(", "np.load(")):
                        calls.append((path.name, fn.name, call))
        assert calls == [
            ("data.py", "_replacing", "open(tmp, mode, **kwargs)"),
            ("data.py", "read_lines", "open(path, 'rb')"),
            ("data.py", "_source_digest", "open(__file__, 'rb')"),
            ("data.py", "_source_digest",
             "hashlib.file_digest(fh, 'sha256')"),
            ("data.py", "_records_digest",
             "hashlib.file_digest(fh, lambda: hashlib.sha256(text_key))"),
            ("data.py", "_cached", "open(path, 'rb')"),
            ("data.py", "_cached", "open(cache, 'rb')"),
            ("data.py", "_cached", "fh.read(32)"),
            ("data.py", "_cached",
             "np.lib.format.read_array(fh, allow_pickle=False)"),
            ("data.py", "_cached", "hashlib.file_digest(text, _key_hash)")]


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
        cache = tmp_path / "ds.txt.cache"
        # save, load through the sidecar, then load by the parse
        for step, bound in ((lambda: data.save(ds, path), 0.5),
                            (lambda: data.load(path), 1.45),
                            (lambda: cache.unlink() or data.load(path), 2.0)):
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
        # another text's sidecar is beside the pipe: a load that hashed the
        # pipe to check the key would then wait to parse it, with no writer
        # left, so the load runs in a thread that is given a deadline
        data.save(small_ds(seed=8), fifo)
        fifo.unlink()
        os.mkfifo(fifo)
        loaded = []
        threads = [threading.Thread(target=call, daemon=True) for call in (
            lambda: fifo.write_bytes(path.read_bytes()),
            lambda: loaded.append(data.load(fifo)))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive(), "the pipe was not read once"
        back, = loaded
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
        with pytest.raises(InputError,
                           match=at(path, rf"line {7 + row}: expected 25 "
                                    r"fields \(3 \+ M=6 \+ D=16\), got 1$")):
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
        with pytest.raises(InputError, match=at(path, r"line 307: header "
                           r"declares n=301 samples but file has 300$")):
            data.load(path)

    def first_bad_row_wins(self, saved, short):
        _, path, lines = saved
        lines[8] = "x" + lines[8]                   # unparseable, line 9
        lines[short] = lines[short].rsplit(",", 1)[0]   # a field short
        self.write(path, lines)
        with pytest.raises(InputError,
                           match=at(path, r"line 9: unparseable field$")):
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
        with pytest.raises(InputError,
                           match=at(path, r"line 263: label out of range$")):
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
            with pytest.raises(InputError,
                               match=at(path, rf"line 7: expected {3 + m + d} "
                                        rf"fields \(3 \+ M={m} \+ D={d}\), "
                                        r"got 25$")):
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
        with pytest.raises(InputError, match=at(path, r"line 308: header "
                           r"declares n=300 samples but file has 301$")):
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
_FIELDS = _BODY[6].count(",") + 1


def _mutate(lines: list[str], row: int, kind: str, pick: int) -> None:
    at = 6 + row
    fields = lines[at].split(",")
    if len(fields) < _FIELDS:
        return   # a blank or shortened row: its field count is its fault
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
    elif kind == "non-finite feature":
        fields[value] = ("nan", "inf", "-inf")[pick % 3]
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
                     "label out of range", "bit of 2", "non-finite feature",
                     "swap ids", "blank line", "CR"]),
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
            except InputError as exc:
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


def _outcome(path):
    """Everything ``data.load(path)`` gives: each array's dtype, shape and
    bytes and each header field with its type, or its error's type and
    text."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ds = data.load(path)
        except InputError as exc:
            return type(exc), str(exc)
    return (tuple((a.dtype, a.shape, a.tobytes())
                  for a in (ds.features, ds.observed_labels, ds.true_labels,
                            ds.au_labels)),
            tuple((type(v), v) for v in (ds.n_classes, ds.n_units, ds.dim,
                                         ds.corruption_rate, ds.seed)))


def _records(blob: bytes) -> list[bytes]:
    """A sidecar's 32 digest bytes, then its ``.npy`` records, each with
    its header."""
    fh, cuts = io.BytesIO(blob), [0, 32]
    fh.seek(32)
    while fh.tell() < len(blob):
        np.lib.format.read_array(fh, allow_pickle=False)
        cuts.append(fh.tell())
    return [blob[a:b] for a, b in zip(cuts, cuts[1:])]


class TestSidecar:
    """``save`` leaves ``<path>.cache``; ``load`` returns its arrays while
    the text is unchanged, and otherwise parses the text.  Either way the
    result is the parse's, bit for bit, or its error."""

    @pytest.fixture
    def parses(self, monkeypatch):
        """The paths ``load`` has parsed, in order."""
        parsed = []
        parse = data._parse

        def counting(path):
            parsed.append(path)
            return parse(path)

        monkeypatch.setattr(data, "_parse", counting)
        return parsed

    @pytest.fixture
    def saved(self, tmp_path):
        ds = data.corrupt_labels(small_ds(n=7, dim=3, n_units=4), 0.3, seed=2)
        path = tmp_path / "ds.txt"
        data.save(ds, path)
        cache = tmp_path / "ds.txt.cache"
        blob = cache.read_bytes()
        cache.unlink()
        parsed = _outcome(path)
        cache.write_bytes(blob)
        return path, cache, blob, parsed

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(
        shape=st.tuples(st.integers(2, 4), st.integers(4, 6),
                        st.integers(1, 4), st.integers(1, 6)),
        draw=st.data(),
        rate=st.sampled_from([0.0, 0.3, float(np.nextafter(1.0, 0.0))]),
        seed=st.integers(0, 2**70))
    def test_a_hit_equals_the_parse(self, shape, draw, rate, seed):
        c, m, d, n = shape
        value = st.one_of(st.sampled_from([-0.0, 5e-324,
                                           1.7976931348623157e308]),
                          st.floats(allow_nan=False, allow_infinity=False))
        features = np.array(draw.draw(st.lists(value, min_size=n * d,
                                               max_size=n * d)),
                            dtype=np.float64).reshape(n, d)
        labels = st.lists(st.integers(0, c - 1), min_size=n, max_size=n)
        observed = np.array(draw.draw(labels), dtype=np.int64)
        true = np.array(draw.draw(labels), dtype=np.int64)
        bits = np.array(draw.draw(st.lists(st.integers(0, 1), min_size=n * m,
                                           max_size=n * m)),
                        dtype=np.int64).reshape(n, m)
        ds = data.Dataset(features, observed, true, bits, c, rate, seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ds.txt"
            data.save(ds, path)
            files = sorted(os.listdir(tmp))
            assert files == ["ds.txt", "ds.txt.cache"]
            with mock.patch.object(data, "_parse",
                                   side_effect=AssertionError("parsed")):
                hit = _outcome(path)
            assert sorted(os.listdir(tmp)) == files   # load writes no file
            (Path(tmp) / "ds.txt.cache").unlink()
            assert _outcome(path) == hit

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 4),
                        st.integers(1, 3), st.integers(1, 4)),
        draw=st.data(),
        rate=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 2**70))
    def test_validate_refuses_what_the_parse_refuses(self, shape, draw, rate,
                                                     seed):
        """``_cached`` returns a sidecar's arrays only when
        ``Dataset.validate`` passes, so it must refuse exactly the
        datasets whose text the parse refuses."""
        c, m, d, n = shape
        faulty = draw.draw(st.sampled_from(
            [None, "features", "observed", "true", "bits"]))

        def array(name, good, bad, size, dtype):
            # only one array may hold a fault, one bad value in its places,
            # so a rule that one side applies and the other misses shows
            if name == faulty:
                good = good | st.just(draw.draw(bad))
            return np.array(draw.draw(st.lists(good, min_size=size,
                                               max_size=size)), dtype=dtype)

        wide = st.integers(-2**63, 2**63 - 1)
        label = st.integers(0, c - 1)
        bad_label = st.sampled_from([-1, c]) | wide
        ds = data.Dataset(
            array("features", st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from([np.nan, np.inf, -np.inf]), n * d,
                  np.float64).reshape(n, d),
            array("observed", label, bad_label, n, np.int64),
            array("true", label, bad_label, n, np.int64),
            array("bits", st.integers(0, 1), st.sampled_from([-1, 2]) | wide,
                  n * m, np.int64).reshape(n, m),
            c, rate, seed)
        try:
            ds.validate()
            valid = True
        except InputError:
            valid = False
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ds.txt"
            data.save(ds, path)
            (Path(tmp) / "ds.txt.cache").unlink()
            outcome = _outcome(path)
        assert (outcome[0] is not InputError) == valid, outcome

    def test_one_byte_edits_give_the_parse(self, saved, parses):
        path, cache, blob, parsed = saved
        for at in range(len(blob)):
            for flip in (0x01, 0xff):
                edited = bytearray(blob)
                edited[at] ^= flip
                cache.write_bytes(bytes(edited))
                assert _outcome(path) == parsed, (at, flip)
        assert len(parses) == 2 * len(blob)

    def test_truncations_give_the_parse(self, saved, parses):
        path, cache, blob, parsed = saved
        for size in range(len(blob)):
            cache.write_bytes(blob[:size])
            assert _outcome(path) == parsed, size
        assert len(parses) == len(blob)
        cache.write_bytes(blob)
        assert _outcome(path) == parsed
        assert len(parses) == len(blob)   # the whole sidecar hits

    def test_swapped_or_dropped_records_give_the_parse(self, saved, parses):
        path, cache, blob, parsed = saved
        records = _records(blob)
        assert len(records) == 5
        for i in range(5):
            for j in range(i + 1, 5):
                swapped = list(records)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                cache.write_bytes(b"".join(swapped))
                assert _outcome(path) == parsed, (i, j)
            cache.write_bytes(b"".join(records[:i] + records[i + 1:]))
            assert _outcome(path) == parsed, i
        assert len(parses) == 10 + 5

    def test_forged_records_give_the_parse(self, saved, parses):
        path, cache, blob, parsed = saved
        digest, *arrays = _records(blob)
        features = np.lib.format.read_array(io.BytesIO(arrays[0]))
        forged = []
        for record in (features.astype(object), np.asfortranarray(features),
                       features.astype(np.float32), features[:, :1]):
            fh = io.BytesIO()
            np.lib.format.write_array(fh, record)
            forged.append(fh.getvalue())
        # a header that claims far more data than the file holds
        forged.append(arrays[0].replace(b"(7, 3)", b"(10000000000000, 3)"))
        forged.append(arrays[0].replace(b"(7, 3)", b"(" + b"9" * 30 + b", 3)"))
        for record in forged:
            cache.write_bytes(b"".join([digest, record, *arrays[1:]]))
            assert _outcome(path) == parsed
        assert len(parses) == len(forged)

    def test_one_byte_edits_of_the_text_give_the_parse(self, saved, parses):
        path, cache, blob, _ = saved
        text = path.read_bytes()
        edits = [text[:at] + byte + text[at + 1:] for at in range(len(text))
                 for byte in (b"0", b"9", b",", b"\n", b"\xff")
                 if byte != text[at:at + 1]]
        for edited in edits:
            path.write_bytes(edited)
            with_sidecar = _outcome(path)
            cache.unlink()
            assert with_sidecar == _outcome(path), edited
            cache.write_bytes(blob)
        assert len(parses) == 2 * len(edits)

    @pytest.mark.parametrize("encode", [
        lambda text: text.replace(b"\n", b"\r\n"),
        lambda text: codecs.BOM_UTF8 + text])
    def test_crlf_or_bom_text_loads_by_the_parse(self, saved, parses,
                                                  encode):
        path, _, _, parsed = saved
        path.write_bytes(encode(path.read_bytes()))
        assert _outcome(path) == parsed
        assert parses == [path]

    def test_a_sidecar_of_another_parser_is_not_read(self, saved, parses,
                                                      monkeypatch):
        path, _, _, parsed = saved
        assert _outcome(path) == parsed and parses == []
        for module, name, value in ((np, "__version__", "0.0.0"),
                                    (data, "_source_digest",
                                     lambda: bytes(32))):
            with monkeypatch.context() as patched:
                patched.setattr(module, name, value)
                assert _outcome(path) == parsed
        assert parses == [path, path]

    def test_arrays_of_other_dtypes_leave_no_sidecar(self, tmp_path, parses):
        ds = small_ds(n=7, dim=3, n_units=4)
        path = tmp_path / "ds.txt"
        data.save(replace(ds, features=ds.features.astype(np.float32),
                          observed_labels=ds.observed_labels.astype(np.int32)),
                  path)
        assert [p.name for p in tmp_path.iterdir()] == ["ds.txt"]
        back = data.load(path)
        assert parses == [path]
        assert back.features.dtype == np.float64
        assert back.observed_labels.dtype == np.int64

    def test_a_sidecar_that_cannot_be_written_is_left_out(self, tmp_path,
                                                           parses):
        ds = small_ds(n=7, dim=3, n_units=4)
        path = tmp_path / "ds.txt"
        (tmp_path / "ds.txt.cache").mkdir()
        data.save(ds, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["ds.txt", "ds.txt.cache"]
        assert data.load(path).fingerprint() == ds.fingerprint()
        assert parses == [path]

    @pytest.mark.parametrize("field,value,message", [
        ("observed_labels", 3, "label out of range"),
        ("au_labels", 2, "unit bits must be 0/1"),
        ("features", np.nan, "non-finite feature value")])
    def test_a_sidecar_beside_a_refused_text_is_never_read(
            self, tmp_path, parses, field, value, message):
        ds = small_ds(n=7, dim=3, n_units=4)
        bad = getattr(ds, field).copy()
        bad[2] = value   # row 2, on line 9
        path = tmp_path / "ds.txt"
        data.save(replace(ds, **{field: bad}), path)
        cache = tmp_path / "ds.txt.cache"
        assert cache.is_file()
        for _ in range(2):
            with pytest.raises(InputError) as exc:
                data.load(path)
            assert str(exc.value) == f"{path}, line 9: {message}"
            cache.unlink(missing_ok=True)
        assert parses == [path, path]

    def test_save_replaces_the_sidecar_with_the_text(self, saved, parses):
        path, cache, _, _ = saved
        ds = data.corrupt_labels(small_ds(n=9, dim=2, n_units=4), 0.5, seed=4)
        data.save(ds, path)
        back = data.load(path)
        assert parses == []
        assert back.fingerprint() == ds.fingerprint()
        assert np.array_equal(back.observed_labels, ds.observed_labels)
