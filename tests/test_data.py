import hashlib

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from aurelab import data
from aurelab.errors import (ConfigError, DatasetFormatError,
                            DatasetValidationError)
from oracles import nearest_prototype_accuracy


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
