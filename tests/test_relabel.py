import math

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from aurelab.data import generate
from aurelab.errors import IntegrityError
from aurelab.relabel import (AUDIT_HEADER, RelabelRecord, SemanticTemplates,
                             apply_corrections, correction_figures,
                             decide_relabel, propose_corrections, read_audit,
                             semantic_distances, write_audit)
from oracles import (per_class_template_update, scalar_correction_figures,
                     scalar_cosine_distance, scalar_relabel)


def templates_from(vectors, valid=None):
    vectors = np.asarray(vectors, dtype=float)
    t = SemanticTemplates.empty(len(vectors), vectors.shape[1])
    t.vectors[...] = vectors
    t.valid[...] = True if valid is None else valid
    return t


def distances_of(sample, templates):
    """``semantic_distances`` of one sample, passed as a one-row batch."""
    return semantic_distances(np.asarray(sample, dtype=float)[None],
                              templates)[0]


def relabel_of(distances, original):
    """``decide_relabel`` of one distance row, passed as a one-row batch."""
    return int(decide_relabel(np.asarray(distances)[None], [original])[0])


class TestTemplateUpdate:
    def test_single_member_weighted(self):
        t = SemanticTemplates.empty(3, 4)
        t.update(np.array([[1.0, 0, 0, 0]]), np.array([0.8]),
                 np.array([1]), epoch=2)
        np.testing.assert_allclose(t.vectors[1], [0.8, 0, 0, 0])
        assert t.valid[1] and not t.valid[0]
        assert t.last_update_epoch[1] == 2

    def test_uniform_confidence_is_plain_mean(self):
        t = SemanticTemplates.empty(2, 2)
        t.update(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]),
                 np.array([0, 0]), epoch=1)
        np.testing.assert_allclose(t.vectors[0], [0.5, 0.5])

    def test_absent_class_keeps_previous_template(self):
        t = SemanticTemplates.empty(2, 2)
        t.update(np.array([[2.0, 0.0]]), np.array([1.0]), np.array([0]), 1)
        before = t.vectors[0].copy()
        t.update(np.array([[0.0, 3.0]]), np.array([0.5]), np.array([1]), 2)
        np.testing.assert_allclose(t.vectors[0], before)
        assert t.last_update_epoch[0] == 1

    def test_idempotent_for_identical_batch(self):
        rng = np.random.default_rng(0)
        sem = rng.standard_normal((6, 4))
        conf = rng.random(6)
        labels = np.array([0, 1, 0, 1, 0, 1])
        a = SemanticTemplates.empty(2, 4)
        a.update(sem, conf, labels, 1)
        once = a.vectors.copy()
        a.update(sem, conf, labels, 2)
        np.testing.assert_allclose(a.vectors, once)

    def test_weighted_mean_formula(self):
        sem = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        conf = np.array([0.5, 1.0, 0.2])
        t = SemanticTemplates.empty(1, 2)
        t.update(sem, conf, np.zeros(3, dtype=int), 1)
        expected = (0.5 * sem[0] + 1.0 * sem[1] + 0.2 * sem[2]) / 3
        np.testing.assert_allclose(t.vectors[0], expected)

    @staticmethod
    def _assert_update_matches_oracle(t, sem, conf, labels, epoch):
        want = t.copy()
        per_class_template_update(want.vectors, want.valid,
                                  want.last_update_epoch, sem, conf, labels,
                                  epoch)
        t.update(sem, conf, labels, epoch)
        for name, arr in vars(want).items():
            assert getattr(t, name).tobytes() == arr.tobytes(), name

    @pytest.mark.parametrize("case", ["absent_classes", "single_members",
                                      "unsorted_labels", "negative_zero"])
    def test_update_matches_per_class_loop_bit_for_bit(self, case):
        rng = np.random.default_rng(7)
        t = SemanticTemplates.empty(5, 4)
        t.vectors[...] = rng.standard_normal((5, 4))
        t.valid[[1, 4]] = True
        t.last_update_epoch[[1, 4]] = 3
        sem = rng.standard_normal((10, 4))
        conf = rng.random(10)
        labels = {"absent_classes": np.array([0, 3, 0, 3, 3, 0, 0, 3, 3, 3]),
                  "single_members": np.array([4, 2, 0]),
                  "unsorted_labels": rng.permutation(np.arange(10) % 5),
                  "negative_zero": np.array([0, 0, 0, 1, 1, 2, 2, 2, 2, 2]),
                  }[case]
        if case == "negative_zero":
            sem[:3] = -0.0                  # class 0 sums -0.0 only
            sem[3:5, :2] = -1.0
            conf[3:5] = 0.0                 # class 1: 0.0 * -1.0 = -0.0
            sem[5, 3] = -0.0
        self._assert_update_matches_oracle(t, sem[:len(labels)],
                                           conf[:len(labels)], labels, 9)
        if case == "negative_zero":
            assert not np.signbit(t.vectors[0]).any()

    def test_update_matches_per_class_loop_on_random_batches(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            c, m = int(rng.integers(2, 8)), int(rng.integers(2, 18))
            k = int(rng.integers(1, 97))
            t = SemanticTemplates.empty(c, m)
            sem = rng.standard_normal((k, m)) * 10.0 ** rng.integers(
                -3, 4, size=(k, m))
            self._assert_update_matches_oracle(
                t, sem, rng.random(k), rng.integers(0, c, size=k),
                int(rng.integers(1, 40)))


class TestSemanticDistances:
    def test_parallel_orthogonal_opposite(self):
        t = templates_from([[1, 0], [0, 1], [-1, 0]])
        d = distances_of([1.0, 0.0], t)
        assert d[0] == pytest.approx(0.0)
        assert d[1] == pytest.approx(1.0)
        assert d[2] == pytest.approx(2.0)

    def test_invalid_template_is_nan(self):
        t = templates_from([[1, 0], [0, 1]], valid=[True, False])
        d = distances_of([1.0, 1.0], t)
        assert not math.isnan(d[0])
        assert math.isnan(d[1])

    def test_zero_norm_template_is_nan(self):
        t = templates_from([[0, 0], [1, 1]])
        d = distances_of([1.0, 0.0], t)
        assert math.isnan(d[0])

    @pytest.mark.parametrize("template,sample,expected", [
        ([1, 2, 3], [1, 2, 3], 0.0), ([1, 0], [0, 1], 1.0),
        ([1, 1], [-1, -1], 2.0), ([0, 0], [1, 0], np.nan)],
        ids=["parallel", "orthogonal", "antiparallel", "zero_norm"])
    def test_cosine_unit_cases(self, template, sample, expected):
        d = distances_of(sample, templates_from([template]))
        assert d.shape == (1,)
        assert d[0] == pytest.approx(expected, abs=1e-15, nan_ok=True)

    def test_zero_norm_sample_gives_nan_row(self):
        t = templates_from([[1, 0], [0, 1]])
        assert np.isnan(distances_of(np.zeros(2), t)).all()
        d = semantic_distances(np.array([[1.0, 1.0], [0.0, 0.0]]), t)
        assert not np.isnan(d[0]).any() and np.isnan(d[1]).all()

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.integers(min_value=0, max_value=2**31))
    def test_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        t = templates_from(rng.standard_normal((4, 6)))
        s = rng.standard_normal(6)
        d = distances_of(s, t)
        for c in range(4):
            assert d[c] == pytest.approx(
                scalar_cosine_distance(t.vectors[c], s), abs=1e-12)
            assert 0.0 <= d[c] <= 2.0


    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.integers(min_value=0, max_value=2**31))
    def test_batch_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        k, c, m = (int(v) for v in rng.integers(1, 12, 3))
        t = templates_from(rng.standard_normal((c, m)),
                           valid=rng.random(c) < 0.8)
        t.vectors[rng.random(c) < 0.2] = 0.0
        s = rng.standard_normal((k, m))
        s[rng.random(k) < 0.2] = 0.0
        d = semantic_distances(s, t)
        assert d.shape == (k, c)
        for i in range(k):
            for j in range(c):
                if (t.valid[j] and np.any(t.vectors[j])) and np.any(s[i]):
                    assert d[i, j] == pytest.approx(scalar_cosine_distance(
                        t.vectors[j], s[i]), abs=1e-12)
                else:
                    assert math.isnan(d[i, j])


class TestDecideRelabel:
    def test_strictly_closer_other_class_wins(self):
        assert relabel_of([0.4, 0.25, 0.9], 0) == 1

    def test_closer_original_keeps(self):
        assert relabel_of([0.2, 0.3, 0.9], 0) == 0

    def test_exact_tie_keeps_original(self):
        assert relabel_of([0.3, 0.3], 0) == 0

    def test_tie_between_others_takes_smallest_index(self):
        assert relabel_of([0.5, 0.2, 0.2], 0) == 1

    def test_needs_two_valid_templates(self):
        assert relabel_of([0.5, np.nan, np.nan], 0) == 0
        assert relabel_of([np.nan, 0.1, 0.2], 0) == 0

    def test_equidistant_templates_change_nothing(self):
        assert relabel_of(np.full(5, 0.7), 3) == 3

    def test_exact_template_match_relabels(self):
        t = templates_from(np.eye(3))
        s = np.array([0.0, 1.0, 0.0])   # equals template 1 exactly
        d = distances_of(s, t)
        assert d[0] > 0
        assert relabel_of(d, 0) == 1

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.integers(min_value=0, max_value=2**31))
    def test_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        c = rng.integers(2, 7)
        d = rng.random(c) * 2.0
        d[rng.random(c) < 0.2] = np.nan
        org = int(rng.integers(0, c))
        assert relabel_of(d, org) == scalar_relabel(d.tolist(), org)

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.integers(min_value=0, max_value=2**31))
    def test_batch_matches_scalar_oracle(self, seed):
        # Distances on a grid of quarters, so rows tie often.
        rng = np.random.default_rng(seed)
        k, c = int(rng.integers(1, 12)), int(rng.integers(2, 7))
        d = rng.integers(0, 9, (k, c)) / 4.0
        d[rng.random((k, c)) < 0.2] = np.nan
        org = rng.integers(0, c, k)
        got = decide_relabel(d, org)
        assert got.shape == (k,)
        assert got.tolist() == [scalar_relabel(row.tolist(), int(o))
                                for row, o in zip(d, org)]

    def test_batch_tied_others_take_smallest_index(self):
        d = np.array([[0.5, 0.2, 0.2], [0.2, 0.5, 0.2], [np.nan, 0.1, 0.1]])
        assert decide_relabel(d, [0, 1, 0]).tolist() == [1, 0, 0]


class TestApplyCorrections:
    def _ds(self):
        return generate(3, 6, 8, 30, 4.0, 1.0, seed=1)

    def _rec(self, sid, org, new, epoch=5):
        return RelabelRecord(sid, org, new, np.array([0.5, 0.4, 0.6]), epoch)

    def test_empty_records_change_nothing(self):
        ds = self._ds()
        before = ds.observed_labels.copy()
        apply_corrections(ds, [])
        assert np.array_equal(ds.observed_labels, before)

    def test_noop_record_not_counted(self):
        ds = self._ds()
        before = ds.observed_labels.copy()
        org = int(ds.observed_labels[4])
        apply_corrections(ds, [self._rec(4, org, org)])
        assert np.array_equal(ds.observed_labels, before)

    def test_changes_applied_and_counted(self):
        ds = self._ds()
        org = int(ds.observed_labels[4])
        new = (org + 1) % 3
        expected = ds.observed_labels.copy()
        expected[4] = new
        apply_corrections(ds, [self._rec(4, org, new)])
        assert np.array_equal(ds.observed_labels, expected)

    def test_unknown_id_is_integrity_error(self):
        ds = self._ds()
        with pytest.raises(IntegrityError):
            apply_corrections(ds, [self._rec(999, 0, 1)])


class TestProposeCorrections:
    def _group(self, seed, k=40, classes=4, units=6):
        rng = np.random.default_rng(seed)
        templates = templates_from(rng.standard_normal((classes, units)))
        semantics = rng.standard_normal((k, units))
        semantics[::7] = 0.0    # zero-norm rows keep their label
        labels = rng.integers(0, classes, k)
        sample_ids = rng.permutation(10 * k)[:k]
        return templates, semantics, labels, sample_ids

    @pytest.mark.parametrize("seed", range(4))
    def test_shuffled_group_gives_the_sorted_groups_records(self, seed):
        templates, semantics, labels, ids = self._group(seed)
        order = np.argsort(ids)
        with pytest.warns(UserWarning, match="zero-norm semantics"):
            want = propose_corrections(templates, semantics[order],
                                       labels[order], ids[order], 7)
        shuffle = np.random.default_rng(seed + 100).permutation(len(ids))
        with pytest.warns(UserWarning, match="zero-norm semantics"):
            got = propose_corrections(templates, semantics[shuffle],
                                      labels[shuffle], ids[shuffle], 7)
        assert want
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert ((g.sample_id, g.original, g.corrected, g.epoch) ==
                    (w.sample_id, w.original, w.corrected, w.epoch))
            assert g.distances.tobytes() == w.distances.tobytes()

    def test_records_follow_the_rule_in_sample_id_order(self):
        templates, semantics, labels, ids = self._group(9)
        with pytest.warns(UserWarning):
            records = propose_corrections(templates, semantics, labels, ids,
                                          3)
        want = []
        for j in np.argsort(ids):
            if not semantics[j].any():
                continue
            new = scalar_relabel(distances_of(semantics[j], templates),
                                 int(labels[j]))
            if new != labels[j]:
                want.append((int(ids[j]), int(labels[j]), new))
        assert [(r.sample_id, r.original, r.corrected)
                for r in records] == want
        assert all(r.epoch == 3 for r in records)


class TestAudit:
    def _records(self):
        distances = np.array([0.5, -0.0, 5e-324, 1 / 3, 2.0])
        return [RelabelRecord(4, 0, 1, distances, 5),
                RelabelRecord(2**40, 3, 2, distances[::-1].copy(), 12),
                RelabelRecord(0, 4, 0, distances, 12)]

    def test_write_audit_format(self, tmp_path):
        path = tmp_path / "audit.csv"
        write_audit(path, self._records()[:1])
        assert path.read_text().splitlines() == [AUDIT_HEADER,
                                                 "5,4,0,1,0.5,-0.0"]

    @pytest.mark.parametrize("count", [0, 3])
    def test_read_returns_what_was_written(self, tmp_path, count):
        records = self._records()[:count]
        path = tmp_path / "audit.csv"
        write_audit(path, records)
        got = read_audit(path)
        ints = {"epoch": [r.epoch for r in records],
                "sample_id": [r.sample_id for r in records],
                "original": [r.original for r in records],
                "corrected": [r.corrected for r in records]}
        dists = {"dist_original": [r.distances[r.original] for r in records],
                 "dist_corrected": [r.distances[r.corrected]
                                    for r in records]}
        assert list(got) == AUDIT_HEADER.split(",")
        for columns, dtype in ((ints, np.int64), (dists, np.float64)):
            for name, values in columns.items():
                assert got[name].dtype == dtype
                assert got[name].tobytes() == np.array(
                    values, dtype=dtype).tobytes()


class TestCorrectionFigures:
    def _same_as_oracle(self, start, end, true):
        got = correction_figures(np.asarray(start), np.asarray(end),
                                 np.asarray(true))
        want = scalar_correction_figures(start, end, true)
        assert all(type(v) is float for v in got)
        np.testing.assert_array_equal(got, want)
        return got

    def test_nothing_moved_has_nan_precision(self):
        precision, recall = self._same_as_oracle([0, 1, 2], [0, 1, 2],
                                                 [0, 1, 0])
        assert math.isnan(precision)
        assert recall == 0.0

    def test_nothing_wrong_has_nan_recall(self):
        precision, recall = self._same_as_oracle([0, 1, 2], [1, 1, 2],
                                                 [0, 1, 2])
        assert precision == 0.0
        assert math.isnan(recall)

    def test_one_right_move_of_two(self):
        # sample 0 fixed, sample 2 moved from right to wrong, sample 3 stays
        # wrong
        assert self._same_as_oracle([1, 1, 2, 0], [0, 1, 0, 0],
                                    [0, 1, 2, 2]) == (0.5, 0.5)

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(1, 40), st.integers(2, 5),
                      st.integers(0, 2**32 - 1))
    def test_random_triples_match_oracle(self, n, classes, seed):
        rng = np.random.default_rng(seed)
        start, end, true = (rng.integers(0, classes, n).tolist()
                            for _ in range(3))
        self._same_as_oracle(start, end, true)
