import math

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from aurelab.data import generate
from aurelab.errors import IntegrityError
from aurelab.relabel import (RelabelRecord, SemanticTemplates,
                             apply_corrections, audit_rows, decide_relabel,
                             semantic_distances)
from oracles import scalar_cosine_distance, scalar_relabel


def templates_from(vectors, valid=None):
    vectors = np.asarray(vectors, dtype=float)
    t = SemanticTemplates.empty(len(vectors), vectors.shape[1])
    t.vectors[...] = vectors
    t.valid[...] = True if valid is None else valid
    return t


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


class TestSemanticDistances:
    def test_parallel_orthogonal_opposite(self):
        t = templates_from([[1, 0], [0, 1], [-1, 0]])
        d = semantic_distances(np.array([1.0, 0.0]), t)
        assert d[0] == pytest.approx(0.0)
        assert d[1] == pytest.approx(1.0)
        assert d[2] == pytest.approx(2.0)

    def test_invalid_template_is_nan(self):
        t = templates_from([[1, 0], [0, 1]], valid=[True, False])
        d = semantic_distances(np.array([1.0, 1.0]), t)
        assert not math.isnan(d[0])
        assert math.isnan(d[1])

    def test_zero_norm_template_is_nan(self):
        t = templates_from([[0, 0], [1, 1]])
        d = semantic_distances(np.array([1.0, 0.0]), t)
        assert math.isnan(d[0])

    @pytest.mark.parametrize("template,sample,expected", [
        ([1, 2, 3], [1, 2, 3], 0.0), ([1, 0], [0, 1], 1.0),
        ([1, 1], [-1, -1], 2.0), ([0, 0], [1, 0], np.nan)],
        ids=["parallel", "orthogonal", "antiparallel", "zero_norm"])
    def test_cosine_unit_cases(self, template, sample, expected):
        d = semantic_distances(np.array(sample, dtype=float),
                               templates_from([template]))
        assert d.shape == (1,)
        assert d[0] == pytest.approx(expected, abs=1e-15, nan_ok=True)

    def test_zero_norm_sample_gives_nan_row(self):
        t = templates_from([[1, 0], [0, 1]])
        assert np.isnan(semantic_distances(np.zeros(2), t)).all()
        d = semantic_distances(np.array([[1.0, 1.0], [0.0, 0.0]]), t)
        assert not np.isnan(d[0]).any() and np.isnan(d[1]).all()

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.integers(min_value=0, max_value=2**31))
    def test_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        t = templates_from(rng.standard_normal((4, 6)))
        s = rng.standard_normal(6)
        d = semantic_distances(s, t)
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
        assert decide_relabel(np.array([0.4, 0.25, 0.9]), 0) == 1

    def test_closer_original_keeps(self):
        assert decide_relabel(np.array([0.2, 0.3, 0.9]), 0) == 0

    def test_exact_tie_keeps_original(self):
        assert decide_relabel(np.array([0.3, 0.3]), 0) == 0

    def test_tie_between_others_takes_smallest_index(self):
        assert decide_relabel(np.array([0.5, 0.2, 0.2]), 0) == 1

    def test_needs_two_valid_templates(self):
        assert decide_relabel(np.array([0.5, np.nan, np.nan]), 0) == 0
        assert decide_relabel(np.array([np.nan, 0.1, 0.2]), 0) == 0

    def test_equidistant_templates_change_nothing(self):
        assert decide_relabel(np.full(5, 0.7), 3) == 3

    def test_exact_template_match_relabels(self):
        t = templates_from(np.eye(3))
        s = np.array([0.0, 1.0, 0.0])   # equals template 1 exactly
        d = semantic_distances(s, t)
        assert d[0] > 0
        assert decide_relabel(d, 0) == 1

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.integers(min_value=0, max_value=2**31))
    def test_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        c = rng.integers(2, 7)
        d = rng.random(c) * 2.0
        d[rng.random(c) < 0.2] = np.nan
        org = int(rng.integers(0, c))
        assert decide_relabel(d, org) == scalar_relabel(d.tolist(), org)

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
        assert apply_corrections(ds, []) == 0
        assert np.array_equal(ds.observed_labels, before)

    def test_noop_record_not_counted(self):
        ds = self._ds()
        org = int(ds.observed_labels[4])
        assert apply_corrections(ds, [self._rec(4, org, org)]) == 0

    def test_changes_applied_and_counted(self):
        ds = self._ds()
        org = int(ds.observed_labels[4])
        new = (org + 1) % 3
        assert apply_corrections(ds, [self._rec(4, org, new)]) == 1
        assert ds.observed_labels[4] == new

    def test_unknown_id_is_integrity_error(self):
        ds = self._ds()
        with pytest.raises(IntegrityError):
            apply_corrections(ds, [self._rec(999, 0, 1)])

    def test_audit_rows_format(self):
        rows = audit_rows([self._rec(4, 0, 1)])
        fields = rows[0].split(",")
        assert fields[:4] == ["5", "4", "0", "1"]
        assert float(fields[4]) == 0.5
        assert float(fields[5]) == 0.4
