import math

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from aurelab import autodiff as ad
from aurelab.target_branch import (TargetBranch, class_weights,
                                   confidence_split, rank_regularization,
                                   weighted_cross_entropy)
import tape_kit as tk
from oracles import scalar_class_weights, scalar_softmax_ce


@pytest.fixture
def branch():
    return TargetBranch(8, 6, 4, 3, rng=np.random.default_rng(0))


class TestBackbone:
    def test_zero_parameters_give_zero_features(self, branch):
        for t in (branch.layer1_w, branch.layer1_b, branch.layer2_w,
                  branch.layer2_b):
            t.data[...] = 0.0
        out = branch.features(ad.constant(np.random.default_rng(1)
                                          .standard_normal((5, 8))))
        assert np.all(out.data == 0.0)

    @pytest.mark.parametrize("n", [1, 4, 17])
    def test_output_shape(self, branch, n):
        out = branch.features(ad.constant(np.zeros((n, 8))))
        assert out.shape == (n, 4)

    def test_gradient_of_mean_output_vs_fd(self, branch):
        x = ad.constant(np.random.default_rng(2).standard_normal((6, 8)))
        report = tk.check_gradients(
            lambda: tk.mean_all(branch.features(x)), [branch.layer1_w])
        assert report.max_rel_error < 1e-4


class TestConfidence:
    def test_zero_projection_gives_half(self, branch):
        branch.confidence_w.data[...] = 0.0
        feats = branch.features(ad.constant(np.ones((4, 8))))
        assert np.allclose(branch.confidence(feats).data, 0.5)

    def test_log3_projection_gives_three_quarters(self, branch):
        feats = ad.constant(np.eye(4)[:1])
        branch.confidence_w.data[...] = 0.0
        branch.confidence_w.data[0, 0] = math.log(3.0)
        assert branch.confidence(feats).data[0, 0] == pytest.approx(0.75)

    def test_matches_standalone_sigmoid(self, branch):
        rng = np.random.default_rng(3)
        feats = ad.constant(rng.standard_normal((5, 4)))
        got = branch.confidence(feats).data[:, 0]
        proj = feats.data @ branch.confidence_w.data
        expected = 1.0 / (1.0 + np.exp(-proj[:, 0]))
        assert got == pytest.approx(expected)


class TestClassWeights:
    def test_documented_example(self):
        got = class_weights(np.array([0, 0, 0, 0, 1, 1, 2, 2]), 3)
        np.testing.assert_allclose(got, [0.5, 0.75, 0.75])

    def test_single_class_batch(self):
        got = class_weights(np.array([1, 1, 1]), 3)
        assert got[1] == 0.0
        assert got[0] == got[2] == 1.0

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.lists(st.integers(min_value=0, max_value=6),
                               min_size=1, max_size=40))
    def test_sum_identity_and_oracle(self, labels):
        got = class_weights(np.array(labels), 7)
        assert got.sum() == pytest.approx(6.0)
        np.testing.assert_allclose(got, scalar_class_weights(labels, 7))


class TestWeightedCrossEntropy:
    def setup_method(self):
        self.rng = np.random.default_rng(5)

    def _parts(self, n=6, d=4, c=3):
        feats = ad.constant(self.rng.standard_normal((n, d)))
        w = ad.parameter(self.rng.standard_normal((d, c)), "w")
        labels = self.rng.integers(0, c, n)
        return feats, w, labels

    def test_unit_scale_reduces_to_plain_ce(self):
        feats, w, labels = self._parts()
        ones = ad.constant(np.ones((6, 1)))
        got = weighted_cross_entropy(feats, w, ones, np.ones(3), labels).item()
        logits = feats.data @ w.data
        expected = np.mean([scalar_softmax_ce(logits[i], labels[i])
                            for i in range(6)])
        assert got == pytest.approx(expected, rel=1e-12)

    def test_two_class_closed_form(self):
        # logits (1, 0) at unit scale: loss = ln(1 + e^-1)
        feats = ad.constant([[1.0]])
        w = ad.parameter([[1.0, 0.0]])
        ones = ad.constant([[1.0]])
        got = weighted_cross_entropy(feats, w, ones, np.ones(2),
                                     np.array([0])).item()
        assert got == pytest.approx(math.log(1 + math.exp(-1.0)), rel=1e-12)

    def test_matches_softmax_row_recomputation(self):
        feats, w, labels = self._parts()
        conf = ad.constant(self.rng.random((6, 1)) * 0.8 + 0.1)
        gamma = scalar_class_weights(labels, 3)
        got = weighted_cross_entropy(feats, w, conf, np.array(gamma),
                                     labels).item()
        scales = conf.data[:, 0] * np.array(gamma)[labels]
        scaled = feats.data @ w.data * scales[:, None]
        probs = tk.softmax_row(ad.constant(scaled)).data
        expected = -np.mean(np.log(probs[np.arange(6), labels]))
        assert got == pytest.approx(expected, rel=1e-10)

    def test_label_out_of_range(self):
        feats, w, _ = self._parts()
        with pytest.raises(IndexError):
            weighted_cross_entropy(feats, w, ad.constant(np.ones((6, 1))),
                                   np.ones(3), np.array([0, 1, 2, 3, 0, 1]))

    def test_gradient_through_confidence_and_classifier(self):
        branch = TargetBranch(5, 6, 4, 3, rng=self.rng)
        x = ad.constant(self.rng.standard_normal((6, 5)))
        labels = self.rng.integers(0, 3, 6)
        gamma = class_weights(labels, 3)

        def loss_fn():
            feats = branch.features(x)
            conf = branch.confidence(feats)
            return weighted_cross_entropy(feats, branch.classifier_w, conf,
                                          gamma, labels)

        report = tk.check_gradients(loss_fn,
                                    list(branch.parameters().values()))
        assert report.max_rel_error < 1e-4

    def test_gradient_four_sample_three_class_batch(self):
        rng = np.random.default_rng(31)
        branch = TargetBranch(6, 5, 4, 3, rng=rng)
        x = ad.constant(rng.standard_normal((4, 6)))
        labels = np.array([0, 2, 1, 2])
        gamma = class_weights(labels, 3)

        def loss_fn():
            feats = branch.features(x)
            conf = branch.confidence(feats)
            return weighted_cross_entropy(feats, branch.classifier_w, conf,
                                          gamma, labels)

        report = tk.check_gradients(loss_fn,
                                    list(branch.parameters().values()))
        assert report.max_rel_error < 1e-4

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(st.integers(min_value=0, max_value=2**31))
    def test_argmax_invariant_under_positive_scaling(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((4, 5))
        scales = rng.random((4, 1)) * 2.0 + 0.05
        assert np.array_equal(np.argmax(logits, axis=1),
                              np.argmax(logits * scales, axis=1))


class TestRankRegularization:
    def _conf(self, values):
        return ad.constant(np.asarray(values, dtype=float).reshape(-1, 1))

    def _hinge(self, conf, phi, margin):
        high, low = confidence_split(conf, np.arange(conf.rows), phi)
        return rank_regularization(conf, high, low, margin)

    def test_loss_zero_when_gap_exceeds_margin(self):
        # constructed so avg_high = 0.8, avg_low = 0.5
        conf = self._conf([0.8, 0.8, 0.8, 0.8, 0.5])
        assert self._hinge(conf, 0.8, 0.15).item() == 0.0

    def test_documented_hinge_value(self):
        conf = self._conf([0.6, 0.6, 0.6, 0.6, 0.55])
        assert self._hinge(conf, 0.8, 0.15).item() == pytest.approx(
            0.10, abs=1e-12)

    def test_split_sizes_at_phi_08(self):
        conf = self._conf(np.linspace(0.9, 0.1, 10))
        high, low = confidence_split(conf, np.arange(10), 0.8)
        assert len(high) == 8
        assert len(low) == 2

    def test_ties_break_by_ascending_id(self):
        conf = self._conf([0.5, 0.5, 0.5, 0.5])
        ids = np.array([7, 3, 9, 1])
        high, low = confidence_split(conf, ids, 0.5)
        assert ids[high].tolist() == [1, 3]
        assert ids[low].tolist() == [7, 9]

    def test_single_sample_skips_with_warning(self):
        conf = self._conf([0.4])
        high, low = confidence_split(conf, np.arange(1), 0.8)
        assert len(high) == 1
        assert len(low) == 0
        with pytest.warns(UserWarning):
            loss = rank_regularization(conf, high, low, 0.15)
        assert loss.item() == 0.0

    def test_loss_bounded_by_margin_and_gradient_checks(self):
        rng = np.random.default_rng(11)
        w = ad.parameter(rng.standard_normal((3, 1)) * 0.1, "w")
        x = ad.constant(rng.standard_normal((8, 3)))

        def loss_fn():
            return self._hinge(ad.sigmoid(ad.matmul(x, w)), 0.8, 0.4)

        value = loss_fn().item()
        assert 0.0 < value <= 0.4
        assert tk.check_gradients(loss_fn, [w]).max_rel_error < 1e-4

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=2,
                 max_size=30),
        st.sampled_from([0.5, 0.8, 0.9]))
    def test_partition_respects_sorted_order(self, values, phi):
        conf = self._conf(values)
        n = len(values)
        high, low = confidence_split(conf, np.arange(n), phi)
        assert sorted(np.concatenate([high, low]).tolist()) == list(range(n))
        k = int(round(phi * n))
        assert len(high) == min(max(k, 1), n - 1)
        arr = np.asarray(values)
        if len(low):
            assert arr[high].min() >= arr[low].max()
