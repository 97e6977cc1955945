"""Each training loss is one tape node with a hand-written vjp.  Its value
and the gradient of every parent must equal, bit for bit, the composition of
generic primitives kept in ``oracles.py``."""

import warnings

import numpy as np
import pytest

from aurelab import autodiff as ad
from aurelab.aux_branch import au_detection_loss
from aurelab.data import generate
from aurelab.errors import ShapeError
from aurelab.target_branch import (class_weights, confidence_split,
                                   rank_regularization,
                                   weighted_cross_entropy)
from aurelab.trainer import TrainConfig, init_model, total_loss
from oracles import (composed_au_detection_loss, composed_rank_hinge,
                     composed_total_loss, composed_weighted_cross_entropy)


def assert_same_bits(node_loss, composed_loss, parents, upstream=0.37):
    """Equal values, and equal gradients of every parent that needs one,
    under a unit and a non-unit upstream gradient."""
    assert np.array_equal(node_loss.data, composed_loss.data)
    tracked = [p for p in parents if p.requires_grad]
    for weight in (1.0, upstream):
        got = ad.gradients(ad.scale(node_loss, weight), tracked)
        want = ad.gradients(ad.scale(composed_loss, weight), tracked)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def wce_inputs(seed, n=48, feat=16, n_cls=5):
    rng = np.random.default_rng(seed)
    features = ad.parameter(rng.standard_normal((n, feat)))
    classifier_w = ad.parameter(rng.standard_normal((feat, n_cls)) * 0.5)
    confidence = ad.parameter(rng.uniform(0.05, 0.95, (n, 1)))
    labels = rng.integers(0, n_cls, n)
    return features, classifier_w, confidence, class_weights(labels, n_cls), labels


class TestWeightedCrossEntropy:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_batches(self, seed):
        n = 1 + seed * 5 % 60
        args = wce_inputs(seed, n=n)
        assert_same_bits(weighted_cross_entropy(*args),
                         composed_weighted_cross_entropy(*args), args[:3])

    def test_constant_confidence_of_target_off_training(self):
        features, classifier_w, _, _, labels = wce_inputs(1)
        ones = ad.constant(np.ones((features.rows, 1)))
        args = (features, classifier_w, ones, np.ones(5), labels)
        assert_same_bits(weighted_cross_entropy(*args),
                         composed_weighted_cross_entropy(*args), args[:3])

    def test_shape_errors_kept(self):
        features, classifier_w, confidence, gamma, labels = wce_inputs(2)
        with pytest.raises(ShapeError):
            weighted_cross_entropy(features, classifier_w,
                                   ad.parameter(np.ones((3, 1))), gamma,
                                   labels)
        with pytest.raises(ShapeError):
            weighted_cross_entropy(features, ad.parameter(np.ones((4, 5))),
                                   confidence, gamma, labels)


class TestRankHinge:
    @staticmethod
    def hinge_pair(values, margin, ids=None):
        confidence = ad.parameter(np.asarray(values, dtype=float).reshape(-1, 1))
        ids = np.arange(confidence.rows) if ids is None else ids
        high, low = confidence_split(confidence, ids, 0.8)
        return (rank_regularization(confidence, high, low, margin),
                composed_rank_hinge(confidence, high, low, margin), confidence)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_batches(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 64))
        loss, composed, conf = self.hinge_pair(
            rng.uniform(0, 1, n), float(rng.uniform(0, 0.5)),
            rng.permutation(n))
        assert_same_bits(loss, composed, [conf])

    def test_inactive_hinge(self):
        loss, composed, conf = self.hinge_pair(
            [0.99, 0.98, 0.97, 0.96, 0.1], 0.1)
        assert loss.item() == 0.0
        assert_same_bits(loss, composed, [conf])

    def test_active_hinge(self):
        loss, composed, conf = self.hinge_pair(
            [0.6, 0.55, 0.58, 0.52, 0.5], 0.5)
        assert loss.item() > 0.0
        assert_same_bits(loss, composed, [conf])

    def test_one_sample_batch(self):
        conf = ad.parameter(np.array([[0.7]]))
        high, low = confidence_split(conf, np.array([3]), 0.8)
        with pytest.warns(UserWarning, match="fewer than 2"):
            loss = rank_regularization(conf, high, low, 0.1)
        assert loss.item() == 0.0 and not loss.requires_grad
        assert np.array_equal(ad.gradients(loss, [conf])[0], np.zeros((1, 1)))


class TestAuDetectionLoss:
    @staticmethod
    def inputs(seed, n=48, m=10):
        rng = np.random.default_rng(200 + seed)
        probs = ad.parameter(rng.uniform(0.01, 0.99, (n, m)))
        bits = rng.integers(0, 2, (n, m))
        return probs, bits, rng.uniform(0, 1, n)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_batches(self, seed):
        args = self.inputs(seed, n=1 + seed * 3)
        assert_same_bits(au_detection_loss(*args),
                         composed_au_detection_loss(*args), args[:1])

    def test_probabilities_clamped_at_both_ends(self):
        probs, bits, conf = self.inputs(3, n=4, m=6)
        probs.data[0] = [0.0, 1.0, 1e-15, 1.0 - 1e-15, 1e-12, 1.0 - 1e-12]
        probs.data[1] = [0.0, 0.0, 1.0, 1.0, 0.5, 0.5]
        bits[:2] = [[0, 1, 0, 1, 0, 1], [1, 0, 1, 0, 1, 0]]
        loss = au_detection_loss(probs, bits, conf)
        assert np.isfinite(loss.item())
        assert_same_bits(loss, composed_au_detection_loss(probs, bits, conf),
                         [probs])
        g = ad.gradients(loss, [probs])[0]
        assert np.all(g[0, :4] == 0.0) and np.all(g[1, :4] == 0.0)


class TestTotalLoss:
    @pytest.mark.parametrize("weights", [(1.0, 0.2), (0.37, 1.0), (2.0, 0.0)])
    def test_weighted_sum(self, weights):
        rng = np.random.default_rng(9)
        parts = [ad.parameter(rng.standard_normal((1, 1))) for _ in range(3)]
        assert_same_bits(total_loss(*parts, *weights),
                         composed_total_loss(*parts, *weights), parts)

    def test_constant_parts(self):
        wce = ad.parameter(np.array([[1.5]]))
        args = (wce, ad.scalar(0.0), ad.scalar(0.0), 2.0, 0.0)
        assert_same_bits(total_loss(*args), composed_total_loss(*args), [wce])


@pytest.mark.parametrize("use_target,use_aux", [
    (False, False), (True, False), (False, True), (True, True)])
def test_training_step_gradients_match_the_composition(use_target, use_aux):
    """One step of the training loss through every branch: the parameters'
    gradients, where several contributions meet, keep their summation order."""
    ds = generate(4, 6, 8, 96, 3.0, 1.0, seed=11)
    config = TrainConfig(hidden_dim=16, feat_dim=8, node_dim=4,
                         gcn_channels=8, use_target_branch=use_target,
                         use_aux_branch=use_aux)
    model = init_model(ds, config, np.random.default_rng(0))
    idx = np.arange(0, 96, 2)
    labels = ds.observed_labels[idx]

    def step(wce_fn, hinge_fn, au_fn, total_fn):
        feats = model.target.features(ad.constant(ds.features[idx]))
        conf = model.target.confidence(feats)
        if use_target:
            high, low = confidence_split(conf, idx, 0.8)
            wce = wce_fn(feats, model.target.classifier_w, conf,
                         class_weights(labels, 4), labels)
            rank = hinge_fn(conf, high, low)
        else:
            wce = wce_fn(feats, model.target.classifier_w,
                         ad.constant(np.ones((len(idx), 1))), np.ones(4),
                         labels)
            rank = ad.scalar(0.0)
        au = ad.scalar(0.0)
        if use_aux:
            probs, _ = model.aux.semantic_logits(feats, model.graph.normalized)
            au = au_fn(probs, ds.au_labels[idx], conf.data)
        return total_fn(wce, rank, au, 0.8, 0.6)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        node = step(weighted_cross_entropy,
                    lambda c, h, l: rank_regularization(c, h, l, 0.1),
                    au_detection_loss, total_loss)
        composed = step(composed_weighted_cross_entropy,
                        lambda c, h, l: composed_rank_hinge(c, h, l, 0.1),
                        composed_au_detection_loss, composed_total_loss)
    params = list(model.parameters().values())
    assert np.array_equal(node.data, composed.data)
    for got, want in zip(ad.gradients(node, params),
                         ad.gradients(composed, params)):
        assert np.array_equal(got, want)
