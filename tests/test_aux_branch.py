import hypothesis
import hypothesis.strategies as st
import math

import numpy as np
import pytest

from aurelab import autodiff as ad
from aurelab.aux_branch import (AuxiliaryBranch, au_detection_loss,
                                build_au_graph, random_au_graph)
from aurelab.data import corrupt_labels, generate
import tape_kit as tk
from oracles import cooccurrence_by_double_loop


@pytest.fixture
def branch():
    return AuxiliaryBranch(feat_dim=6, n_units=5, node_dim=4, channels=8,
                           rng=np.random.default_rng(0))


class TestBuildGraph:
    def test_documented_asymmetric_example(self):
        # unit 0 active in samples {1, 2}; unit 1 active in {2, 3, 4}
        bits = np.array([[1, 0], [1, 1], [0, 1], [0, 1]])
        g = build_au_graph(bits)
        assert g.conditional[0, 1] == pytest.approx(1 / 3, abs=1e-15)
        assert g.conditional[1, 0] == pytest.approx(1 / 2, abs=1e-15)
        assert g.conditional[0, 1] != g.conditional[1, 0]

    def test_diagonal_is_one_for_active_units(self):
        bits = np.array([[1, 0, 1], [1, 1, 0]])
        g = build_au_graph(bits)
        assert g.conditional[0, 0] == 1.0
        assert g.conditional[1, 1] == 1.0
        assert g.conditional[2, 2] == 1.0

    def test_all_units_always_active(self):
        g = build_au_graph(np.ones((7, 4)))
        assert np.all(g.conditional == 1.0)
        np.testing.assert_allclose(g.normalized, 0.25)

    def test_never_active_unit_gets_uniform_row(self):
        bits = np.array([[1, 0, 1], [1, 0, 0]])
        g = build_au_graph(bits)
        np.testing.assert_allclose(g.normalized[1], [1 / 3] * 3)
        assert np.all(g.conditional[:, 1] == 0.0)

    def test_matches_double_loop_oracle_on_random_data(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            bits = (rng.random((rng.integers(2, 60), rng.integers(4, 12)))
                    < 0.3).astype(int)
            g = build_au_graph(bits)
            np.testing.assert_allclose(g.conditional,
                                       cooccurrence_by_double_loop(bits),
                                       atol=1e-12)

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(st.integers(min_value=0, max_value=2**31))
    def test_rows_stochastic(self, seed):
        rng = np.random.default_rng(seed)
        bits = (rng.random((20, 6)) < rng.random()).astype(int)
        g = build_au_graph(bits)
        np.testing.assert_allclose(g.normalized.sum(axis=1), 1.0, atol=1e-12)

    def test_random_graph_row_stochastic_and_seeded(self):
        a = random_au_graph(6, np.random.default_rng(3))
        b = random_au_graph(6, np.random.default_rng(3))
        np.testing.assert_allclose(a.normalized.sum(axis=1), 1.0, atol=1e-12)
        assert a.normalized.tobytes() == b.normalized.tobytes()


class TestNodeFeatures:
    def test_zero_head_gives_zero_nodes(self, branch):
        branch.head_w.data[...] = 0.0
        branch.head_b.data[...] = 0.0
        out = branch.node_features(ad.constant(np.ones((3, 6))))
        assert np.all(out.data == 0.0)

    def test_reshape_layout(self, branch):
        feats = ad.constant(np.random.default_rng(1).standard_normal((3, 6)))
        out = branch.node_features(feats)
        assert out.shape == (15, 4)
        flat = (feats.data @ branch.head_w.data) + branch.head_b.data
        np.testing.assert_allclose(out.data, flat.reshape(15, 4))

    def test_gradient_through_head(self, branch):
        feats = ad.constant(np.random.default_rng(2).standard_normal((4, 6)))
        report = tk.check_gradients(
            lambda: tk.mean_all(branch.node_features(feats)),
            [branch.head_w, branch.head_b])
        assert report.max_rel_error < 1e-4


class TestGcnForward:
    def test_identity_propagation(self, branch):
        branch.gcn1_w.data[...] = np.eye(4, 8)
        nodes = ad.constant(np.abs(np.random.default_rng(3)
                                   .standard_normal((10, 4))))
        out = ad.leaky_relu(ad.matmul(
            ad.block_matmul(np.eye(5), nodes, 5), branch.gcn1_w),
            branch.leaky_slope)
        np.testing.assert_allclose(out.data[:, :4], nodes.data)

    def test_uniform_adjacency_averages_nodes(self, branch):
        rng = np.random.default_rng(4)
        nodes = rng.standard_normal((5, 4))
        uniform = np.full((5, 5), 0.2)
        pre = ad.block_matmul(uniform, ad.constant(nodes), 5).data
        np.testing.assert_allclose(pre, np.tile(nodes.mean(axis=0), (5, 1)))

    def test_gradient_both_layers(self, branch):
        g = build_au_graph((np.random.default_rng(5).random((30, 5)) < 0.4)
                           .astype(int))
        nodes = ad.constant(np.random.default_rng(6).standard_normal((15, 4)))
        report = tk.check_gradients(
            lambda: tk.mean_all(branch.gcn_forward(nodes, g.normalized)),
            [branch.gcn1_w, branch.gcn2_w])
        assert report.max_rel_error < 1e-4

    def test_output_shape(self, branch):
        g = random_au_graph(5, np.random.default_rng(7))
        out = branch.gcn_forward(ad.constant(np.zeros((20, 4))), g.normalized)
        assert out.shape == (20, 8)


class TestAuPredict:
    def test_zero_classifier_gives_half_probabilities(self, branch):
        branch.unit_cls_w.data[...] = 0.0
        branch.unit_cls_b.data[...] = 0.0
        emb = ad.constant(np.random.default_rng(8).standard_normal((10, 8)))
        probs, logits = branch.au_predict(emb)
        assert np.all(probs.data == 0.5)
        assert np.all(logits.data == 0.0)

    def test_probabilities_are_sigmoid_of_logits(self, branch):
        emb = ad.constant(np.random.default_rng(9).standard_normal((10, 8)))
        probs, logits = branch.au_predict(emb)
        np.testing.assert_allclose(probs.data,
                                   1.0 / (1.0 + np.exp(-logits.data)))
        assert np.all((probs.data > 0) & (probs.data < 1))

    def test_per_node_classifier_distinct_weights(self, branch):
        # node m must use row m of the classifier weights
        rng = np.random.default_rng(10)
        emb = rng.standard_normal((10, 8))
        _, logits = branch.au_predict(ad.constant(emb))
        manual = np.zeros((2, 5))
        for i in range(2):
            for m in range(5):
                manual[i, m] = (emb[i * 5 + m] @ branch.unit_cls_w.data[m]
                                + branch.unit_cls_b.data[0, m])
        np.testing.assert_allclose(logits.data, manual)


class TestAuLoss:
    def test_perfect_predictions_give_near_zero(self):
        probs = ad.constant(np.array([[1 - 1e-12, 1e-12]]))
        loss = au_detection_loss(probs, np.array([[1, 0]]), np.array([1.0]))
        assert loss.item() == pytest.approx(0.0, abs=1e-9)

    def test_half_probability_closed_form(self):
        probs = ad.constant(np.array([[0.5]]))
        loss = au_detection_loss(probs, np.array([[1]]), np.array([1.0]))
        assert loss.item() == pytest.approx(math.log(2.0), rel=1e-12)

    def test_batch_mean_matches_scalar_recomputation(self):
        rng = np.random.default_rng(11)
        p = rng.random((4, 5)) * 0.9 + 0.05
        z = (rng.random((4, 5)) < 0.5).astype(float)
        alpha = rng.random(4) * 0.8 + 0.1
        got = au_detection_loss(ad.constant(p), z, alpha).item()
        per_sample = [
            -alpha[i] * sum(z[i, m] * math.log(p[i, m])
                            + (1 - z[i, m]) * math.log(1 - p[i, m])
                            for m in range(5))
            for i in range(4)]
        assert got == pytest.approx(np.mean(per_sample), rel=1e-12)

    def test_extreme_probabilities_clamped(self):
        probs = ad.constant(np.array([[1.0, 0.0]]))
        loss = au_detection_loss(probs, np.array([[0, 1]]), np.array([1.0]))
        assert np.isfinite(loss.item())

    def test_confidence_is_not_differentiated(self, branch):
        # no gradient may flow to the confidence head through this loss
        rng = np.random.default_rng(12)
        from aurelab.target_branch import TargetBranch
        target = TargetBranch(6, 6, 6, 3, rng=rng)
        x = ad.constant(rng.standard_normal((4, 6)))
        g = random_au_graph(5, rng)
        feats = target.features(x)
        conf = target.confidence(feats)
        probs, _ = branch.semantic_logits(feats, g.normalized)
        loss = au_detection_loss(probs, (rng.random((4, 5)) < 0.5).astype(int),
                                 conf.data[:, 0])
        (grad_conf,) = ad.gradients(loss, [target.confidence_w])
        assert np.all(grad_conf == 0.0)

    def test_end_to_end_gradient(self, branch):
        rng = np.random.default_rng(13)
        from aurelab.target_branch import TargetBranch
        target = TargetBranch(6, 6, 6, 3, rng=rng)
        x = ad.constant(rng.standard_normal((4, 6)))
        bits = (rng.random((4, 5)) < 0.5).astype(int)
        g = build_au_graph(bits)
        alpha = rng.random(4) * 0.8 + 0.1

        def loss_fn():
            feats = target.features(x)
            probs, _ = branch.semantic_logits(feats, g.normalized)
            return au_detection_loss(probs, bits, alpha)

        params = list(target.parameters().values()) + \
            list(branch.parameters().values())
        report = tk.check_gradients(loss_fn, params)
        assert report.max_rel_error < 1e-4

    def test_gradient_three_sample_five_unit_batch(self, branch):
        rng = np.random.default_rng(14)
        feats = ad.constant(rng.standard_normal((3, 6)))
        bits = (rng.random((3, 5)) < 0.5).astype(int)
        g = build_au_graph(bits)
        alpha = rng.random(3) * 0.8 + 0.1

        def loss_fn():
            probs, _ = branch.semantic_logits(feats, g.normalized)
            return au_detection_loss(probs, bits, alpha)

        report = tk.check_gradients(loss_fn,
                                    list(branch.parameters().values()))
        assert report.max_rel_error < 1e-4


def test_semantic_features_separate_classes_after_training():
    # After a short run on clean data, same-class semantic vectors should sit
    # closer together (cosine) than cross-class ones.
    from aurelab.trainer import TrainConfig, train

    ds = generate(3, 6, 8, 240, 4.0, 1.0, seed=21, au_noise=0.02)
    cfg = TrainConfig(epochs=12, batch_size=48, warmup_epochs=12, seed=21)
    result = train(ds, cfg)
    model = result.model
    feats = model.target.features(ad.constant(ds.features))
    _, sem = model.aux.semantic_logits(feats, model.graph.normalized)
    s = sem.data / np.linalg.norm(sem.data, axis=1, keepdims=True)
    cos = s @ s.T
    same = ds.true_labels[:, None] == ds.true_labels[None, :]
    off_diag = ~np.eye(ds.n, dtype=bool)
    within = 1.0 - cos[same & off_diag].mean()
    between = 1.0 - cos[~same].mean()
    assert within < between
