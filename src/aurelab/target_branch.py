"""Expression classification branch.

A small trainable backbone MLP stands in for a pretrained feature extractor.
On top of it sit a per-sample confidence head (a one-unit sigmoid attention
layer), per-batch class-balance weights, the confidence- and class-weighted
softmax cross-entropy, and the hinge that keeps the mean confidence of the
high group above the low group by a margin.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError


class TargetBranch:
    """Backbone (dim -> hidden -> feat), confidence head, class logits."""

    def __init__(self, in_dim: int, hidden_dim: int, feat_dim: int,
                 n_classes: int, leaky_slope: float = 0.01, *,
                 rng: np.random.Generator):
        self.leaky_slope = leaky_slope
        self.layer1_w = ad.parameter(
            rng.standard_normal((in_dim, hidden_dim)) * np.sqrt(2.0 / in_dim),
            "target.layer1_w")
        self.layer1_b = ad.parameter(np.zeros((1, hidden_dim)), "target.layer1_b")
        self.layer2_w = ad.parameter(
            rng.standard_normal((hidden_dim, feat_dim)) * np.sqrt(1.0 / hidden_dim),
            "target.layer2_w")
        self.layer2_b = ad.parameter(np.zeros((1, feat_dim)), "target.layer2_b")
        self.confidence_w = ad.parameter(
            rng.standard_normal((feat_dim, 1)) * 0.01, "target.confidence_w")
        self.classifier_w = ad.parameter(
            rng.standard_normal((feat_dim, n_classes)) * np.sqrt(1.0 / feat_dim),
            "target.classifier_w")

    def parameters(self) -> dict[str, Tensor]:
        return {t.name: t for t in (self.layer1_w, self.layer1_b, self.layer2_w,
                                    self.layer2_b, self.confidence_w,
                                    self.classifier_w)}

    def features(self, inputs: Tensor) -> Tensor:
        """N x feat_dim features; input must be N x in_dim."""
        h = ad.leaky_relu(ad.add_row(ad.matmul(inputs, self.layer1_w),
                                     self.layer1_b), self.leaky_slope)
        return ad.add_row(ad.matmul(h, self.layer2_w), self.layer2_b)

    def confidence(self, features: Tensor) -> Tensor:
        """Per-sample confidence in (0, 1): sigmoid of a learned projection."""
        return ad.sigmoid(ad.matmul(features, self.confidence_w))

    def logits(self, features: Tensor) -> Tensor:
        return ad.matmul(features, self.classifier_w)


def class_weights(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Per-class weights 1 - count/N over a batch; absent classes get 1."""
    labels = np.asarray(labels)
    counts = np.bincount(labels, minlength=n_classes).astype(np.float64)
    return 1.0 - counts / labels.size


def weighted_cross_entropy(features: Tensor, classifier_w: Tensor,
                           confidence: Tensor, class_wts: np.ndarray,
                           labels: np.ndarray) -> Tensor:
    """Softmax cross-entropy with every logit of sample i scaled by
    confidence_i * class_wts[label_i].

    The scale multiplies all class logits of the row (numerator and
    denominator alike), so it acts as a per-sample temperature: it never
    changes the argmax, only how sharply the row is penalized.
    """
    labels = np.asarray(labels)
    n = features.rows
    n_cls = classifier_w.cols
    if labels.size != n:
        raise ConfigError(f"{labels.size} labels for {n} samples")
    if labels.size and (labels.min() < 0 or labels.max() >= n_cls):
        bad = labels[(labels < 0) | (labels >= n_cls)][0]
        raise IndexError(f"label {bad} out of range [0, {n_cls})")
    sel = np.asarray(class_wts, dtype=np.float64)[labels].reshape(n, 1)
    if confidence.shape != sel.shape:
        raise ShapeError(f"confidence must be {n}x1, got {confidence.shape}")
    if features.cols != classifier_w.rows:
        raise ShapeError(f"matmul dimension mismatch: {features.shape} @ "
                         f"{classifier_w.shape}")
    # One tape node; the forward and backward repeat, operation for
    # operation, the composition kept as the oracle in tests/oracles.py.
    fd, wd, cd = features.data, classifier_w.data, confidence.data
    scales = cd * sel
    logits = fd @ wd
    scaled = logits * scales
    shifted = scaled - scaled.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    onehot = np.zeros((n, n_cls))
    onehot[np.arange(n), labels] = 1.0
    picked = (logp * onehot).sum(axis=1, keepdims=True)
    factor = -1.0 / n
    f_grad, w_grad, c_grad = (features.requires_grad,
                              classifier_w.requires_grad,
                              confidence.requires_grad)

    def vjp(g):
        g_logp = onehot * (g[0, 0] * factor)
        g_scaled = g_logp - np.exp(logp) * g_logp.sum(axis=1, keepdims=True)
        g_logits = g_scaled * scales
        g_conf = None
        if c_grad:
            g_conf = (g_scaled * logits).sum(axis=1, keepdims=True) * sel
        return (g_logits @ wd.T if f_grad else None,
                fd.T @ g_logits if w_grad else None,
                g_conf)

    return ad.node(np.array([[picked.sum()]]) * factor,
                   (features, classifier_w, confidence), vjp)


def confidence_split(confidence: Tensor, sample_ids: np.ndarray,
                     high_fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """(high, low): batch positions of the high and low confidence groups.

    Samples are ranked by confidence descending (ties broken by ascending
    sample id); the top round(high_fraction * N) form the high group, clamped
    so both groups stay non-empty.  A batch of fewer than 2 samples is all
    high.  ``TrainConfig.validate`` keeps high_fraction in (0, 1).
    """
    n = confidence.rows
    if n < 2:
        return np.arange(n), np.arange(0)
    values = confidence.data[:, 0]
    order = np.lexsort((np.asarray(sample_ids), -values))
    k = min(max(int(round(high_fraction * n)), 1), n - 1)
    return order[:k], order[k:]


def rank_regularization(confidence: Tensor, high: np.ndarray,
                        low: np.ndarray, margin: float) -> Tensor:
    """Hinge on the gap between the mean confidence of the ``high`` and
    ``low`` batch positions (as ``confidence_split`` gives them):
    max(0, margin - (avg_high - avg_low)), differentiable through both means.
    """
    n = confidence.rows
    if len(low) == 0:
        warnings.warn("rank regularization skipped: batch has fewer than 2 samples")
        return ad.scalar(0.0)
    mask_h = np.zeros((1, n))
    mask_h[0, high] = 1.0 / len(high)
    mask_l = np.zeros((1, n))
    mask_l[0, low] = 1.0 / len(low)
    # One tape node, repeating the composition kept in tests/oracles.py.
    avg_h = mask_h @ confidence.data
    avg_l = mask_l @ confidence.data
    gap = float(margin) - (avg_h - avg_l)
    active = (gap > 0).astype(np.float64)

    def vjp(g):
        g_h = -(g * active)
        return (mask_h.T @ g_h + mask_l.T @ -g_h,)

    return ad.node(gap * active, (confidence,), vjp)
