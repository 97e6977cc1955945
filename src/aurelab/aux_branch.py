"""Action-unit detection branch.

The co-occurrence graph has one node per action unit; the directed edge
weight from unit q to unit p is the conditional probability P(p active given
q active) counted over the training labels, so the adjacency is asymmetric
by construction.  Per-sample node features come from a linear head on the
shared backbone features, pass through two graph-convolution layers over the
row-normalized adjacency, and end in one tiny per-node classifier.  The
pre-sigmoid per-unit logits form the sample's semantic feature vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError


@dataclass
class AUGraph:
    """Unit co-occurrence graph over M action units."""
    conditional: np.ndarray    # (M, M); [p, q] = P(unit p | unit q)
    normalized: np.ndarray     # conditional with rows rescaled to sum to 1


def _row_normalize(a: np.ndarray) -> np.ndarray:
    m = a.shape[0]
    sums = a.sum(axis=1, keepdims=True)
    out = np.where(sums > 0, a / np.where(sums > 0, sums, 1.0),
                   np.full((m, m), 1.0 / m))
    return out


def build_au_graph(au_labels: np.ndarray) -> AUGraph:
    """Estimate the conditional co-occurrence adjacency from 0/1 unit labels.

    Entries conditioned on a never-active unit are set to 0; rows that end up
    all zero (the unit itself never occurs) fall back to uniform 1/M after
    normalization so the propagation matrix stays row-stochastic.
    """
    z = np.asarray(au_labels, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 1:
        raise ConfigError(f"au_labels must be (n, M) with n >= 1, got {z.shape}")
    occurrence = z.sum(axis=0)
    pair = z.T @ z
    denom = np.where(occurrence > 0, occurrence, 1.0)[None, :]
    conditional = np.where(occurrence[None, :] > 0, pair / denom, 0.0)
    return AUGraph(conditional, _row_normalize(conditional))


def random_au_graph(n_units: int, rng: np.random.Generator) -> AUGraph:
    """Uniformly sampled edge weights, row-normalized; baseline for comparing
    against the counted co-occurrence edges."""
    raw = rng.random((n_units, n_units))
    return AUGraph(raw, _row_normalize(raw))


class AuxiliaryBranch:
    """Node-feature head, two graph-convolution layers, per-node classifiers."""

    def __init__(self, feat_dim: int, n_units: int, node_dim: int,
                 channels: int, leaky_slope: float = 0.01, *,
                 rng: np.random.Generator):
        self.n_units = n_units
        self.node_dim = node_dim
        self.leaky_slope = leaky_slope
        wide = n_units * node_dim
        self.head_w = ad.parameter(
            rng.standard_normal((feat_dim, wide)) * np.sqrt(1.0 / feat_dim),
            "aux.head_w")
        self.head_b = ad.parameter(np.zeros((1, wide)), "aux.head_b")
        self.gcn1_w = ad.parameter(
            rng.standard_normal((node_dim, channels)) * np.sqrt(2.0 / node_dim),
            "aux.gcn1_w")
        self.gcn2_w = ad.parameter(
            rng.standard_normal((channels, channels)) * np.sqrt(2.0 / channels),
            "aux.gcn2_w")
        self.unit_cls_w = ad.parameter(
            rng.standard_normal((n_units, channels)) * np.sqrt(1.0 / channels),
            "aux.unit_cls_w")
        self.unit_cls_b = ad.parameter(np.zeros((1, n_units)), "aux.unit_cls_b")

    def parameters(self) -> dict[str, Tensor]:
        return {t.name: t for t in (self.head_w, self.head_b, self.gcn1_w,
                                    self.gcn2_w, self.unit_cls_w,
                                    self.unit_cls_b)}

    def node_features(self, features: Tensor) -> Tensor:
        """Project backbone features to per-unit node features.

        Returns an (N * n_units) x node_dim matrix: sample i's node block
        occupies rows [i*n_units, (i+1)*n_units).
        """
        flat = ad.add_row(ad.matmul(features, self.head_w), self.head_b)
        return ad.reshape(flat, features.rows * self.n_units, self.node_dim)

    def gcn_forward(self, nodes: Tensor, adjacency: np.ndarray) -> Tensor:
        """Two propagation layers: leaky_relu(normalized_adjacency @ X @ W)."""
        if adjacency.shape != (self.n_units, self.n_units):
            raise ShapeError(
                f"adjacency must be {self.n_units}x{self.n_units}, "
                f"got {adjacency.shape}")
        h = ad.leaky_relu(ad.matmul(
            ad.block_matmul(adjacency, nodes, self.n_units), self.gcn1_w),
            self.leaky_slope)
        return ad.leaky_relu(ad.matmul(
            ad.block_matmul(adjacency, h, self.n_units), self.gcn2_w),
            self.leaky_slope)

    def au_predict(self, embeddings: Tensor) -> tuple[Tensor, Tensor]:
        """Per-node scalar classifiers over GCN embeddings.

        Returns (probabilities, semantic logits), both N x n_units; the
        logits are the sample's semantic feature.  Node m of every sample
        uses the same (distinct-per-node) weight row and bias.
        """
        logits = ad.add_row(ad.block_row_dot(embeddings, self.unit_cls_w),
                            self.unit_cls_b)
        return ad.sigmoid(logits), logits

    def semantic_logits(self, features: Tensor, adjacency: np.ndarray
                        ) -> tuple[Tensor, Tensor]:
        """Full head -> GCN -> per-node classifier pass.

        Returns (probabilities, semantic logits) for a batch of backbone
        features.
        """
        nodes = self.node_features(features)
        return self.au_predict(self.gcn_forward(nodes, adjacency))


def au_detection_loss(probs: Tensor, au_bits: np.ndarray,
                      confidence: np.ndarray) -> Tensor:
    """Confidence-weighted binary cross-entropy summed over units, averaged
    over the batch.

    ``confidence`` enters as plain per-sample data, not through the graph:
    the detection loss must not drag the confidence head toward zero.
    Probabilities are clamped to [1e-12, 1 - 1e-12] before the logs.
    """
    n, m = probs.shape
    z = np.asarray(au_bits, dtype=np.float64)
    if z.shape != (n, m):
        raise ShapeError(f"au_bits must be {n}x{m}, got {z.shape}")
    alpha = np.asarray(confidence, dtype=np.float64).reshape(n, 1)
    # One tape node, repeating the composition kept in tests/oracles.py.
    lo, hi = 1e-12, 1.0 - 1e-12
    pd = probs.data
    unclamped = ((pd > lo) & (pd < hi)).astype(np.float64)
    p = np.clip(pd, lo, hi)
    q = 1.0 - p
    off_bits = 1.0 - z
    per_sample = (z * np.log(p) + off_bits * np.log(q)).sum(axis=1,
                                                            keepdims=True)
    factor = -1.0 / n

    def vjp(g):
        g_rows = alpha * (g[0, 0] * factor)
        return ((g_rows * z / p + -(g_rows * off_bits / q)) * unclamped,)

    return ad.node(np.array([[(per_sample * alpha).sum()]]) * factor,
                   (probs,), vjp)
