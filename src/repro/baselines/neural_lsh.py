"""Neural LSH (Dong et al., ICLR 2020) and its Regression LSH variant.

The supervised pipeline the paper improves upon: (1) build the k'-NN graph,
(2) run a balanced combinatorial graph partitioner (KaHIP in the original;
our substitute lives in :mod:`repro.baselines.graph_partition`) to obtain
ground-truth bin labels, (3) train a classifier on those labels to route
out-of-sample queries to bins. Regression LSH runs it at every node of a
binary tree with logistic regression; Neural LSH is the one-level tree of m
bins with an MLP of a 512-unit hidden layer. Data points keep their
graph-partition bins; only queries go through the model.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.graph_partition import balanced_graph_partition
from repro.index import tree
from repro.index.base import check_data, check_k, check_knn, check_levels
from repro.nn.layers import softmax
from repro.nn.model import MLP, logistic_regression, mlp_partitioner
from repro.nn.optim import Adam

# The classifier's Adam step and batch size, tuned so it fits the graph-partition
# labels at this scale (DESIGN.md §6).
LR = 5e-3
BATCH = 128


def train_supervised(
    model: MLP,
    x: np.ndarray,
    labels: np.ndarray,
    *,
    epochs: int = 40,
    seed: int = 0,
) -> list[float]:
    """Softmax cross-entropy classifier training; returns epoch-loss history."""
    n = len(x)
    rng = np.random.default_rng(seed)
    opt = Adam(model.params(), lr=LR)
    history = []
    for _ in range(epochs):
        order = rng.permutation(n)
        total, nb = 0.0, 0
        for lo in range(0, n, BATCH):
            idx = order[lo : lo + BATCH]
            logits = model.forward(x[idx], train=True)
            probs = softmax(logits)
            onehot = np.zeros_like(probs)
            onehot[np.arange(len(idx)), labels[idx]] = 1.0
            loss = float(-np.log(probs[np.arange(len(idx)), labels[idx]] + 1e-12).mean())
            grad = (probs - onehot) / len(idx)
            opt.step(model.backward(grad))
            total += loss
            nb += 1
        history.append(total / max(nb, 1))
    return history


class RegressionLSHTree(tree.TreeIndex):
    """Regression LSH: a tree over ``levels = [2] * depth``; each node
    partitions its subset's k'-NN graph into its level's fan-out of balanced
    blocks and trains a router on those labels (§5.2). A node's graph
    partition and router init take the seed ``seed + level``, its training
    ``seed``."""

    MIN_SPLIT = 32  # a node of fewer points is a leaf

    def __init__(self, depth: int, *, k_prime: int = 10, epochs: int = 30, seed: int = 0):
        self.levels = [2] * depth
        self.k_prime = k_prime
        self.epochs = epochs
        self.seed = seed
        self.n_bins = 0

    def _router(self, d: int, m: int, seed: int) -> MLP:
        return logistic_regression(d, m, seed=seed)

    def fit(self, x: np.ndarray, *, knn_idx: np.ndarray | None = None) -> "RegressionLSHTree":
        """Grow the tree over ``x``, the root over ``knn_idx`` when given;
        ValueError when a fan-out is below 1 or the root's above n."""
        x = check_data(x)
        check_levels(self.levels, len(x))
        if knn_idx is None:
            check_k(self.k_prime, len(x))
        else:
            knn_idx = check_knn(knn_idx, len(x))

        def split(idx: np.ndarray, level: int):
            m, knn = self.levels[level], tree.node_knn(x, idx, level, self.k_prime, knn_idx)
            labels = balanced_graph_partition(knn, m, seed=self.seed + level)
            model = self._router(x.shape[1], m, self.seed + level)
            train_supervised(model, x[idx], labels, epochs=self.epochs, seed=self.seed)
            return model, [labels == b for b in range(m)]

        self.root, self._data_bins, self.n_bins = tree.grow(
            x.shape, split, len(self.levels), self.MIN_SPLIT)
        return self


class NeuralLSHPartitioner(RegressionLSHTree):
    """Neural LSH: the one-level Regression LSH tree of ``m`` bins, routed by
    an MLP. ``hidden`` defaults to 512 as in the original paper (Table 2
    contrasts its 729k parameters against USP's 183k). ``model`` is the
    trained MLP."""

    MIN_SPLIT = 0

    def __init__(self, m: int, *, hidden: int = 512, k_prime: int = 10, epochs: int = 40,
                 seed: int = 0):
        super().__init__(1, k_prime=k_prime, epochs=epochs, seed=seed)
        self.levels = [m]
        self.hidden = hidden

    def _router(self, d: int, m: int, seed: int) -> MLP:
        return mlp_partitioner(d, m, hidden=self.hidden, seed=seed)

    @property
    def model(self) -> MLP | None:
        return None if self.root is None else self.root.model
