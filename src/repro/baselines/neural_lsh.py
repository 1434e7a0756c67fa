"""Neural LSH (Dong et al., ICLR 2020) and its Regression LSH variant.

The supervised pipeline the paper improves upon: (1) build the k'-NN graph,
(2) run a balanced combinatorial graph partitioner (KaHIP in the original;
our substitute lives in :mod:`repro.baselines.graph_partition`) to obtain
ground-truth bin labels, (3) train a classifier (MLP with a 512-unit hidden
layer for Neural LSH, logistic regression per node of a binary tree for
Regression LSH) to route out-of-sample queries to bins. Data points keep
their graph-partition bins; only queries go through the model.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.graph_partition import balanced_graph_partition
from repro.index import tree
from repro.index.base import check_data, check_k, check_knn
from repro.knn.exact import knn_matrix_numpy
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


class NeuralLSHPartitioner(tree.TreeIndex):
    """Neural LSH: graph-partition labels + supervised MLP query router.

    ``hidden`` defaults to 512 as in the original paper (Table 2 contrasts
    its 729k parameters against USP's 183k). ``root`` is the MLP's stump.
    """

    def __init__(
        self,
        m: int,
        *,
        hidden: int = 512,
        k_prime: int = 10,
        epochs: int = 40,
        seed: int = 0,
    ):
        self.n_bins = m
        self.hidden = hidden
        self.k_prime = k_prime
        self.epochs = epochs
        self.seed = seed
        self.model: MLP | None = None

    def fit(
        self, x: np.ndarray, *, knn_idx: np.ndarray | None = None
    ) -> "NeuralLSHPartitioner":
        x = check_data(x)
        knn_idx = (knn_matrix_numpy(x, self.k_prime) if knn_idx is None
                   else check_knn(knn_idx, len(x)))
        labels = balanced_graph_partition(knn_idx, self.n_bins, seed=self.seed)
        self.model = mlp_partitioner(
            x.shape[1], self.n_bins, hidden=self.hidden, seed=self.seed
        )
        train_supervised(self.model, x, labels, epochs=self.epochs, seed=self.seed)
        self.root = tree.stump(self.model, self.n_bins, x.shape[1])
        self._data_bins = labels  # data points keep their graph-partition bins
        return self


class RegressionLSHTree(tree.TreeIndex):
    """Regression LSH: binary tree; each node 2-way graph-partitions its
    subset and trains logistic regression on those labels (§5.2)."""

    MIN_SPLIT = 32  # a node of fewer points is a leaf

    def __init__(
        self,
        depth: int,
        *,
        k_prime: int = 10,
        epochs: int = 30,
        seed: int = 0,
    ):
        self.depth = depth
        self.k_prime = k_prime
        self.epochs = epochs
        self.seed = seed
        self.n_bins = 0

    def fit(self, x: np.ndarray) -> "RegressionLSHTree":
        x = check_data(x)
        check_k(self.k_prime, len(x))

        def split(idx: np.ndarray, level: int):
            if level >= self.depth or len(idx) < self.MIN_SPLIT:
                return None
            sub = x[idx]
            kp = min(self.k_prime, len(sub) - 1)
            knn_idx = knn_matrix_numpy(sub, kp)
            labels = balanced_graph_partition(knn_idx, 2, seed=self.seed + level)
            model = logistic_regression(x.shape[1], 2, seed=self.seed + level)
            train_supervised(model, sub, labels, epochs=self.epochs, seed=self.seed)
            return model, [labels == b for b in range(2)]

        self.root, self._data_bins, self.n_bins = tree.grow(x.shape, split)
        return self
