"""Hierarchical partitioning (§4.4.2), and the one USP fit.

Recursively partition the dataset into ``levels = [m1, m2, ...]`` bins,
training one USP model per internal node on the subset routed to it. A
query's probability of landing in a leaf is the product of the per-level
assigned probabilities down the tree; multiprobe ranks leaves by that
product. Covers the paper's 256-bin runs (16×16, §5.4.1), the
logistic-regression binary trees of §5.4.2 (levels = [2]*depth) and a flat
USP model, the one-level case (:mod:`repro.core.partitioner`).
"""
from __future__ import annotations

import numpy as np

from repro.core.train import TrainConfig, train_usp_model, trainable
from repro.index import tree
from repro.index.base import check_data, check_k, check_knn, check_weights
from repro.knn.exact import knn_matrix_numpy
from repro.nn.model import MLP, logistic_regression, mlp_partitioner


def check_arch(arch: str) -> None:
    """ValueError unless ``arch`` is "mlp" or "logreg"."""
    if arch not in ("mlp", "logreg"):
        raise ValueError(f"unknown arch {arch!r}")


def build_model(arch: str, d: int, m: int, *, seed: int = 0) -> MLP:
    """A fresh, untrained ``arch`` model ("mlp" or "logreg") from d inputs to m bins."""
    check_arch(arch)
    if arch == "logreg":
        return logistic_regression(d, m, seed=seed)
    return mlp_partitioner(d, m, seed=seed)


class HierarchicalPartitioner(tree.TreeIndex):
    """Tree of USP models; leaves are the final bins. A node of fewer than
    ``min_split`` points, or below the last level, is a leaf; so is a node
    below the root of fewer than max(2, m) points, too few to train its m
    bins, or whose points all have weight 0 (the root raises)."""

    def __init__(
        self,
        levels: list[int],
        *,
        arch: str = "mlp",
        k_prime: int = 10,
        cfg_factory=None,
        min_split: int = 64,
        seed: int = 0,
    ):
        self.levels = list(levels)
        self.arch = arch
        self.k_prime = k_prime
        self.min_split = min_split
        self.seed = seed
        self.cfg_factory = cfg_factory or (lambda level, m: TrainConfig(m=m))
        self.n_bins = 0

    def _node_cfg(self, level: int, m: int, n: int) -> TrainConfig:
        """The factory's config for a node at ``level`` over ``n`` points, set to
        ``m`` bins and the node's seed (its model's init and training RNG)."""
        cfg = self.cfg_factory(level, m)
        cfg.m, cfg.seed = m, self.seed + 7919 * level + 31 * n % 104729
        return cfg

    # -- offline -----------------------------------------------------------
    def fit(self, x: np.ndarray, *, knn_idx: np.ndarray | None = None,
            weights: np.ndarray | None = None) -> "HierarchicalPartitioner":
        """Grow the tree over ``x``: the root trains on ``knn_idx`` when given
        (e.g. the Spark build's), every other node on its subset's k'-NN
        matrix, and each node on its points' ``weights`` (Algorithm 3)."""
        x = check_data(x)
        if weights is not None:
            weights = check_weights(weights, len(x))
        check_arch(self.arch)
        if knn_idx is None:
            check_k(self.k_prime, len(x))
        else:
            knn_idx = check_knn(knn_idx, len(x))

        def split(idx: np.ndarray, level: int):
            if level >= len(self.levels) or len(idx) < self.min_split:
                return None
            m = self.levels[level]
            w = None if weights is None else weights[idx]
            if level and not (trainable(len(idx), m) and (w is None or w.sum() > 0)):
                return None  # too few points, or all of weight 0; the root raises instead
            sub = x[idx]
            knn = (knn_idx if level == 0 and knn_idx is not None
                   else knn_matrix_numpy(sub, min(self.k_prime, len(sub) - 1)))
            cfg = self._node_cfg(level, m, len(idx))
            model = build_model(self.arch, x.shape[1], m, seed=cfg.seed)
            train_usp_model(model, sub, knn, cfg, w)
            assign = model.predict_bin(sub)
            return model, [assign == b for b in range(m)]

        self.root, self._data_bins, self.n_bins = tree.grow(x.shape, split)
        return self

    # -- online ------------------------------------------------------------
    # Defined on this class itself: perfbench's tracer wraps them here.
    def leaf_probs(self, queries: np.ndarray) -> np.ndarray:
        """(n_q, n_leaves): product of per-level probabilities per leaf."""
        return super().leaf_probs(queries)

    def probe_matrix(self, queries: np.ndarray) -> np.ndarray:
        return super().probe_matrix(queries)
