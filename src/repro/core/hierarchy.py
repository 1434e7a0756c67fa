"""Hierarchical partitioning (§4.4.2).

Recursively partition the dataset into ``levels = [m1, m2, ...]`` bins,
training one USP model per internal node on the subset routed to it. A
query's probability of landing in a leaf is the product of the per-level
assigned probabilities down the tree; multiprobe ranks leaves by that
product. Covers both the paper's 256-bin runs (16×16, §5.4.1) and the
logistic-regression binary trees of §5.4.2 (levels = [2]*depth).
"""
from __future__ import annotations

import numpy as np

from repro.core.partitioner import build_model, check_arch
from repro.core.train import TrainConfig, train_usp_model
from repro.index import tree
from repro.index.base import check_data, check_k
from repro.knn.exact import knn_matrix_numpy


class HierarchicalPartitioner(tree.TreeIndex):
    """Tree of USP models; leaves are the final bins."""

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

    # -- offline -----------------------------------------------------------
    def fit(self, x: np.ndarray) -> "HierarchicalPartitioner":
        x = check_data(x)
        check_arch(self.arch)
        check_k(self.k_prime, len(x))

        def split(idx: np.ndarray, level: int):
            # Leaf: out of levels, or too few points to split meaningfully.
            if level >= len(self.levels) or len(idx) < max(self.min_split, 2 * self.levels[level]):
                return None
            m = self.levels[level]
            sub = x[idx]
            kp = min(self.k_prime, len(sub) - 1)
            knn_idx = knn_matrix_numpy(sub, kp)
            cfg = self.cfg_factory(level, m)
            cfg.m = m
            cfg.seed = self.seed + 7919 * level + 31 * len(idx) % 104729
            model = build_model(self.arch, x.shape[1], m, seed=cfg.seed)
            train_usp_model(model, sub, knn_idx, cfg)
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
