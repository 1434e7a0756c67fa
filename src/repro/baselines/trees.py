"""Hyperplane partition trees (§5.4.2 baselines): 2-means tree, PCA tree,
random-projection tree, and the learned KD-tree of Cayton & Dasgupta.

All are binary trees of depth ``l`` (2^l leaves before small-node pruning).
Each node stores a hyperplane (w, t); a point goes left when w·x < t.
Multiprobe ranking follows the soft-margin convention: the probability of a
side is a sigmoid of the signed margin scaled by the node's margin spread, and
a leaf's score is the product down its root path — the same mechanism the
paper's logistic-regression tree uses, so sweeps are comparable.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.kmeans import KMeans
from repro.index import tree
from repro.index.base import check_data, check_k


# --- split rules: subset (and optional global-kNN context) → (w, t) --------

# The quantile range the learned KD-tree's threshold is chosen from (balance).
KD_QUANTILES = (0.3, 0.7)


def rp_split(sub: np.ndarray, rng: np.random.Generator, **_) -> tuple[np.ndarray, float]:
    """Random-projection tree: random unit direction, median threshold."""
    w = rng.normal(size=sub.shape[1])
    w /= np.linalg.norm(w) + 1e-12
    return w, float(np.median(sub @ w))


def pca_split(sub: np.ndarray, rng: np.random.Generator, **_) -> tuple[np.ndarray, float]:
    """PCA tree: top principal component, median threshold."""
    centered = sub - sub.mean(axis=0)
    # Top right-singular vector via power iteration on the covariance.
    w = rng.normal(size=sub.shape[1])
    cov = centered.T @ centered
    for _ in range(30):
        w = cov @ w
        w /= np.linalg.norm(w) + 1e-12
    return w, float(np.median(sub @ w))


def two_means_split(sub: np.ndarray, rng: np.random.Generator, **_) -> tuple[np.ndarray, float]:
    """2-means tree: direction between the two cluster centers, threshold at
    the midpoint projection (nearest-center assignment ≡ this hyperplane)."""
    km = KMeans(2, n_iter=25, seed=int(rng.integers(1 << 31))).fit(sub)
    c0, c1 = km.centroids
    w = c1 - c0
    nrm = np.linalg.norm(w)
    if nrm < 1e-12:
        return rp_split(sub, rng)
    w /= nrm
    return w, float(w @ (c0 + c1) / 2.0)


def learned_kd_split(
    sub: np.ndarray,
    rng: np.random.Generator,
    *,
    sub_knn: np.ndarray | None = None,
    **_,
) -> tuple[np.ndarray, float]:
    """Learned KD-tree (Cayton & Dasgupta 2007 flavor): axis-aligned split
    whose threshold is *learned* to minimize the number of k-NN pairs it
    separates, subject to a balance constraint, instead of the plain median."""
    d = sub.shape[1]
    axis = int(np.argmax(sub.var(axis=0)))
    proj = sub[:, axis]
    qs = np.quantile(proj, np.linspace(*KD_QUANTILES, 9))
    w = np.zeros(d)
    w[axis] = 1.0
    if sub_knn is None:
        return w, float(np.median(proj))
    best_t, best_cost = float(np.median(proj)), np.inf
    n = len(sub)
    for t in qs:
        left = proj < t
        # k-NN pairs split by the threshold.
        split_pairs = int((left[:, None] != left[sub_knn]).sum())
        imbalance = abs(left.sum() - n / 2) / n
        cost = split_pairs + 0.5 * n * imbalance
        if cost < best_cost:
            best_cost, best_t = cost, float(t)
    return w, best_t


SPLIT_RULES = {
    "rp": rp_split,
    "pca": pca_split,
    "two_means": two_means_split,
    "learned_kd": learned_kd_split,
}


class BinaryPartitionTree(tree.TreeIndex):
    """Generic hyperplane binary tree driven by a named split rule."""

    MIN_SPLIT = 16  # a node of fewer points is a leaf

    def __init__(
        self,
        rule: str,
        depth: int,
        *,
        k_prime: int = 10,
        seed: int = 0,
    ):
        if rule not in SPLIT_RULES:
            raise ValueError(f"unknown rule {rule!r}; choose from {sorted(SPLIT_RULES)}")
        self.rule = rule
        self.depth = depth
        self.k_prime = k_prime
        self.seed = seed
        self.n_bins = 0

    def fit(self, x: np.ndarray) -> "BinaryPartitionTree":
        x = check_data(x)
        if self.rule == "learned_kd":
            check_k(self.k_prime, len(x))
        rng = np.random.default_rng(self.seed)
        rule = SPLIT_RULES[self.rule]

        def split(idx: np.ndarray, level: int):
            sub_knn = (tree.node_knn(x, idx, level, self.k_prime)
                       if self.rule == "learned_kd" else None)
            sub = x[idx]
            return tree.hyperplane_split(sub, *rule(sub, rng, sub_knn=sub_knn))

        self.root, self._data_bins, self.n_bins = tree.grow(
            x.shape, split, self.depth, self.MIN_SPLIT)
        return self
