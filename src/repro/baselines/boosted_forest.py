"""Boosted Search Forest (Li et al., NIPS 2011) — the prior learning-to-
partition baseline with a custom loss (§2.3, §5.4.2).

BSF learns a forest of binary *hyperplane* trees via boosting: each node's
hyperplane maximizes (weighted) preservation of neighbor pairs — neighbor
pairs should land on the same side — and per-point boosting weights emphasize
points whose neighbors earlier trees separated. We realize the node objective
as the spectral relaxation: minimize  Σ_{(i,j)∈NN} w_ij (s_i - s_j)²  subject
to unit projected variance, i.e. the smallest generalized eigenvector of
(Xᵀ L X, Xᵀ X) over the node's subset — a hyperplane that cuts as few
weighted neighbor pairs as possible (the same quantity BSF's similarity-
preservation gain scores). Threshold at the median for balance. At query
time the forest behaves as an ensemble: each tree routes the query softly
(sigmoid margins), and the candidate set unions the trees' probed leaves.
The forest is compiled once, so one ``tree.leaf_probs`` call scores it.
Its ``probe_scores`` are the first tree's; since C(q) is a union over trees,
BSF alone forms per-point probe ranks, for its candidate sets and sweep.

Simplification vs. the original (documented per DESIGN.md): BSF's exact
functional-gradient derivation is replaced by this spectral node solver; the
boosting weight update (multiply by the fraction of separated neighbors) and
the forest-union query path match the original's structure.
"""
from __future__ import annotations

import numpy as np

from repro.index import tree
from repro.index.base import (
    PartitionIndex, bin_ranks, check_data, check_k, fitted, probe_order,
)
from repro.knn.exact import knn_matrix_numpy


def similarity_preserving_hyperplane(
    sub: np.ndarray, sub_knn: np.ndarray, weights: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """Smallest generalized eigenvector of (Xᵀ L X, Xᵀ X): the direction that
    separates the fewest (weighted) neighbor pairs per unit spread."""
    n, d = sub.shape
    centered = sub - sub.mean(axis=0)
    # Weighted neighbor-pair Laplacian applied through X: XᵀLX = Σ w_ij (x_i-x_j)(x_i-x_j)ᵀ
    k = sub_knn.shape[1]
    rows = np.repeat(np.arange(n), k)
    cols = sub_knn.ravel()
    pw = np.repeat(weights, k)
    diffs = centered[rows] - centered[cols]
    a = (diffs * pw[:, None]).T @ diffs
    b = centered.T @ centered + 1e-6 * np.trace(centered.T @ centered) / d * np.eye(d)
    # Generalized eig via Cholesky whitening.
    try:
        l = np.linalg.cholesky(b)
        linv = np.linalg.inv(l)
        sym = linv @ a @ linv.T
        vals, vecs = np.linalg.eigh((sym + sym.T) / 2)
        w = linv.T @ vecs[:, 0]
    except np.linalg.LinAlgError:
        w = rng.normal(size=d)
    nrm = np.linalg.norm(w)
    w = w / (nrm + 1e-12)
    return w, float(np.median(sub @ w))


class BoostedSearchForest(PartitionIndex):
    """Forest of boosted similarity-preserving hyperplane trees."""

    MIN_SPLIT = 16  # a node of fewer points is a leaf

    def __init__(
        self,
        depth: int,
        *,
        n_trees: int = 3,
        k_prime: int = 10,
        seed: int = 0,
    ):
        self.depth = depth
        self.n_trees = n_trees
        self.k_prime = k_prime
        self.seed = seed
        self.trees: list[tree.Node] = []
        self.tree_bins: list[np.ndarray] = []
        self.tree_n_bins: list[int] = []
        self.plan: tree.Plan | None = None
        self.n_bins = 0

    def fit(self, x: np.ndarray) -> "BoostedSearchForest":
        x = check_data(x)
        check_k(self.k_prime, len(x))
        rng = np.random.default_rng(self.seed)
        knn_idx = knn_matrix_numpy(x, self.k_prime)
        weights = np.ones(len(x))

        # Reads ``weights`` when called, so each tree sees the boosted weights.
        def split(idx: np.ndarray, level: int):
            sub_knn = tree.node_knn(x, idx, level, self.k_prime, knn_idx)
            sub = x[idx]
            return tree.hyperplane_split(
                sub, *similarity_preserving_hyperplane(sub, sub_knn, weights[idx], rng)
            )

        self.trees, self.tree_bins, self.tree_n_bins = [], [], []
        for _ in range(self.n_trees):
            root, bins, n_leaves = tree.grow(x.shape, split, self.depth, self.MIN_SPLIT)
            self.trees.append(root)
            self.tree_bins.append(bins)
            self.tree_n_bins.append(n_leaves)
            # Boosting update: weight ∝ fraction of k'-NN separated so far.
            sep = (bins[knn_idx] != bins[:, None]).mean(axis=1)
            weights = weights * (0.1 + sep)
            s = weights.sum()
            weights = np.ones(len(x)) if s <= 0 else weights * (len(x) / s)
        self.plan = tree.compile_plan(self.trees)
        self.n_bins = self.tree_n_bins[0]
        self._data_bins = self.tree_bins[0]
        return self

    # -- query side --------------------------------------------------------
    def probe_scores(self, queries: np.ndarray) -> np.ndarray:
        """The *first* tree's leaf probabilities (PartitionIndex contract)."""
        return tree.leaf_probs(fitted(self.plan).roots[0].plan, queries)[0]

    def _ranks(self, queries: np.ndarray) -> np.ndarray:
        """(n_q, n_points): the probe rank at which each point joins the
        forest's C(q). A point is in C(q) iff some tree probes its leaf, so
        its rank is the minimum of its leaf's rank over the trees. A tree's
        padded leaves rank after its own and hold no points. The minimum is
        kept running over the trees, so at most two such matrices exist."""
        ranks = bin_ranks(probe_order(tree.leaf_probs(fitted(self.plan), queries)))
        out = ranks[0][:, self.tree_bins[0]]
        for r, bins in zip(ranks[1:], self.tree_bins[1:]):
            np.minimum(out, r[:, bins], out=out)
        return out

    def probe_joins(self, queries: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Counted from the per-point ranks of :meth:`_ranks`: the forest's
        C(q) is a union over trees, so the points joining at a rank are not
        one bin's. Every rank is below the first tree's leaf count,
        ``n_bins``."""
        ranks, m = self._ranks(queries), self.n_bins
        at_truth = np.take_along_axis(ranks, truth, axis=1)
        ranks += m * np.arange(len(ranks))[:, None]  # row i counts in [i*m, (i+1)*m)
        joined = np.bincount(ranks.ravel(), minlength=len(ranks) * m)
        return joined.reshape(-1, m), at_truth

    def candidate_ids(self, queries: np.ndarray, n_probes: int) -> list[np.ndarray]:
        """Union of each tree's top ``n_probes`` leaves across the forest."""
        return [np.flatnonzero(r < n_probes) for r in self._ranks(queries)]
