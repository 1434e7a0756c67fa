"""Cross-polytope LSH (Andoni et al. 2015) — the paper's data-oblivious
baseline (§5.2 "Cross polytope LSH").

A random orthogonal rotation is applied; the hash is the index of the
largest-magnitude coordinate among the first m/2 rotated dimensions together
with its sign, giving m buckets. Multiprobe ranks buckets by the signed
rotated coordinate values, the standard multiprobe ordering for CP-LSH.
"""
from __future__ import annotations

import numpy as np

from repro.index.base import PartitionIndex, check_data, check_queries, fitted


class CrossPolytopeLSH(PartitionIndex):
    """One cross-polytope hash table with ``m`` buckets (m even, m ≤ 2d)."""

    def __init__(self, m: int, *, seed: int = 0):
        if m % 2:
            raise ValueError("cross-polytope bucket count must be even")
        self.n_bins = m
        self.seed = seed
        self.rotation: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "CrossPolytopeLSH":
        x = check_data(x)
        d = x.shape[1]
        if self.n_bins > 2 * d:
            raise ValueError(f"m={self.n_bins} > 2d={2*d} unsupported for one CP hash")
        rng = np.random.default_rng(self.seed)
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        self.rotation = q
        self._data_bins = self.probe_scores(x).argmax(axis=1)
        return self

    def probe_scores(self, queries: np.ndarray) -> np.ndarray:
        """Signed coordinate scores per bucket: bucket 2j is +e_j, 2j+1 is -e_j."""
        r = check_queries(queries, len(fitted(self.rotation))) @ self.rotation
        r = r[:, :self.n_bins // 2]
        out = np.empty((len(r), self.n_bins))
        out[:, 0::2] = r
        out[:, 1::2] = -r
        return out
