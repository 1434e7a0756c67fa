"""K-means clustering (sklearn/faiss stand-in) and its partition index.

K-means is both a paper baseline (§5.1.2: "used in many production systems
for partitioning the dataset before ANN search") and a substrate for the
2-means tree, IVF coarse quantizer, and spectral clustering. Lloyd's
algorithm with k-means++ seeding, driver-side numpy; the distributed lookup
build broadcasts ``KMeans.predict`` (:func:`repro.spark.assign_bins_spark`).
"""
from __future__ import annotations

import numpy as np

from repro.index.base import PartitionIndex, check_data, check_queries, fitted
from repro.knn.exact import sqdist


class KMeans:
    """Lloyd's algorithm with k-means++ initialization; stops after
    ``n_iter`` updates or once the centroids move less than ``TOL``."""

    TOL = 1e-6

    def __init__(self, k: int, *, n_iter: int = 50, seed: int = 0):
        self.k = k
        self.n_iter = n_iter
        self.seed = seed
        self.centroids: np.ndarray | None = None

    def _init_pp(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        n = len(x)
        centers = [x[rng.integers(n)]]
        d2 = np.full(n, np.inf)
        for _ in range(1, self.k):
            d2 = np.minimum(d2, ((x - centers[-1]) ** 2).sum(axis=1))
            total = d2.sum()
            if total <= 0:
                centers.append(x[rng.integers(n)])
            else:
                centers.append(x[rng.choice(n, p=d2 / total)])
        return np.stack(centers)

    def fit(self, x: np.ndarray) -> "KMeans":
        """ValueError unless ``x`` is valid (n, d) data and 1 <= k <= n:
        more centroids than points would leave bins empty."""
        x = check_data(x)
        if not 1 <= self.k <= len(x):
            raise ValueError(f"k={self.k} outside [1, n={len(x)}]")
        rng = np.random.default_rng(self.seed)
        c = self._init_pp(x, rng)
        for _ in range(self.n_iter):
            assign = self.assign(x, c)
            new_c = c.copy()
            for j in range(self.k):
                pts = x[assign == j]
                if len(pts):
                    new_c[j] = pts.mean(axis=0)
                else:  # re-seed empty cluster at the farthest point
                    far = np.argmax(((x - c[assign]) ** 2).sum(axis=1))
                    new_c[j] = x[far]
            shift = np.linalg.norm(new_c - c)
            c = new_c
            if shift < self.TOL:
                break
        self.centroids = c
        return self

    @staticmethod
    def assign(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
        return sqdist(x, centroids).argmin(axis=1)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.assign(np.asarray(x, dtype=np.float64), self.centroids)

    def inertia(self, x: np.ndarray) -> float:
        a = self.predict(x)
        return float(((x - self.centroids[a]) ** 2).sum())


class KMeansPartitioner(PartitionIndex):
    """K-means as a space-partitioning ANN index: bins = Voronoi cells,
    multiprobe order = ascending centroid distance."""

    def __init__(self, m: int, *, n_iter: int = 50, seed: int = 0):
        self.n_bins = m
        self.km = KMeans(m, n_iter=n_iter, seed=seed)

    def fit(self, x: np.ndarray) -> "KMeansPartitioner":
        x = check_data(x)
        self.km.fit(x)
        self._data_bins = self.km.predict(x)
        return self

    def probe_scores(self, queries: np.ndarray) -> np.ndarray:
        """Negated squared centroid distances: negation is exact, so the
        probe order is the stable ascending sort of the distances."""
        c = fitted(self.km.centroids)
        return -sqdist(check_queries(queries, c.shape[1]), c)

