"""DBSCAN (Ester et al. 1996) — sklearn stand-in for the Table 5 study.

Classic definition: core points have ≥ ``min_samples`` neighbors within
``eps``; clusters are connected components of core points plus their border
points; everything else is noise (label -1). Brute-force region queries are
fine at the toy-dataset scale (n ≤ a few thousand).
"""
from __future__ import annotations

from collections import deque

import numpy as np

from repro.knn.exact import sqdist


def dbscan(x: np.ndarray, *, eps: float = 0.2, min_samples: int = 5) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    d2 = sqdist(x, x)
    np.maximum(d2, 0.0, out=d2)
    within = d2 <= eps * eps
    counts = within.sum(axis=1)  # includes self
    core = counts >= min_samples
    labels = np.full(n, -1, dtype=np.int64)
    cluster = 0
    for i in range(n):
        if labels[i] != -1 or not core[i]:
            continue
        labels[i] = cluster
        queue = deque([i])
        while queue:
            v = queue.popleft()
            for u in np.nonzero(within[v])[0]:
                if labels[u] == -1:
                    labels[u] = cluster
                    if core[u]:
                        queue.append(u)
        cluster += 1
    return labels
