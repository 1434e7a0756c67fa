"""Spectral clustering (Ng, Jordan & Weiss 2001) — sklearn stand-in.

RBF (or k-NN) affinity → symmetric-normalized Laplacian → k smallest
eigenvectors → row-normalize → K-means in the embedded space. Dense eigh is
fine at toy-dataset scale; the paper itself notes spectral clustering does
not scale, which is part of the point of Table 5.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.kmeans import KMeans
from repro.knn.exact import sqdist


def spectral_clustering(
    x: np.ndarray,
    k: int,
    *,
    gamma: float | None = None,
    n_neighbors: int | None = 10,
    seed: int = 0,
) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    d2 = sqdist(x, x)
    np.maximum(d2, 0.0, out=d2)
    if gamma is None:
        med = np.median(d2[d2 > 0]) + 1e-12
        gamma = 1.0 / med
    a = np.exp(-gamma * d2)
    np.fill_diagonal(a, 0.0)
    if n_neighbors is not None and n_neighbors < n - 1:
        # Sparsify to a symmetrized k-NN affinity (standard practice; keeps
        # the embedding local, which is what separates moons/circles).
        keep = np.zeros_like(a, dtype=bool)
        nn = np.argpartition(-a, n_neighbors, axis=1)[:, :n_neighbors]
        rows = np.repeat(np.arange(n), n_neighbors)
        keep[rows, nn.ravel()] = True
        keep |= keep.T
        a = np.where(keep, a, 0.0)
    deg = a.sum(axis=1) + 1e-12
    dmh = 1.0 / np.sqrt(deg)
    lap = np.eye(n) - (dmh[:, None] * a) * dmh[None, :]
    vals, vecs = np.linalg.eigh(lap)
    emb = vecs[:, :k]
    norms = np.linalg.norm(emb, axis=1, keepdims=True) + 1e-12
    emb = emb / norms
    return KMeans(k, n_iter=50, seed=seed).fit(emb).predict(emb)
