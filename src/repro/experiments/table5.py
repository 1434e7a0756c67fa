"""Table 5: clustering quality of USP vs K-means / DBSCAN / spectral on the
sklearn-style toy datasets (moons, circles, 4-cluster anisotropic blobs).

The paper's Table 5 is pictorial; figures are out of scope, so the comparison
is quantitative: Adjusted Rand Index against the generating labels. The
paper's claim to check: USP and spectral recover the natural clusters
(ARI ≈ 1) on the non-convex datasets where K-means fails, and DBSCAN depends
on its density knobs.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.baselines.kmeans import KMeans
from repro.cluster.dbscan import dbscan
from repro.cluster.metrics import adjusted_rand_index
from repro.cluster.spectral import spectral_clustering
from repro.synth_data import circles, classification_blobs, moons

# Paper reports pictures; "1.0" rows below encode its qualitative claim that
# the method recovers the natural clustering, "<1" that it visibly fails.
PAPER_QUALITATIVE = {
    ("moons", "K-means"): "fails", ("moons", "DBSCAN"): "ok",
    ("moons", "Spectral"): "ok", ("moons", "Ours"): "ok",
    ("circles", "K-means"): "fails", ("circles", "DBSCAN"): "ok",
    ("circles", "Spectral"): "ok", ("circles", "Ours"): "ok",
    ("blobs4", "K-means"): "fails", ("blobs4", "DBSCAN"): "ok",
    ("blobs4", "Spectral"): "ok", ("blobs4", "Ours"): "ok",
}

_DBSCAN_PARAMS = {
    "moons": dict(eps=0.2, min_samples=5),
    "circles": dict(eps=0.2, min_samples=5),
    "blobs4": dict(eps=0.5, min_samples=5),
}


def usp_cluster(x: np.ndarray, k: int, *, epochs: int = 250, seed: int = 0) -> np.ndarray:
    """USP as a clustering algorithm (§5.5): partition the 2-D points into k
    bins and read the partition as cluster labels. Uses the clustering-mode
    trainer (diffused Sinkhorn-balanced targets — see core/train.py)."""
    from repro.core.train import train_usp_cluster_model
    from repro.knn.exact import knn_matrix_numpy
    from repro.nn.model import mlp_partitioner

    x = np.asarray(x, dtype=np.float64)
    knn_idx = knn_matrix_numpy(x, 10)
    model = mlp_partitioner(x.shape[1], k, hidden=64, seed=seed)
    train_usp_cluster_model(model, x, knn_idx, k, epochs=epochs)
    return model.predict_bin(x)


def datasets(n: int = 800) -> dict[str, tuple[np.ndarray, np.ndarray, int]]:
    xm, ym = moons(n=n)
    xc, yc = circles(n=n)
    xb, yb = classification_blobs(n=n, n_clusters=4)
    return {"moons": (xm, ym, 2), "circles": (xc, yc, 2), "blobs4": (xb, yb, 4)}


def run(*, n: int = 800, seed: int = 0, usp_epochs: int = 250) -> pd.DataFrame:
    rows = []
    for dname, (x, y, k) in datasets(n).items():
        labels = {
            "K-means": KMeans(k, seed=seed).fit(x).predict(x),
            "DBSCAN": dbscan(x, **_DBSCAN_PARAMS[dname]),
            "Spectral": spectral_clustering(x, k, seed=seed),
            "Ours": usp_cluster(x, k, epochs=usp_epochs, seed=seed),
        }
        for method, lab in labels.items():
            rows.append(
                {
                    "dataset": dname,
                    "method": method,
                    "ari": adjusted_rand_index(y, lab),
                    "paper_verdict": PAPER_QUALITATIVE[(dname, method)],
                }
            )
    return pd.DataFrame(rows)
