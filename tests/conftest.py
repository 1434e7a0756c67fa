"""Shared test fixtures: small deterministic datasets and pre-trained models.

Expensive artifacts (k'-NN matrices, trained partitioners) are session-scoped
so the suite trains each model once. Sizes follow the SF<=0.01 guidance: a
few thousand points, d<=16.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.ensemble import train_ensemble
from repro.core.partitioner import UnsupervisedSpacePartitioner
from repro.core.train import TrainConfig
from repro.knn.exact import knn_matrix_numpy, topk_neighbors
from repro.synth_data import sift_lite


@pytest.fixture(scope="session")
def small_data() -> tuple[np.ndarray, np.ndarray]:
    """(data, queries): 1500×12 clustered vectors + 120 out-of-sample queries."""
    return sift_lite(n=1500, d=12, n_queries=120, n_components=12, seed=42)


@pytest.fixture(scope="session")
def duplicates() -> tuple[np.ndarray, np.ndarray]:
    """(data, queries): 8 distinct points in R^8, the first repeated 40 times
    and the others 10 times, so tree nodes see tied projections and
    all-identical subsets (the degenerate-split path). Each query sits next
    to one of the 10-fold points, so its exact 10-NN set is that point's
    copies and no tie straddles the top 10."""
    rng = np.random.default_rng(72)
    base = rng.normal(size=(8, 8))
    data = np.repeat(base, [40] + [10] * 7, axis=0)
    return data, base[1:] + 0.01 * rng.normal(size=(7, 8))


@pytest.fixture(scope="session")
def small_gt(small_data) -> np.ndarray:
    data, queries = small_data
    idx, _ = topk_neighbors(queries, data, 10)
    return idx


@pytest.fixture(scope="session")
def small_knn(small_data) -> np.ndarray:
    data, _ = small_data
    return knn_matrix_numpy(data, 10)


@pytest.fixture(scope="session")
def trained_usp(small_data, small_knn) -> UnsupervisedSpacePartitioner:
    data, _ = small_data
    p = UnsupervisedSpacePartitioner(
        8, cfg=TrainConfig(m=8, eta=7.0, epochs=25, seed=0), seed=0
    )
    p.fit(data, knn_idx=small_knn)
    return p


@pytest.fixture(scope="session")
def trained_ensemble(small_data, small_knn):
    data, _ = small_data
    return train_ensemble(
        data, m=8, e=2, cfg=TrainConfig(m=8, eta=7.0, epochs=20), knn_idx=small_knn, seed=1
    )
