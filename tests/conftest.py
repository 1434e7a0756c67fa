"""Shared test fixtures: small deterministic datasets and pre-trained models.

Expensive artifacts (k'-NN matrices, trained partitioners) are session-scoped
so the suite trains each model once. Sizes follow the SF<=0.01 guidance: a
few thousand points, d<=16.
"""
from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.baselines.boosted_forest import BoostedSearchForest
from repro.baselines.kmeans import KMeansPartitioner
from repro.baselines.lsh import CrossPolytopeLSH
from repro.baselines.neural_lsh import NeuralLSHPartitioner, RegressionLSHTree
from repro.baselines.trees import SPLIT_RULES, BinaryPartitionTree
from repro.core.ensemble import EnsemblePartitioner, train_ensemble
from repro.core.hierarchy import HierarchicalPartitioner
from repro.core.partitioner import UnsupervisedSpacePartitioner
from repro.core.train import TrainConfig
from repro.knn import exact
from repro.knn.exact import knn_matrix_numpy, topk_neighbors
from repro.nn.model import MLP
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


def stable_topk(query: np.ndarray, data: np.ndarray, cand: np.ndarray, k: int) -> np.ndarray:
    """Oracle for ``topk_within``: the first k of a stable sort of the real
    candidate ids (those >= 0) by difference-form distance, so exact ties
    fall by candidate position."""
    cand = np.asarray(cand)
    cand = cand[cand >= 0]
    dist = np.sqrt(((data[cand] - query) ** 2).sum(axis=1))
    return cand[np.argsort(dist, kind="stable")[:k]]


def candidate_ranks(index, queries: np.ndarray) -> np.ndarray:
    """(n_q, n_points) reference for per-point probe ranks, by the
    definition: a point's rank in row i is the least r such that
    ``candidate_ids(queries, r + 1)[i]`` holds it. Read off ``candidate_ids``
    at every probe count from ``n_bins`` down to 1; a point that no probe
    count gathers keeps -1."""
    ranks = np.full((len(queries), len(index.data_bins())), -1, dtype=np.int64)
    for p in range(index.n_bins, 0, -1):
        for row, cand in zip(ranks, index.candidate_ids(queries, p)):
            row[cand] = p - 1
    return ranks


def record_knn_builds(monkeypatch) -> list[int]:
    """Wrap ``knn_matrix_numpy`` under every module name it is imported as;
    the returned list gets each later build's row count."""
    rows, orig = [], exact.knn_matrix_numpy

    def counted(data, k, **kw):
        rows.append(len(data))
        return orig(data, k, **kw)

    for mod in list(sys.modules.values()):
        if mod is not None and vars(mod).get("knn_matrix_numpy") is orig:
            monkeypatch.setattr(mod, "knn_matrix_numpy", counted)
    return rows


@pytest.fixture(scope="session")
def topk_oracle():
    """:func:`stable_topk`, for test modules."""
    return stable_topk


def float64_bins(model: MLP, x: np.ndarray) -> np.ndarray:
    """The float64 hard bins the screen replaced: argmax of the logits."""
    return model.logits(x)[0].argmax(axis=1)


def near_ties(model: MLP, x: np.ndarray, pairs: int = 12) -> np.ndarray:
    """Rows at which two float64 logits tie to the last bits: for pairs of
    consecutive rows in different float64 bins, 80 bisection steps along
    the segment between them, keeping one end in the first row's bin and the
    other out of it; both final ends are returned."""
    bins = float64_bins(model, x)
    out = []
    for i in np.flatnonzero(bins[1:] != bins[:-1]):
        j = i + 1
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = (lo + hi) / 2
            if float64_bins(model, np.stack([x[i] + mid * (x[j] - x[i])] * 2))[0] == bins[i]:
                lo = mid
            else:
                hi = mid
        out += [x[i] + lo * (x[j] - x[i]), x[i] + hi * (x[j] - x[i])]
        if len(out) >= 2 * pairs:
            break
    return np.array(out)


@pytest.fixture(scope="session")
def copies() -> tuple[np.ndarray, np.ndarray]:
    """(data, queries): 60 points in R^8, each repeated 100 times, and 32
    queries next to base points, so every query's top 10 is decided among
    exact ties."""
    rng = np.random.default_rng(17)
    base = rng.normal(size=(60, 8))
    data = np.repeat(base, 100, axis=0)
    return data, base[rng.integers(0, 60, 32)] + 1e-3 * rng.normal(size=(32, 8))


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


def _hierarchy(levels, *, min_split, seed, epochs=5):
    return HierarchicalPartitioner(
        levels, cfg_factory=lambda level, m: TrainConfig(m=m, eta=5.0, epochs=epochs),
        min_split=min_split, seed=seed,
    )


def _trees(depth):
    out = {f"tree-{r}": BinaryPartitionTree(r, depth, seed=0) for r in sorted(SPLIT_RULES)}
    out["bsf"] = BoostedSearchForest(depth, n_trees=3, seed=0)
    return out


@pytest.fixture(scope="session")
def small_indexes(small_data, small_knn, trained_usp):
    """Every index type fitted on ``small_data``; shared by the modules that
    check the online path, so a test that changes an index works on a copy."""
    data, _ = small_data
    out = {
        "usp": trained_usp,
        "ensemble": train_ensemble(data, m=8, e=3, cfg=TrainConfig(m=8, eta=7.0, epochs=8),
                                   knn_idx=small_knn, seed=3),
        "hierarchy": _hierarchy([4, 4], min_split=40, seed=0).fit(data),
        # Algorithm 3 over hierarchies; ``unequal_ensemble`` has unequal leaf counts.
        "ensemble-of-hierarchies": train_ensemble(
            data, m=[4, 4], e=2, cfg=TrainConfig(eta=5.0, epochs=5), knn_idx=small_knn, seed=1),
        "kmeans": KMeansPartitioner(8, seed=0).fit(data),
        "cp-lsh": CrossPolytopeLSH(8, seed=0).fit(data),
        "neural-lsh": NeuralLSHPartitioner(8, hidden=32, epochs=5, seed=0).fit(
            data, knn_idx=small_knn),
        "regression-lsh": RegressionLSHTree(3, epochs=5, seed=0).fit(data),
    }
    for name, idx in _trees(3).items():
        out[name] = idx.fit(data)
    return out


@pytest.fixture(scope="session")
def unequal_ensemble(small_data):
    """Hierarchy members that ``min_split`` prunes to different leaf counts."""
    data, _ = small_data
    return EnsemblePartitioner([_hierarchy([4, 4], min_split=min_split, seed=seed).fit(data)
                                for seed, min_split in ((1, 40), (2, 300))])


@pytest.fixture(scope="session")
def flat_unequal_ensemble(small_data, small_knn, trained_usp):
    """Flat USP members of 8 and 4 bins: routers of two fan-outs at depth 0."""
    data, _ = small_data
    four = UnsupervisedSpacePartitioner(4, cfg=TrainConfig(m=4, eta=7.0, epochs=5), seed=1)
    return EnsemblePartitioner([trained_usp, four.fit(data, knn_idx=small_knn)])


@pytest.fixture(scope="session")
def mixed_ensemble(small_indexes):
    """A flat USP member and a hierarchy: a stump and a two-depth tree."""
    return EnsemblePartitioner([small_indexes["usp"], small_indexes["hierarchy"]])


@pytest.fixture(scope="session")
def ensembles(small_indexes, unequal_ensemble, flat_unequal_ensemble, mixed_ensemble):
    """name -> every ensemble fixture, flat, of hierarchies and mixed."""
    return {"ensemble": small_indexes["ensemble"],
            "ensemble-of-hierarchies": small_indexes["ensemble-of-hierarchies"],
            "unequal": unequal_ensemble, "flat-unequal": flat_unequal_ensemble,
            "mixed": mixed_ensemble}


@pytest.fixture(scope="session")
def duplicate_indexes(duplicates):
    """The index types that ``duplicates`` drives into degenerate splits."""
    data, _ = duplicates
    out = {"kmeans": KMeansPartitioner(4, seed=0).fit(data),
           "hierarchy": _hierarchy([2, 2], min_split=16, seed=0).fit(data)}
    for name, idx in _trees(3).items():
        out[name] = idx.fit(data)
    return out
