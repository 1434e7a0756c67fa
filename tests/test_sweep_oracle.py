"""Every index type against the contract of the online path, and the
closed-form accuracy sweep against search.

For every index type: the cached lookup table puts each point in exactly
the bin ``data_bins`` gives it and follows a refit; probing all bins
gathers every point, and exact top-k inside that C is the exact k-NN. And
``sweep_accuracy`` (probe ranks, no search) must give exactly the curve that
gathering C, running exact top-k inside it and scoring Eq. 1 gives."""
import copy

import numpy as np
import pandas as pd
import pytest

from repro.baselines.boosted_forest import BoostedSearchForest
from repro.baselines.kmeans import KMeansPartitioner
from repro.baselines.lsh import CrossPolytopeLSH
from repro.baselines.neural_lsh import NeuralLSHPartitioner, RegressionLSHTree
from repro.baselines.trees import SPLIT_RULES, BinaryPartitionTree
from repro.core.ensemble import EnsemblePartitioner, train_ensemble
from repro.core.hierarchy import HierarchicalPartitioner
from repro.core.train import TrainConfig
from repro.index.search import sweep_accuracy, topk_within
from repro.knn.exact import topk_neighbors
from repro.knn.metrics import knn_accuracy


def search_sweep(index, data, queries, gt_idx, *, k, probe_counts) -> pd.DataFrame:
    """The sweep by search, one probe count at a time: candidate_ids, then
    topk_within per query, then knn_accuracy."""
    rows = []
    for m_probe in probe_counts:
        cands = index.candidate_ids(queries, m_probe)
        returned = np.full((len(queries), k), -1, dtype=np.int64)
        sizes = np.empty(len(queries))
        for i, (q, c) in enumerate(zip(queries, cands)):
            sizes[i] = len(c)
            top = topk_within(q, data, c, k)
            returned[i, : len(top)] = top
        rows.append({
            "n_probes": m_probe,
            "mean_candidates": float(sizes.mean()),
            "accuracy": knn_accuracy(returned, gt_idx[:, :k]),
        })
    return pd.DataFrame(rows)


def _hierarchy(levels, *, min_split, seed, epochs=5):
    return HierarchicalPartitioner(
        levels, cfg_factory=lambda level, m: TrainConfig(m=m, eta=5.0, epochs=epochs),
        min_split=min_split, seed=seed,
    )


def _trees(depth):
    out = {f"tree-{r}": BinaryPartitionTree(r, depth, seed=0) for r in sorted(SPLIT_RULES)}
    out["bsf"] = BoostedSearchForest(depth, n_trees=3, seed=0)
    return out


@pytest.fixture(scope="module")
def small_indexes(small_data, small_knn, trained_usp):
    data, _ = small_data
    out = {
        "usp": trained_usp,
        "ensemble": train_ensemble(data, m=8, e=3, cfg=TrainConfig(m=8, eta=7.0, epochs=8),
                                   knn_idx=small_knn, seed=3),
        "hierarchy": _hierarchy([4, 4], min_split=40, seed=0).fit(data),
        # Members pruned to different leaf counts.
        "ensemble-of-hierarchies": EnsemblePartitioner([
            _hierarchy([4, 4], min_split=40, seed=1).fit(data),
            _hierarchy([4, 4], min_split=300, seed=2).fit(data),
        ]),
        "kmeans": KMeansPartitioner(8, seed=0).fit(data),
        "cp-lsh": CrossPolytopeLSH(8, seed=0).fit(data),
        "neural-lsh": NeuralLSHPartitioner(8, hidden=32, epochs=5, seed=0).fit(
            data, knn_idx=small_knn),
        "regression-lsh": RegressionLSHTree(3, epochs=5, seed=0).fit(data),
    }
    for name, idx in _trees(3).items():
        out[name] = idx.fit(data)
    return out


@pytest.fixture(scope="module")
def duplicate_indexes(duplicates):
    data, _ = duplicates
    out = {"kmeans": KMeansPartitioner(4, seed=0).fit(data),
           "hierarchy": _hierarchy([2, 2], min_split=16, seed=0).fit(data)}
    for name, idx in _trees(3).items():
        out[name] = idx.fit(data)
    return out


TREES = [f"tree-{r}" for r in sorted(SPLIT_RULES)] + ["bsf"]
SMALL = ["usp", "ensemble", "hierarchy", "ensemble-of-hierarchies", "kmeans", "cp-lsh",
         "neural-lsh", "regression-lsh", *TREES]
DUPLICATE = ["kmeans", "hierarchy", *TREES]


def _assert_same_curve(index, data, queries, gt):
    # 0 probes, every count up to n_bins, and counts past it (clamped).
    probe_counts = list(range(index.n_bins + 3))
    closed = sweep_accuracy(index, data, queries, gt, k=10, probe_counts=probe_counts)
    pd.testing.assert_frame_equal(
        closed, search_sweep(index, data, queries, gt, k=10, probe_counts=probe_counts),
        check_exact=True)
    assert closed["accuracy"].iloc[-1] == 1.0
    assert closed["mean_candidates"].iloc[-1] == len(data)


@pytest.mark.parametrize("name", SMALL)
def test_closed_form_equals_search(name, small_indexes, small_data, small_gt):
    data, queries = small_data
    _assert_same_curve(small_indexes[name], data, queries, small_gt)


@pytest.mark.parametrize("name", DUPLICATE)
def test_closed_form_equals_search_on_duplicates(name, duplicate_indexes, duplicates):
    data, queries = duplicates
    gt, _ = topk_neighbors(queries, data, 10)
    _assert_same_curve(duplicate_indexes[name], data, queries, gt)


def test_sweep_blocks_queries(small_indexes, small_data, small_gt, monkeypatch):
    """Blocks of queries give the curve of one block holding them all."""
    from repro.index import search

    data, queries = small_data
    idx = small_indexes["ensemble"]
    whole = sweep_accuracy(idx, data, queries, small_gt)
    monkeypatch.setattr(search, "SWEEP_BLOCK", 7)
    pd.testing.assert_frame_equal(sweep_accuracy(idx, data, queries, small_gt), whole,
                                  check_exact=True)


def _assert_lookup_and_full_probe(index, data, queries, k=10):
    members = index.bin_members()
    assert index.bin_members() is members
    np.testing.assert_array_equal(np.sort(np.concatenate(members)), np.arange(len(data)))
    bins = index.data_bins()
    for b, ids in enumerate(members):
        assert (bins[ids] == b).all()
    for q, c in zip(queries, index.candidate_ids(queries, index.n_bins)):
        np.testing.assert_array_equal(np.sort(c), np.arange(len(data)))
        top = topk_within(q, data, c, k)
        np.testing.assert_array_equal(np.linalg.norm(data[top] - q, axis=1),
                                      np.sort(np.linalg.norm(data - q, axis=1))[:k])


def _assert_lookup_follows_refit(index, data, queries):
    index = copy.deepcopy(index)  # the fixtures stay as built
    before = index.bin_members()
    other = data[::2]
    for member in getattr(index, "models", [index]):  # an ensemble refits its members
        member.fit(other)
    assert index.bin_members() is not before
    _assert_lookup_and_full_probe(index, other, queries)


@pytest.mark.parametrize("name", SMALL)
def test_lookup_and_full_probe(name, small_indexes, small_data):
    data, queries = small_data
    _assert_lookup_and_full_probe(small_indexes[name], data, queries)


@pytest.mark.parametrize("name", DUPLICATE)
def test_lookup_and_full_probe_on_duplicates(name, duplicate_indexes, duplicates):
    data, queries = duplicates
    _assert_lookup_and_full_probe(duplicate_indexes[name], data, queries)


@pytest.mark.parametrize("name", SMALL)
def test_lookup_follows_refit(name, small_indexes, small_data):
    data, queries = small_data
    _assert_lookup_follows_refit(small_indexes[name], data, queries)


@pytest.mark.parametrize("name", DUPLICATE)
def test_lookup_follows_refit_on_duplicates(name, duplicate_indexes, duplicates):
    data, queries = duplicates
    _assert_lookup_follows_refit(duplicate_indexes[name], data, queries)
