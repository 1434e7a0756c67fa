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

from repro.baselines.trees import SPLIT_RULES
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
