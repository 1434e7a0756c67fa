"""``PartitionIndex.probe_joins``, what the accuracy sweep reads, against
per-point probe ranks: for every index type, the points joining C(q) at
each probe rank and the rank of each ground-truth id equal the counts and
ranks taken from ``probe_ranks``. Only Boosted Search Forest, whose C(q) is
a union over trees, forms per-point ranks in a sweep."""
import numpy as np
import pytest

from repro.index.search import sweep_accuracy
from repro.knn.exact import topk_neighbors
from tests.test_sweep_oracle import DUPLICATE, SMALL

ENSEMBLES = ["unequal", "flat-unequal", "mixed"]


def joins_from_ranks(index, queries, truth):
    """Per query, a bincount of the per-point ranks, and the truth ids' ranks."""
    ranks = index.probe_ranks(queries)
    joined = np.stack([np.bincount(r, minlength=index.n_bins) for r in ranks])
    return joined, np.take_along_axis(ranks, truth, axis=1)


def _assert_joins(index, data, queries, gt):
    # The ground truth, and ids drawn over every point.
    rng = np.random.default_rng(0)
    for truth in (gt, rng.integers(0, len(data), size=(len(queries), 25))):
        got = index.probe_joins(queries, truth)
        want = joins_from_ranks(index, queries, truth)
        for g, w in zip(got, want):
            assert g.shape == w.shape and np.issubdtype(g.dtype, np.integer)
            np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("name", SMALL + ENSEMBLES)
def test_probe_joins_equal_ranks(name, small_indexes, ensembles, small_data, small_gt):
    data, queries = small_data
    _assert_joins({**small_indexes, **ensembles}[name], data, queries, small_gt)


@pytest.mark.parametrize("name", DUPLICATE)
def test_probe_joins_equal_ranks_on_duplicates(name, duplicate_indexes, duplicates):
    data, queries = duplicates
    _assert_joins(duplicate_indexes[name], data, queries, topk_neighbors(queries, data, 10)[0])


def _no_probe_ranks(self, queries):
    raise AssertionError("the sweep formed per-point probe ranks")


@pytest.mark.parametrize("name", [n for n in SMALL + ENSEMBLES if n != "bsf"])
def test_sweep_forms_no_point_ranks(name, small_indexes, ensembles, small_data, small_gt,
                                    monkeypatch):
    data, queries = small_data
    index = {**small_indexes, **ensembles}[name]
    monkeypatch.setattr(type(index), "probe_ranks", _no_probe_ranks)
    curve = sweep_accuracy(index, data, queries, small_gt, probe_counts=[1, index.n_bins])
    assert curve["accuracy"].iloc[-1] == 1.0
