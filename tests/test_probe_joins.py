"""``PartitionIndex.probe_joins``, what the accuracy sweep reads, against
per-point probe ranks: for every index type, the points joining C(q) at
each probe rank and the rank of each ground-truth id equal the counts and
ranks taken from the per-point ranks of ``candidate_ranks``. Only Boosted
Search Forest, whose C(q) is a union over trees, forms per-point ranks in a
sweep, and it holds fewer than three (n_q, n) rank matrices at once: every
other index sweeps in less memory than one such matrix takes."""
import tracemalloc

import numpy as np
import pytest

from repro.index.search import sweep_accuracy
from repro.knn.exact import topk_neighbors
from tests.conftest import candidate_ranks
from tests.test_sweep_oracle import DUPLICATE, SMALL

ENSEMBLES = ["unequal", "flat-unequal", "mixed"]


def joins_from_ranks(index, queries, truth):
    """Per query, a bincount of the per-point ranks, and the truth ids' ranks."""
    ranks = candidate_ranks(index, queries)
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


def _sweep_peak(index, data, queries, gt):
    """(curve, peak bytes traced while it was swept); a first sweep builds
    the lookup tables and plans, so the traced one allocates only its own."""
    def sweep():
        return sweep_accuracy(index, data, queries, gt, probe_counts=[1, index.n_bins])

    sweep()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        return sweep(), tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("name", [n for n in SMALL + ENSEMBLES if n != "bsf"])
def test_sweep_forms_no_point_ranks(name, small_indexes, ensembles, small_data, small_gt):
    """The sweep's peak stays below one (n_q, n) int64 rank matrix."""
    data, queries = small_data
    index = {**small_indexes, **ensembles}[name]
    curve, peak = _sweep_peak(index, data, queries, small_gt)
    assert curve["accuracy"].iloc[-1] == 1.0
    assert peak < len(queries) * len(data) * 8


def test_bsf_sweep_forms_point_ranks(small_indexes, small_data, small_gt):
    """The control: Boosted Search Forest's per-point ranks exceed that bound."""
    data, queries = small_data
    _, peak = _sweep_peak(small_indexes["bsf"], data, queries, small_gt)
    assert peak >= len(queries) * len(data) * 8


def test_bsf_sweep_holds_few_point_ranks(small_indexes, small_data, small_gt):
    """The forest's minimum over its trees runs in place: a sweep holds
    fewer than three (n_q, n) int64 rank matrices, not one per tree."""
    data, queries = small_data
    index = small_indexes["bsf"]
    assert len(index.trees) >= 3
    curve, peak = _sweep_peak(index, data, queries, small_gt)
    assert curve["accuracy"].iloc[-1] == 1.0
    assert peak < 3 * len(queries) * len(data) * 8
