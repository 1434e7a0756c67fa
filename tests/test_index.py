"""Index-plumbing tests: PartitionIndex contract, sweep harness,
interpolation, and the Spark lookup path with DuckDB oracle checks."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines.kmeans import KMeansPartitioner
from repro.index.base import PartitionIndex, probe_order
from repro.index.search import candidate_size_at_accuracy, sweep_accuracy, topk_within
from repro.knn.exact import sqdist
from repro.oracle import assert_equivalent
from repro.spark import assign_bins_spark, build_lookup_spark, vectors_df
from tests.test_sweep_oracle import DUPLICATE, SMALL


class _FixedIndex(PartitionIndex):
    """Deterministic index for contract tests: bins by id modulo, probes by
    a fixed per-query ranking, scored as minus each bin's position in it."""

    def __init__(self, bins, n_bins, probe_rows):
        self.n_bins = n_bins
        self._data_bins = np.asarray(bins)
        self._scores = np.empty(n_bins)
        self._scores[np.asarray(probe_rows)] = -np.arange(n_bins)

    def probe_scores(self, queries):
        return np.tile(self._scores, (len(queries), 1))


CASES = ([("small", n) for n in SMALL + ["unequal", "flat-unequal", "mixed"]]
         + [("duplicates", n) for n in DUPLICATE])


@pytest.mark.parametrize("data_name, name", CASES, ids=[f"{d}-{n}" for d, n in CASES])
def test_probe_matrix_orders_probe_scores(data_name, name, small_indexes, ensembles,
                                          duplicate_indexes, small_data, duplicates):
    """Scores are (n_q, n_bins), and the probe matrix is their probe order;
    an ensemble of unequal bin counts has no probe matrix. K-means' order is
    the stable ascending sort of the centroid distances."""
    if data_name == "small":
        index, queries = {**small_indexes, **ensembles}[name], small_data[1]
    else:
        index, queries = duplicate_indexes[name], duplicates[1]
    scores = index.probe_scores(queries)
    assert scores.shape == (len(queries), index.n_bins)
    if len({m.n_bins for m in getattr(index, "models", [index])}) > 1:
        with pytest.raises(ValueError, match="unequal bin counts"):
            index.probe_matrix(queries)
        return
    order = index.probe_matrix(queries)
    assert np.array_equal(order, probe_order(scores))
    if isinstance(index, KMeansPartitioner):
        assert np.array_equal(
            order, np.argsort(sqdist(queries, index.km.centroids), axis=1, kind="stable"))


class TestPartitionIndexContract:
    def test_bin_members_partition(self):
        idx = _FixedIndex([0, 1, 2, 0, 1, 2, 0], 3, [0, 1, 2])
        members = idx.bin_members()
        all_ids = np.sort(np.concatenate(members))
        np.testing.assert_array_equal(all_ids, np.arange(7))
        np.testing.assert_array_equal(members[0], [0, 3, 6])

    def test_bin_sizes(self):
        idx = _FixedIndex([0, 0, 1], 3, [0, 1, 2])
        np.testing.assert_array_equal(idx.bin_sizes(), [2, 1, 0])

    def test_candidate_ids_respect_probe_order(self):
        idx = _FixedIndex([0, 1, 0, 1], 2, [1, 0])
        cands = idx.candidate_ids(np.zeros((1, 2)), 1)
        np.testing.assert_array_equal(np.sort(cands[0]), [1, 3])  # bin 1 first

    def test_candidate_ids_grow_with_probes(self):
        idx = _FixedIndex([0, 1, 0, 1], 2, [1, 0])
        c1 = idx.candidate_ids(np.zeros((1, 2)), 1)[0]
        c2 = idx.candidate_ids(np.zeros((1, 2)), 2)[0]
        assert set(c1) <= set(c2) and len(c2) == 4

    def test_unfitted_raises(self):
        class Empty(PartitionIndex):
            n_bins = 2

        with pytest.raises(RuntimeError):
            Empty().data_bins()


class TestTopkWithin:
    """The one-query form against a stable sort of C by difference-form
    distance (``topk_oracle``)."""

    def test_exact(self, topk_oracle):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(50, 4))
        q = rng.normal(size=4)
        cand = rng.permutation(50)
        np.testing.assert_array_equal(topk_within(q, data, cand, 5),
                                      topk_oracle(q, data, cand, 5))

    def test_empty_candidates(self):
        got = topk_within(np.zeros(3), np.zeros((5, 3)), np.empty(0, int), 4)
        assert len(got) == 0 and got.dtype == np.int64

    def test_fewer_candidates_than_k(self, topk_oracle):
        data = np.random.default_rng(1).normal(size=(3, 2))
        cand = np.array([2, 0])
        np.testing.assert_array_equal(topk_within(np.zeros(2), data, cand, 10),
                                      topk_oracle(np.zeros(2), data, cand, 10))

    def test_exact_ties_fall_by_candidate_position(self, copies, topk_oracle):
        """60 points × 100 copies, 900 random candidates per query: the
        answer is mostly copies of one point, which must come in the order
        they appear in C."""
        data, queries = copies
        rng = np.random.default_rng(3)
        for q in queries:
            cand = rng.choice(len(data), 900, replace=False)
            np.testing.assert_array_equal(topk_within(q, data, cand, 10),
                                          topk_oracle(q, data, cand, 10))


class TestSweep:
    def test_full_probe_is_exact(self, trained_usp, small_data, small_gt):
        data, queries = small_data
        curve = sweep_accuracy(
            trained_usp, data, queries, small_gt, probe_counts=[trained_usp.n_bins]
        )
        assert curve["accuracy"].iloc[0] == 1.0
        assert curve["mean_candidates"].iloc[0] == len(data)

    def test_monotone_candidates(self, trained_usp, small_data, small_gt):
        data, queries = small_data
        curve = sweep_accuracy(trained_usp, data, queries, small_gt, probe_counts=[1, 2, 4, 8])
        assert (np.diff(curve["mean_candidates"]) >= 0).all()
        assert (np.diff(curve["accuracy"]) >= -1e-9).all()


class TestInterpolation:
    def make_curve(self):
        return pd.DataFrame(
            {"n_probes": [1, 2, 3], "mean_candidates": [100.0, 200.0, 300.0],
             "accuracy": [0.5, 0.8, 1.0]}
        )

    def test_linear_interp(self):
        c = self.make_curve()
        # 0.65 halfway between 0.5 and 0.8 → halfway between 100 and 200.
        assert candidate_size_at_accuracy(c, 0.65) == pytest.approx(150.0)

    def test_below_first_point(self):
        assert candidate_size_at_accuracy(self.make_curve(), 0.3) == 100.0

    def test_unreachable(self):
        c = self.make_curve()
        c["accuracy"] = [0.1, 0.2, 0.3]
        assert candidate_size_at_accuracy(c, 0.9) is None

    def test_exact_hit(self):
        assert candidate_size_at_accuracy(self.make_curve(), 0.8) == pytest.approx(200.0)


class TestSparkLookup:
    @pytest.fixture(scope="class")
    def lookup(self, spark, trained_usp, small_data):
        vdf = vectors_df(spark, small_data[0])
        return build_lookup_spark(spark, assign_bins_spark(spark, vdf, trained_usp.model.predict_bin))

    def test_lookup_matches_index(self, spark, lookup, trained_usp):
        pdf = lookup.toPandas().sort_values("id")
        np.testing.assert_array_equal(pdf["bin"].to_numpy(), trained_usp.data_bins())

    def test_bin_counts_oracle(self, spark, lookup, trained_usp):
        """Per-bin counts via Spark SQL vs DuckDB over the same table."""
        from pyspark.sql import functions as F

        got = lookup.groupBy("bin").agg(F.count("id").alias("n"))
        ref = pd.DataFrame(
            {"id": np.arange(len(trained_usp.data_bins())), "bin": trained_usp.data_bins()}
        )
        assert_equivalent(got, "SELECT bin, count(id) AS n FROM t GROUP BY bin", t=ref)

