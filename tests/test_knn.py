"""Exact k-NN substrate tests: numpy reference vs naive, Spark build vs
numpy, and a DuckDB SQL oracle check of the neighbor sets."""
import numpy as np
import pandas as pd
import pytest

from repro.knn.exact import (
    knn_matrix_numpy,
    knn_matrix_spark,
    knn_matrix_spark_collect,
    topk_neighbors,
)
from repro.knn.metrics import knn_accuracy
from repro.oracle import assert_equivalent


def naive_topk(queries, data, k, exclude_self=False):
    out = []
    for i, q in enumerate(queries):
        d = np.linalg.norm(data - q, axis=1)
        if exclude_self:
            d[i] = np.inf
        out.append(np.argsort(d, kind="stable")[:k])
    return np.array(out)


class TestTopkNumpy:
    @pytest.mark.parametrize("n,d,k", [(50, 3, 5), (200, 8, 10), (20, 2, 19)])
    def test_matches_naive(self, n, d, k):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(n, d))
        queries = rng.normal(size=(10, d))
        idx, dist = topk_neighbors(queries, data, k)
        naive = naive_topk(queries, data, k)
        # Compare distances (ids can differ under exact ties).
        for i in range(len(queries)):
            np.testing.assert_allclose(
                dist[i], np.linalg.norm(data[naive[i]] - queries[i], axis=1), atol=1e-9
            )

    def test_sorted_ascending(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(100, 4))
        _, dist = topk_neighbors(data[:5], data, 10)
        assert (np.diff(dist, axis=1) >= -1e-12).all()

    def test_k_larger_than_n(self):
        data = np.random.default_rng(3).normal(size=(4, 2))
        idx, dist = topk_neighbors(data[:2], data, 10)
        assert idx.shape == (2, 4)


class TestKnnMatrixNumpy:
    def test_matches_naive(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(80, 5))
        mat = knn_matrix_numpy(data, 7)
        naive = naive_topk(data, data, 7, exclude_self=True)
        for i in range(80):
            di = np.linalg.norm(data[mat[i]] - data[i], axis=1)
            dn = np.linalg.norm(data[naive[i]] - data[i], axis=1)
            np.testing.assert_allclose(di, dn, atol=1e-9)

    @pytest.mark.parametrize("block", [7, 32, 1000])
    def test_blocking_invariant(self, block):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(60, 4))
        np.testing.assert_array_equal(
            knn_matrix_numpy(data, 5, block=block), knn_matrix_numpy(data, 5)
        )

    @pytest.mark.parametrize(
        "fixture,block",
        [("small_data", b) for b in (1, 7, 256, None)]
        + [("duplicates", b) for b in (7, 256, None)],
    )
    def test_blocking_invariant_on_fixtures(self, request, fixture, block):
        """The block size bounds memory only: blocks from one row up to the
        whole set give the same matrix, also when duplicate points tie at
        distance 0."""
        data, _ = request.getfixturevalue(fixture)
        got = knn_matrix_numpy(data, 10, block=block or len(data))
        np.testing.assert_array_equal(got, knn_matrix_numpy(data, 10, block=len(data)))

    def test_one_row_blocks_on_duplicates(self, duplicates):
        """A one-row block is a matrix-vector product in BLAS, which rounds
        differently: copies of a point land at 0 or ~1e-15 and may swap
        places, so the neighbors agree up to copies of the same point."""
        data, _ = duplicates
        got = knn_matrix_numpy(data, 10, block=1)
        ref = knn_matrix_numpy(data, 10, block=len(data))
        np.testing.assert_array_equal(data[got], data[ref])

    def test_shape_caps_at_n_minus_1(self):
        data = np.random.default_rng(6).normal(size=(6, 3))
        assert knn_matrix_numpy(data, 10).shape == (6, 5)


class TestKnnMatrixSpark:
    def test_matches_numpy(self, spark, small_data):
        data, _ = small_data
        sub = data[:300]
        got = knn_matrix_spark_collect(spark, sub, 6)
        ref = knn_matrix_numpy(sub, 6)
        # Distances must agree exactly even if tie ids differ.
        for i in range(len(sub)):
            np.testing.assert_allclose(
                np.linalg.norm(sub[got[i]] - sub[i], axis=1),
                np.linalg.norm(sub[ref[i]] - sub[i], axis=1),
                atol=1e-9,
            )

    def test_duplicates_exclude_self(self, spark, duplicates):
        """With 40 copies of a point tied at distance 0, the self match may
        or may not be among a row's top k + 1; either way it is dropped and
        the row keeps k neighbors at the reference distances."""
        data, _ = duplicates
        got = knn_matrix_spark_collect(spark, data, 10)
        ref = knn_matrix_numpy(data, 10)
        assert not (got == np.arange(len(data))[:, None]).any()
        np.testing.assert_array_equal(
            np.linalg.norm(data[got] - data[:, None], axis=2),
            np.linalg.norm(data[ref] - data[:, None], axis=2),
        )

    def test_ids_cover_range(self, spark):
        data = np.random.default_rng(7).normal(size=(100, 4))
        pdf = knn_matrix_spark(spark, data, 4).toPandas()
        assert sorted(pdf["id"]) == list(range(100))

    def test_oracle_sql_neighbors(self, spark):
        """DuckDB cross-join top-k agrees with the Spark build (first NN)."""
        rng = np.random.default_rng(8)
        data = rng.normal(size=(60, 3))
        knn_df = knn_matrix_spark(spark, data, 1)
        first_nn = knn_df.selectExpr("id", "neighbors[0] as nn")
        points = pd.DataFrame(
            {"id": range(60), "x0": data[:, 0], "x1": data[:, 1], "x2": data[:, 2]}
        )
        sql = """
            SELECT a.id AS id, arg_min(b.id, (a.x0-b.x0)^2 + (a.x1-b.x1)^2 + (a.x2-b.x2)^2) AS nn
            FROM points a JOIN points b ON a.id <> b.id
            GROUP BY a.id
        """
        assert_equivalent(first_nn, sql, points=points)


class TestKnnAccuracy:
    def test_perfect(self):
        t = np.array([[1, 2, 3], [4, 5, 6]])
        assert knn_accuracy(t, t) == 1.0

    def test_half(self):
        truth = np.array([[1, 2], [3, 4]])
        ret = np.array([[1, 9], [8, 4]])
        assert knn_accuracy(ret, truth) == 0.5

    def test_padding_ignored(self):
        truth = np.array([[1, 2]])
        ret = np.array([[1, -1]])
        assert knn_accuracy(ret, truth) == 0.5

    def test_order_invariant(self):
        truth = np.array([[1, 2, 3]])
        assert knn_accuracy(np.array([[3, 1, 2]]), truth) == 1.0

    def test_matches_set_intersection_loop(self):
        """Equal to the per-row Python-set count, with -1 padding, repeated
        returned ids and returned rows wider or narrower than k."""
        rng = np.random.default_rng(3)
        truth = np.stack([rng.choice(30, 5, replace=False) for _ in range(40)])
        for width in (3, 5, 8):
            ret = rng.integers(-1, 30, size=(40, width))
            hits = sum(len({int(x) for x in r if x >= 0} & {int(x) for x in t})
                       for r, t in zip(ret, truth))
            assert knn_accuracy(ret, truth) == hits / truth.size
