"""Exact k-NN substrate tests: the k'-NN matrix and ``topk_neighbors`` vs
a stable sort by difference-form distance, the row cut and ranker vs a
stable sort, the distance block vs the plain expansion, Spark build vs numpy
id for id, and a DuckDB SQL oracle check of the neighbor sets."""
import numpy as np
import pandas as pd
import pytest

from repro.knn.exact import (
    _row_cut,
    knn_matrix_numpy,
    rank_rows,
    sqdist,
    topk_neighbors,
)
from repro.knn.metrics import knn_accuracy
from repro.oracle import assert_equivalent
from repro.spark import knn_matrix_spark, knn_matrix_spark_collect


def naive_topk(queries, data, k, exclude_self=False):
    """The one exact rule, query by query: ids and distances of the first k
    of a stable sort by difference-form distance, so ties fall by index."""
    ids, dists = [], []
    for i, q in enumerate(queries):
        d = np.sqrt(((data - q) ** 2).sum(axis=1))
        if exclude_self:
            d[i] = np.inf
        ids.append(np.argsort(d, kind="stable")[:k])
        dists.append(d[ids[-1]])
    return np.array(ids), np.array(dists)


def plain_sqdist(a, b):
    """The distance expression ``sqdist`` must match bit for bit."""
    return (a**2).sum(axis=1, keepdims=True) - 2.0 * a @ b.T + (b**2).sum(axis=1)


def stable_smallest(d2, k):
    idx = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return idx, np.take_along_axis(d2, idx, axis=1)


def grouped_cut(d2, k, g):
    """The k-th smallest minimum over groups of columns by index mod ``g``,
    built column by column."""
    gmin = np.full((len(d2), g), np.inf)
    for j in range(d2.shape[1]):
        gmin[:, j % g] = np.minimum(gmin[:, j % g], d2[:, j])
    return np.sort(gmin, axis=1)[:, [k - 1]]


def smallest_per_row(d2, k):
    """The k'-NN block's selection on a given matrix: :func:`rank_rows` over
    the entries at or below :func:`_row_cut`, entries as distances and
    columns as ids."""
    rows, cols = np.divmod(np.flatnonzero(d2 <= _row_cut(d2, k)), d2.shape[1])
    return rank_rows(rows, d2[rows, cols], cols, len(d2), k)


def distance_rows(kind, r, n, seed=0):
    """(r, n) non-negative rows with the self diagonal at inf: random values,
    integer values with many exact ties, or all zeros but the diagonal."""
    rng = np.random.default_rng(seed)
    d2 = {"random": lambda: rng.random((r, n)),
          "ties": lambda: rng.integers(0, 4, (r, n)).astype(float),
          "zeros": lambda: np.zeros((r, n))}[kind]()
    d2[np.arange(min(r, n)), np.arange(min(r, n))] = np.inf
    return d2


class TestSmallestPerRow:
    """The row cut and the shared ranker together equal a stable sort of
    each row (ties by column), values and ids exactly, across the group
    layouts: one column per group (n <= 128), n a multiple of the group
    count, a tail of n mod 128 columns, and k above 128, where the group
    count becomes k."""

    @pytest.mark.parametrize("kind", ["random", "ties", "zeros"])
    @pytest.mark.parametrize(
        "n,k",
        [(6000, 10), (300, 10), (256, 10), (128, 10), (50, 10),
         (50, 1), (300, 1), (50, 49), (129, 128), (300, 299), (300, 150)],
    )
    def test_equal_to_stable_sort(self, kind, n, k):
        d2 = distance_rows(kind, 40, n)
        ids, vals = smallest_per_row(d2, k)
        ref_ids, ref_vals = stable_smallest(d2, k)
        np.testing.assert_array_equal(ids, ref_ids)
        np.testing.assert_array_equal(vals, ref_vals)

    @pytest.mark.parametrize("n,k", [(6000, 10), (300, 10), (50, 10), (300, 150)])
    def test_cut_is_kth_group_minimum(self, n, k):
        """The cut folds every column into its group, the tail included; a
        looser cut stays exact but sorts more entries."""
        d2 = distance_rows("random", 40, n)
        np.testing.assert_array_equal(_row_cut(d2, k), grouped_cut(d2, k, min(n, max(k, 128))))

    def test_k_zero(self):
        ids, vals = smallest_per_row(distance_rows("random", 3, 20), 0)
        assert ids.shape == vals.shape == (3, 0)

    def test_ranker_pads_short_rows(self):
        """Rows with fewer than k survivors, none included, are padded with
        -1 ids and inf distances; ties keep input order, not id order."""
        rows = np.array([0, 0, 0, 2])
        ids, dist = rank_rows(rows, np.array([2.0, 1.0, 1.0, 5.0]), np.array([9, 8, 3, 4]), 3, 2)
        np.testing.assert_array_equal(ids, [[8, 3], [-1, -1], [4, -1]])
        np.testing.assert_array_equal(dist, [[1.0, 1.0], [np.inf, np.inf], [5.0, np.inf]])


class TestSqdist:
    """The in-place distance block is bit-identical to the plain expansion."""

    @pytest.mark.parametrize("fixture", ["small_data", "duplicates"])
    @pytest.mark.parametrize("rows", [slice(7, 40), slice(3, 4)])
    def test_block_against_data(self, request, fixture, rows):
        data, queries = request.getfixturevalue(fixture)
        block = data[rows]
        np.testing.assert_array_equal(sqdist(block, data), plain_sqdist(block, data))
        np.testing.assert_array_equal(sqdist(queries, data), plain_sqdist(queries, data))

    @pytest.mark.parametrize("fixture", ["small_data", "duplicates"])
    def test_data_against_itself(self, request, fixture):
        data, _ = request.getfixturevalue(fixture)
        np.testing.assert_array_equal(sqdist(data, data), plain_sqdist(data, data))


class TestTopkNumpy:
    @pytest.mark.parametrize("n,d,k", [(50, 3, 5), (200, 8, 10), (20, 2, 19)])
    def test_matches_naive(self, n, d, k):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(n, d))
        queries = rng.normal(size=(10, d))
        idx, dist = topk_neighbors(queries, data, k)
        naive_idx, naive_dist = naive_topk(queries, data, k)
        np.testing.assert_array_equal(idx, naive_idx)
        np.testing.assert_array_equal(dist, naive_dist)

    def test_blocks_of_queries(self, copies):
        """More queries than one block of ``KNN_BLOCK``: the blocks split the
        queries only, so each row equals the one-query call's."""
        data, _ = copies
        queries = data[::11] + 1e-3
        idx, dist = topk_neighbors(queries, data, 10)
        assert len(queries) > 256
        for i in (0, 255, 256, len(queries) - 1):
            one_idx, one_dist = topk_neighbors(queries[i:i + 1], data, 10)
            np.testing.assert_array_equal(idx[i:i + 1], one_idx)
            np.testing.assert_array_equal(dist[i:i + 1], one_dist)
        np.testing.assert_array_equal(idx, naive_topk(queries, data, 10)[0])

    def test_sorted_ascending(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(100, 4))
        _, dist = topk_neighbors(data[:5], data, 10)
        assert (np.diff(dist, axis=1) >= -1e-12).all()

    def test_k_larger_than_n(self):
        data = np.random.default_rng(3).normal(size=(4, 2))
        idx, dist = topk_neighbors(data[:2], data, 10)
        assert idx.shape == (2, 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["data", "queries"])
    def test_rejects_non_finite(self, bad, where):
        data = np.random.default_rng(9).normal(size=(50, 4))
        queries = data[:5].copy()
        (data if where == "data" else queries)[3, 1] = bad
        with pytest.raises(ValueError, match=f"{where} hold NaN or infinite"):
            topk_neighbors(queries, data, 5)

    @pytest.mark.parametrize("where", ["data", "queries"])
    def test_rejects_overflowing_norms(self, where):
        """Finite points whose squared norms overflow float64 fail, in the
        data or in the queries, instead of returning an unordered top k."""
        data = np.random.default_rng(9).normal(size=(50, 4))
        queries = data[:5].copy()
        (data if where == "data" else queries)[3] *= 1e155
        with pytest.raises(ValueError, match="squared norms too large"):
            topk_neighbors(queries, data, 5)

    def test_rejects_bad_shapes(self):
        """1-D data and queries of another dimension fail with the fits'
        messages, before any distance is computed."""
        data = np.random.default_rng(9).normal(size=(50, 4))
        with pytest.raises(ValueError, match="expected \\(n, d\\)"):
            topk_neighbors(data[:5], data[:, 0], 5)
        for q in (data[:5, :3], data[0]):
            with pytest.raises(ValueError, match="dimension 4"):
                topk_neighbors(q, data, 5)


class TestKnnMatrixNumpy:
    def test_matches_naive(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(80, 5))
        mat = knn_matrix_numpy(data, 7)
        np.testing.assert_array_equal(mat, naive_topk(data, data, 7, exclude_self=True)[0])

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
        its scores differently; the order comes from the difference form
        alone, so the ids are equal, copies included."""
        data, _ = duplicates
        got = knn_matrix_numpy(data, 10, block=1)
        np.testing.assert_array_equal(got, knn_matrix_numpy(data, 10, block=len(data)))

    def test_ties_fall_by_index(self, duplicates):
        """Copies of a point tie at one distance; they come in index order,
        as in a stable sort of each row of the whole difference-form
        distance matrix."""
        data, _ = duplicates
        dist = np.sqrt(((data[:, None] - data[None]) ** 2).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        np.testing.assert_array_equal(
            knn_matrix_numpy(data, 10, block=len(data)), stable_smallest(dist, 10)[0]
        )

    def test_large_norms_below_the_bound(self):
        """Far from the origin, up to the largest norms the data check lets
        through, the matrix still equals the stable difference-form sort."""
        data = np.random.default_rng(10).normal(size=(40, 4))
        data *= 0.999 * np.sqrt(np.finfo(np.float64).max / 8) / np.linalg.norm(data, axis=1).max()
        np.testing.assert_array_equal(
            knn_matrix_numpy(data, 5), naive_topk(data, data, 5, exclude_self=True)[0])

    def test_rejects_overflowing_norms(self):
        """40 finite points scaled by 1e154, half by a further 10: their
        squared norms overflow, and the build fails instead of listing
        points as their own neighbors."""
        data = np.random.default_rng(11).normal(size=(40, 4)) * 1e154
        data[::2] *= 10
        with pytest.raises(ValueError, match="squared norms too large"):
            knn_matrix_numpy(data, 5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        data = np.random.default_rng(9).normal(size=(50, 4))
        data[3, 1] = bad
        with pytest.raises(ValueError, match="data hold NaN or infinite"):
            knn_matrix_numpy(data, 5)

    def test_k_outside_0_n_raises(self):
        """k' must leave each of the n points k' other points: k' = n - 1 is
        the largest matrix, and 0, n or more fail instead of being clamped."""
        data = np.random.default_rng(6).normal(size=(6, 3))
        assert knn_matrix_numpy(data, 5).shape == (6, 5)
        for k in (0, 6, 11):
            with pytest.raises(ValueError, match="0 < k' < n"):
                knn_matrix_numpy(data, k)

    def test_rejects_one_dimensional_data(self):
        with pytest.raises(ValueError, match="expected \\(n, d\\)"):
            knn_matrix_numpy(np.arange(10.0), 3)


class TestKnnMatrixSpark:
    def test_matches_numpy(self, spark, small_data):
        """The Spark build runs the numpy build's blocks, so the ids are equal,
        exact ties included: two blocks (300 rows) and six (1,500 rows)."""
        data, _ = small_data
        for sub in (data[:300], data):
            np.testing.assert_array_equal(
                knn_matrix_spark_collect(spark, sub, 6), knn_matrix_numpy(sub, 6))

    def test_duplicates_exclude_self(self, spark, duplicates):
        """With 40 copies of a point tied at distance 0, no row lists itself
        and every row equals the numpy build's, tie order included."""
        data, _ = duplicates
        got = knn_matrix_spark_collect(spark, data, 10)
        assert not (got == np.arange(len(data))[:, None]).any()
        np.testing.assert_array_equal(got, knn_matrix_numpy(data, 10))

    def test_copies_match_numpy(self, spark, copies):
        """On 60 points × 100 exact copies every row's top 10 is decided by
        ties; the Spark build's blocks give the numpy build's ids."""
        data, _ = copies
        np.testing.assert_array_equal(
            knn_matrix_spark_collect(spark, data, 10), knn_matrix_numpy(data, 10))

    def test_large_norms_match_numpy(self, spark):
        """Up to the largest norms the data check lets through, the driver's
        scaled float32 copy gives the executors the numpy build's ids."""
        data = np.random.default_rng(10).normal(size=(300, 4))
        data *= 0.999 * np.sqrt(np.finfo(np.float64).max / 8) / np.linalg.norm(data, axis=1).max()
        np.testing.assert_array_equal(
            knn_matrix_spark_collect(spark, data, 5), knn_matrix_numpy(data, 5))
        np.testing.assert_array_equal(
            knn_matrix_numpy(data, 5), naive_topk(data, data, 5, exclude_self=True)[0])

    def test_rejects_what_numpy_rejects(self, spark):
        data = np.random.default_rng(7).normal(size=(20, 4))
        for k in (0, 20):
            with pytest.raises(ValueError, match="0 < k' < n"):
                knn_matrix_spark(spark, data, k)
        bad = data.copy()
        bad[4, 1] = np.nan
        with pytest.raises(ValueError, match="data hold NaN or infinite"):
            knn_matrix_spark(spark, bad, 3)
        with pytest.raises(ValueError, match="expected \\(n, d\\)"):
            knn_matrix_spark(spark, data[:, 0], 3)

    def test_ids_cover_range(self, spark):
        data = np.random.default_rng(7).normal(size=(600, 4))  # blocks of 256, 256, 88
        pdf = knn_matrix_spark(spark, data, 4).toPandas()
        assert sorted(pdf["id"]) == list(range(600))

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
