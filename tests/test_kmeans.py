"""K-means substrate tests: Lloyd's convergence, partition-index contract,
Spark assignment parity, DuckDB oracle check of Voronoi assignment."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines.kmeans import KMeans, KMeansPartitioner
from repro.oracle import assert_equivalent
from repro.spark import assign_bins_spark, vectors_df
from repro.synth_data import sift_lite


@pytest.fixture(scope="module")
def blob_data():
    data, _ = sift_lite(n=800, d=6, n_queries=10, n_components=8, seed=31)
    return data


class TestKMeans:
    def test_inertia_below_random_assignment(self, blob_data):
        km = KMeans(8, seed=0).fit(blob_data)
        rng = np.random.default_rng(0)
        rand_c = blob_data[rng.choice(len(blob_data), 8, replace=False)]
        rand_inertia = (
            (blob_data - rand_c[KMeans.assign(blob_data, rand_c)]) ** 2
        ).sum()
        assert km.inertia(blob_data) < rand_inertia

    def test_assign_is_nearest(self, blob_data):
        km = KMeans(5, seed=1).fit(blob_data)
        a = km.predict(blob_data[:50])
        d = np.linalg.norm(blob_data[:50, None, :] - km.centroids[None], axis=2)
        np.testing.assert_array_equal(a, d.argmin(axis=1))

    def test_no_empty_clusters(self, blob_data):
        km = KMeans(10, seed=2).fit(blob_data)
        assert (np.bincount(km.predict(blob_data), minlength=10) > 0).all()

    def test_deterministic(self, blob_data):
        c1 = KMeans(4, seed=3).fit(blob_data).centroids
        c2 = KMeans(4, seed=3).fit(blob_data).centroids
        np.testing.assert_array_equal(c1, c2)

    def test_k_equals_n(self):
        data = np.random.default_rng(4).normal(size=(5, 3))
        km = KMeans(5, seed=0).fit(data)
        assert km.inertia(data) < 1e-12

    def test_fit_recovers_separated_blobs(self):
        rng = np.random.default_rng(5)
        centers = np.array([[0, 0], [20, 0], [0, 20]])
        data = np.vstack([c + rng.normal(0, 0.5, size=(30, 2)) for c in centers])
        km = KMeans(3, seed=0).fit(data)
        got = np.sort(np.round(km.centroids.sum(axis=1) / 10) * 10)
        np.testing.assert_array_equal(got, [0, 20, 20])


class TestKMeansPartitioner:
    def test_probe_order_by_distance(self, blob_data):
        p = KMeansPartitioner(6, seed=0).fit(blob_data)
        q = blob_data[:5]
        pm = p.probe_matrix(q)
        d = np.linalg.norm(q[:, None, :] - p.km.centroids[None], axis=2)
        for i in range(5):
            assert (np.diff(d[i][pm[i]]) >= -1e-12).all()

    def test_data_bins_match_predict(self, blob_data):
        p = KMeansPartitioner(4, seed=1).fit(blob_data)
        np.testing.assert_array_equal(p.data_bins(), p.km.predict(blob_data))


class TestSparkAssignment:
    def test_matches_local(self, spark, blob_data):
        km = KMeans(5, seed=0).fit(blob_data)
        vdf = vectors_df(spark, blob_data[:200])
        out = assign_bins_spark(spark, vdf, km.predict).toPandas().sort_values("id")
        np.testing.assert_array_equal(out["bin"].to_numpy(), km.predict(blob_data[:200]))

    def test_oracle_voronoi_2d(self, spark):
        """DuckDB computes the same nearest-centroid assignment in SQL."""
        rng = np.random.default_rng(6)
        data = rng.normal(size=(80, 2))
        km = KMeans(3, seed=0).fit(data)
        vdf = vectors_df(spark, data)
        got = assign_bins_spark(spark, vdf, km.predict)
        pts = pd.DataFrame({"id": range(80), "x0": data[:, 0], "x1": data[:, 1]})
        cents = pd.DataFrame(
            {"bin": range(3), "c0": km.centroids[:, 0], "c1": km.centroids[:, 1]}
        )
        sql = """
            SELECT p.id AS id,
                   arg_min(c.bin, (p.x0-c.c0)^2 + (p.x1-c.c1)^2) AS bin
            FROM pts p CROSS JOIN cents c
            GROUP BY p.id
        """
        assert_equivalent(got, sql, pts=pts, cents=cents)
