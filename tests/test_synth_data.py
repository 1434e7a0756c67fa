"""Tests for the dataset generators (vector and 2-D toy sets) and their
Spark DataFrame form."""
import numpy as np
import pytest

from repro import synth_data as sd
from repro.spark import vectors_df


class TestVectorDatasets:
    @pytest.mark.parametrize("gen,kw", [
        (sd.sift_lite, dict(n=500, d=8, n_queries=50, n_components=8)),
        (sd.mnist_lite, dict(n=400, d=16, n_queries=40, n_components=5)),
    ])
    def test_shapes(self, gen, kw):
        data, queries = gen(**kw)
        assert data.shape == (kw["n"], kw["d"])
        assert queries.shape == (kw["n_queries"], kw["d"])

    @pytest.mark.parametrize("gen", [sd.sift_lite, sd.mnist_lite])
    def test_deterministic_in_seed(self, gen):
        a1, q1 = gen(n=200, d=8, n_queries=20, seed=7)
        a2, q2 = gen(n=200, d=8, n_queries=20, seed=7)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(q1, q2)

    @pytest.mark.parametrize("gen", [sd.sift_lite, sd.mnist_lite])
    def test_seed_changes_data(self, gen):
        a1, _ = gen(n=200, d=8, n_queries=20, seed=1)
        a2, _ = gen(n=200, d=8, n_queries=20, seed=2)
        assert not np.allclose(a1, a2)

    def test_queries_not_in_data(self):
        data, queries = sd.sift_lite(n=300, d=8, n_queries=30)
        # No query row should exactly equal a data row (fresh draws).
        for q in queries:
            assert not (np.abs(data - q).sum(axis=1) < 1e-12).any()

    def test_clustered_structure(self):
        """GMM data should be far more clustered than uniform noise: mean NN
        distance must be much smaller than the dataset diameter."""
        data, _ = sd.sift_lite(n=1000, d=8, n_queries=10, n_components=16)
        from repro.knn.exact import knn_matrix_numpy

        nn = knn_matrix_numpy(data, 1)[:, 0]
        dist = np.linalg.norm(data[nn] - data, axis=1)
        diameter = np.linalg.norm(data.max(0) - data.min(0))
        assert dist.mean() < diameter / 10

    def test_mnist_lite_low_rank(self):
        """MNIST stand-in lives near a low-rank manifold: top-quarter singular
        values should carry most of the energy."""
        data, _ = sd.mnist_lite(n=800, d=32, n_queries=10)
        s = np.linalg.svd(data - data.mean(0), compute_uv=False)
        top = int(len(s) * 0.4)
        assert (s[:top] ** 2).sum() / (s**2).sum() > 0.9

    def test_vectors_df_roundtrip(self, spark):
        data, _ = sd.sift_lite(n=50, d=4, n_queries=5)
        df = vectors_df(spark, data)
        pdf = df.toPandas().sort_values("id")
        back = np.stack(pdf["vec"].to_numpy())
        np.testing.assert_allclose(back, data)


class TestToyDatasets:
    @pytest.mark.parametrize("gen", [sd.moons, sd.circles])
    def test_two_balanced_classes(self, gen):
        x, y = gen(n=400)
        assert x.shape == (400, 2)
        assert set(np.unique(y)) == {0, 1}
        assert abs((y == 0).sum() - 200) <= 1

    def test_circles_radii(self):
        x, y = sd.circles(n=600, factor=0.5, noise=0.02)
        r = np.linalg.norm(x, axis=1)
        # One class near radius 1, the other near 0.5.
        means = sorted([r[y == 0].mean(), r[y == 1].mean()])
        assert abs(means[0] - 0.5) < 0.1 and abs(means[1] - 1.0) < 0.1

    def test_moons_interleave(self):
        x, _ = sd.moons(n=400, noise=0.02)
        # Canonical two-moons bounding box.
        assert x[:, 0].min() > -1.5 and x[:, 0].max() < 2.5

    def test_classification_blobs(self):
        x, y = sd.classification_blobs(n=500, n_clusters=4)
        assert x.shape == (500, 2)
        assert set(np.unique(y)) <= set(range(4))

    @pytest.mark.parametrize("gen", [sd.moons, sd.circles, ])
    def test_toy_deterministic(self, gen):
        x1, y1 = gen(n=100, seed=3)
        x2, y2 = gen(n=100, seed=3)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)
