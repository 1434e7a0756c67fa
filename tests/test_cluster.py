"""Clustering substrate tests: DBSCAN, spectral clustering, ARI."""
import numpy as np
import pytest

from repro.cluster.dbscan import dbscan
from repro.cluster.metrics import adjusted_rand_index
from repro.cluster.spectral import spectral_clustering
from repro.synth_data import circles, classification_blobs, moons


class TestMetrics:
    def test_ari_identical(self):
        y = np.array([0, 0, 1, 1, 2, 2])
        assert adjusted_rand_index(y, y) == 1.0

    def test_ari_permutation_invariant(self):
        y = np.array([0, 0, 1, 1])
        assert adjusted_rand_index(y, 1 - y) == 1.0

    def test_ari_random_near_zero(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 4, 2000)
        b = rng.integers(0, 4, 2000)
        assert abs(adjusted_rand_index(a, b)) < 0.05

    def test_ari_known_value(self):
        # sklearn doc example: ARI([0,0,1,1],[0,0,1,2]) = 0.5714...
        got = adjusted_rand_index(np.array([0, 0, 1, 1]), np.array([0, 0, 1, 2]))
        assert got == pytest.approx(0.5714, abs=1e-3)


class TestDBSCAN:
    def test_moons_perfect(self):
        x, y = moons(n=400, seed=1)
        labels = dbscan(x, eps=0.2, min_samples=5)
        assert adjusted_rand_index(y, labels) > 0.95

    def test_circles_perfect(self):
        x, y = circles(n=400, seed=2)
        labels = dbscan(x, eps=0.2, min_samples=5)
        assert adjusted_rand_index(y, labels) > 0.95

    def test_noise_points_labeled_minus_one(self):
        rng = np.random.default_rng(3)
        cluster = rng.normal(0, 0.1, size=(50, 2))
        outlier = np.array([[10.0, 10.0]])
        labels = dbscan(np.vstack([cluster, outlier]), eps=0.5, min_samples=5)
        assert labels[-1] == -1
        assert (labels[:50] == labels[0]).all() and labels[0] >= 0

    def test_min_samples_too_high_all_noise(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 10, size=(30, 2))
        labels = dbscan(x, eps=0.01, min_samples=10)
        assert (labels == -1).all()

    def test_single_dense_cluster(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(100, 2)) * 0.1
        labels = dbscan(x, eps=0.5, min_samples=3)
        assert len(np.unique(labels)) == 1 and labels[0] == 0


class TestSpectral:
    @pytest.mark.parametrize("gen,seed", [(moons, 6), (circles, 7)])
    def test_nonconvex_perfect(self, gen, seed):
        x, y = gen(n=400, seed=seed)
        labels = spectral_clustering(x, 2, seed=0)
        assert adjusted_rand_index(y, labels) > 0.95

    def test_blobs(self):
        x, y = classification_blobs(n=400, seed=8)
        labels = spectral_clustering(x, 4, seed=0)
        assert adjusted_rand_index(y, labels) > 0.9

    def test_k_clusters_returned(self):
        x, _ = moons(n=200, seed=9)
        labels = spectral_clustering(x, 2, seed=0)
        assert set(np.unique(labels)) <= {0, 1}

    def test_dense_affinity_path(self):
        """n_neighbors=None exercises the dense-RBF branch; with a gamma
        sharp enough to separate the rings it still recovers the circles."""
        x, y = circles(n=200, seed=10)
        labels = spectral_clustering(x, 2, n_neighbors=None, gamma=150.0, seed=0)
        assert adjusted_rand_index(y, labels) > 0.8


class TestUspClustering:
    def test_circles_recovered(self):
        from repro.experiments.table5 import usp_cluster

        x, y = circles(n=400, seed=11)
        labels = usp_cluster(x, 2, seed=0)
        assert adjusted_rand_index(y, labels) > 0.95

    def test_moons_recovered(self):
        from repro.experiments.table5 import usp_cluster

        x, y = moons(n=400, seed=12)
        labels = usp_cluster(x, 2, seed=0)
        assert adjusted_rand_index(y, labels) > 0.9
