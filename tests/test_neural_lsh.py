"""Neural LSH / Regression LSH tests: supervised trainer, routing accuracy,
partition fidelity (data points keep graph-partition bins)."""
import numpy as np
import pytest

from repro.baselines.graph_partition import balanced_graph_partition
from repro.baselines.neural_lsh import (
    NeuralLSHPartitioner,
    RegressionLSHTree,
    train_supervised,
)
from repro.knn.exact import knn_matrix_numpy
from repro.nn.model import logistic_regression, mlp_partitioner
from repro.synth_data import sift_lite


@pytest.fixture(scope="module")
def data():
    d, q = sift_lite(n=700, d=8, n_queries=60, n_components=8, seed=61)
    return d, q


class TestTrainSupervised:
    def test_fits_separable_labels(self):
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(-3, 1, (100, 4)), rng.normal(3, 1, (100, 4))])
        y = np.r_[np.zeros(100, int), np.ones(100, int)]
        model = logistic_regression(4, 2, seed=0)
        hist = train_supervised(model, x, y, epochs=30, seed=0)
        assert (model.predict_bin(x) == y).mean() > 0.95
        assert hist[-1] < hist[0]

    def test_loss_history_length(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 3))
        y = rng.integers(0, 2, 50)
        model = mlp_partitioner(3, 2, hidden=8, seed=0)
        assert len(train_supervised(model, x, y, epochs=7)) == 7


class TestNeuralLSH:
    @pytest.fixture(scope="class")
    def fitted(self, data):
        d, _ = data
        knn = knn_matrix_numpy(d, 8)
        return NeuralLSHPartitioner(4, hidden=32, epochs=30, seed=0).fit(d, knn_idx=knn)

    def test_data_bins_are_graph_partition(self, fitted, data):
        """Indexed points keep the combinatorial partition's bins, balanced."""
        d, _ = data
        labels = balanced_graph_partition(knn_matrix_numpy(d, 8), 4, seed=0)
        np.testing.assert_array_equal(fitted.data_bins(), labels)
        assert fitted.bin_sizes().max() <= np.ceil(700 / 4) * 1.05 + 1

    def test_model_routes_data_points_consistently(self, fitted, data):
        d, _ = data
        acc = (fitted.model.predict_bin(d) == fitted.data_bins()).mean()
        assert acc > 0.7  # classifier learned the partition

    def test_probe_matrix_permutation(self, fitted, data):
        _, q = data
        pm = fitted.probe_matrix(q[:10])
        for row in pm:
            assert sorted(row) == list(range(4))


class TestRegressionLSHTree:
    @pytest.fixture(scope="class")
    def tree(self, data):
        d, _ = data
        return RegressionLSHTree(3, epochs=15, seed=0).fit(d)

    def test_leaf_count(self, tree):
        assert 2 <= tree.n_bins <= 8

    def test_leaf_probs_sum_one(self, tree, data):
        _, q = data
        np.testing.assert_allclose(tree.leaf_probs(q[:20]).sum(axis=1), 1.0, atol=1e-9)

    def test_bins_cover_leaves(self, tree):
        assert set(np.unique(tree.data_bins())) == set(range(tree.n_bins))

    def test_reasonable_balance(self, tree):
        sizes = tree.bin_sizes()
        assert sizes.max() < 3 * 700 / tree.n_bins
