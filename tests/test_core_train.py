"""Training-loop tests: the loss drops, partitions balance, runs reproduce."""
import numpy as np
import pytest

from repro.core.train import (
    TrainConfig,
    neighbor_targets,
    sinkhorn_balance,
    train_usp_model,
)
from repro.knn.exact import knn_matrix_numpy
from repro.nn.model import mlp_partitioner
from repro.synth_data import sift_lite


@pytest.fixture(scope="module")
def tiny():
    data, _ = sift_lite(n=600, d=8, n_queries=10, n_components=8, seed=5)
    return data, knn_matrix_numpy(data, 8)


class TestTrainUspModel:
    def test_quality_loss_decreases(self, tiny):
        data, knn = tiny
        model = mlp_partitioner(8, 4, hidden=16, seed=0)
        hist = train_usp_model(model, data, knn, TrainConfig(m=4, eta=2.0, epochs=15, seed=0))
        u = [h[0] for h in hist]
        assert u[-1] < u[0]

    def test_partition_balanced(self, tiny):
        data, knn = tiny
        model = mlp_partitioner(8, 4, hidden=16, seed=1)
        train_usp_model(model, data, knn, TrainConfig(m=4, eta=7.0, epochs=25, seed=1))
        sizes = np.bincount(model.predict_bin(data), minlength=4)
        ideal = len(data) / 4
        assert sizes.max() < 2.0 * ideal and sizes.min() > 0.3 * ideal

    def test_quality_beats_random(self, tiny):
        """Trained partition separates far fewer neighbor pairs than random."""
        data, knn = tiny
        model = mlp_partitioner(8, 4, hidden=16, seed=2)
        train_usp_model(model, data, knn, TrainConfig(m=4, eta=7.0, epochs=25, seed=2))
        bins = model.predict_bin(data)
        sep = (bins[knn] != bins[:, None]).mean()
        rng = np.random.default_rng(0)
        rand_bins = rng.integers(0, 4, len(data))
        rand_sep = (rand_bins[knn] != rand_bins[:, None]).mean()
        assert sep < rand_sep / 2

    def test_reproducible(self, tiny):
        data, knn = tiny
        outs = []
        for _ in range(2):
            model = mlp_partitioner(8, 4, hidden=16, seed=3)
            train_usp_model(model, data, knn, TrainConfig(m=4, eta=3.0, epochs=5, seed=3))
            outs.append(model.predict_bin(data))
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_weights_change_training(self, tiny):
        data, knn = tiny
        w = np.ones(len(data))
        w[: len(data) // 4] = 10.0
        bins = []
        for weights in (None, w):
            model = mlp_partitioner(8, 4, hidden=16, seed=4)
            train_usp_model(
                model, data, knn, TrainConfig(m=4, eta=3.0, epochs=10, seed=4), weights
            )
            bins.append(model.predict_bin(data))
        assert (bins[0] != bins[1]).any()

    def test_history_recorded_in_cfg(self, tiny):
        data, knn = tiny
        cfg = TrainConfig(m=4, eta=1.0, epochs=3, seed=0)
        model = mlp_partitioner(8, 4, hidden=8, seed=0)
        train_usp_model(model, data, knn, cfg)
        assert len(cfg.history) == 3


def bin_counts(hard, m):
    """Per row of ``hard``, the share of its entries in each of the m bins."""
    out = np.zeros((len(hard), m))
    for j in range(m):
        out[:, j] = (hard == j).sum(axis=1)
    return out / hard.shape[1]


def full_row_targets(model, x, neigh, m):
    """Reference: every neighbor row through ``predict_proba``, argmax, then
    a per-bin count."""
    hard = model.predict_proba(x[neigh.ravel()]).argmax(axis=1).reshape(neigh.shape)
    return bin_counts(hard, m)


def unique_targets(model, x, neigh, m):
    """Reference: the distinct neighbors found by ``np.unique``."""
    uniq, inv = np.unique(neigh, return_inverse=True)
    return bin_counts(model.predict_bin(x[uniq])[inv.reshape(neigh.shape)], m)


class TestNeighborTargets:
    def test_deduplicated_equal_full_rows(self, tiny):
        """At checkpoints through a training run, scoring each distinct
        neighbor once gives exactly the targets of scoring every row."""
        data, knn = tiny
        model = mlp_partitioner(8, 4, hidden=16, seed=6)
        rng = np.random.default_rng(6)
        for epoch in range(4):
            if epoch:
                train_usp_model(model, data, knn, TrainConfig(m=4, eta=7.0, epochs=2, seed=epoch))
            for idx in np.array_split(rng.permutation(len(data)), 6):
                got = neighbor_targets(model, data, knn[idx], 4)
                np.testing.assert_array_equal(got, full_row_targets(model, data, knn[idx], 4))

    @pytest.mark.parametrize("case", ["few_ids", "each_id_once"])
    def test_duplicate_heavy_and_distinct_neighbors(self, tiny, case):
        """Every row pointing at the same few ids, and every id held once,
        give the targets of the ``np.unique`` form; the distinct rows are
        scored in ascending order, so the eval forward sees the same
        batch."""
        data, _ = tiny
        rng = np.random.default_rng(8)
        if case == "few_ids":
            neigh = np.tile(np.array([417, 3, 417, 59, 3, 3, 599, 0]), (64, 1))
        else:
            neigh = rng.permutation(len(data))[:512].reshape(64, 8)
        model = mlp_partitioner(8, 4, hidden=16, seed=7)
        scored = []
        predict = model.predict_bin

        def spy(rows):
            scored.append(rows)
            return predict(rows)

        model.predict_bin = spy
        got = neighbor_targets(model, data, neigh, 4)
        np.testing.assert_array_equal(scored[0], data[np.unique(neigh)])
        np.testing.assert_array_equal(got, unique_targets(model, data, neigh, 4))


class TestSinkhorn:
    def test_rows_are_distributions(self):
        rng = np.random.default_rng(0)
        t = sinkhorn_balance(rng.random((20, 4)))
        np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-6)

    def test_columns_near_uniform(self):
        rng = np.random.default_rng(1)
        t = sinkhorn_balance(rng.random((40, 4)), iters=50)
        np.testing.assert_allclose(t.sum(axis=0), 10.0, rtol=0.05)

    def test_preserves_row_ordering(self):
        t = np.array([[0.9, 0.1], [0.1, 0.9], [0.8, 0.2], [0.2, 0.8]])
        out = sinkhorn_balance(t)
        assert (out[0, 0] > out[0, 1]) and (out[1, 1] > out[1, 0])
