"""Tests for model containers: architectures, pickle round trips, counts, and
the one eval forward against a reference written out layer by layer."""
import pickle

import numpy as np
import pytest

from repro.nn.layers import BatchNorm1d, Linear, ReLU, softmax
from repro.nn.model import MLP, StackedMLP, logistic_regression, mlp_partitioner, n_parameters


def reference_logits(model: MLP, x: np.ndarray) -> np.ndarray:
    """Eval-mode logits, one layer at a time: Linear ``x @ W + b``, BatchNorm
    ``x * scale + shift`` from the running stats, ReLU, Dropout the identity."""
    for layer in model.layers:
        if isinstance(layer, Linear):
            x = x @ layer.W.value + layer.b.value
        elif isinstance(layer, BatchNorm1d):
            scale = layer.gamma.value / np.sqrt(layer.running_var + layer.eps)
            x = x * scale + (layer.beta.value - layer.running_mean * scale)
        elif isinstance(layer, ReLU):
            x = np.maximum(x, 0.0)
    return x


def trained_mlp(seed: int) -> MLP:
    """A 128-hidden MLP with dropout 0.5 whose BatchNorm has running stats
    from train-mode passes and a non-trivial gamma and beta."""
    rng = np.random.default_rng(seed)
    model = mlp_partitioner(8, 16, hidden=128, dropout=0.5, seed=seed)
    for _ in range(3):
        model.forward(rng.normal(2.0, 3.0, size=(64, 8)), train=True)
    bn = model.layers[1]
    bn.gamma.value = rng.normal(size=128)
    bn.beta.value = rng.normal(size=128)
    return model


class TestEvalForward:
    """``MLP.forward(x, train=False)``, ``predict_bin``, ``predict_proba`` and
    every slice of a multi-model ``StackedMLP`` are bit-identical to the
    reference forward."""

    MODELS = {"mlp": trained_mlp, "logreg": lambda seed: logistic_regression(8, 16, seed=seed)}

    @pytest.mark.parametrize("arch", sorted(MODELS))
    @pytest.mark.parametrize("n", [1, 16, 4000])
    def test_matches_reference(self, arch, n):
        models = [self.MODELS[arch](seed) for seed in range(3)]
        x = np.random.default_rng(n).normal(2.0, 3.0, size=(n, 8))
        stacked = StackedMLP(models)
        logits, probs = stacked.logits(x), stacked.predict_proba(x)
        for i, model in enumerate(models):
            ref = reference_logits(model, x)
            assert np.array_equal(model.forward(x, train=False), ref)
            assert np.array_equal(model.predict_bin(x), ref.argmax(axis=1))
            assert np.array_equal(model.predict_proba(x), softmax(ref))
            assert np.array_equal(logits[i], ref)
            assert np.array_equal(probs[i], softmax(ref))

    def test_eval_forward_leaves_training_state(self):
        """The eval forward reads the weights and running stats and writes
        nothing back, so a train-mode step after it is unchanged."""
        model, twin = trained_mlp(0), trained_mlp(0)
        x = np.random.default_rng(1).normal(size=(32, 8))
        model.predict_proba(x)
        assert np.array_equal(model.forward(x, train=True), twin.forward(x, train=True))
        assert np.array_equal(model.layers[1].running_mean, twin.layers[1].running_mean)


class TestArchitectures:
    @pytest.mark.parametrize("d,m,hidden", [(8, 4, 16), (12, 2, 32), (3, 7, 8)])
    def test_predict_proba_shape_and_simplex(self, d, m, hidden):
        model = mlp_partitioner(d, m, hidden=hidden, seed=0)
        x = np.random.default_rng(0).normal(size=(20, d))
        p = model.predict_proba(x)
        assert p.shape == (20, m)
        np.testing.assert_allclose(p.sum(axis=1), 1.0)

    def test_logreg_single_layer(self):
        model = logistic_regression(5, 2)
        assert len(model.layers) == 1
        assert n_parameters(model) == 5 * 2 + 2

    @pytest.mark.parametrize("n_hidden", [1, 2, 3])
    def test_depth(self, n_hidden):
        model = mlp_partitioner(6, 4, hidden=8, n_hidden=n_hidden)
        # Each hidden block: Linear + BN + ReLU + Dropout; plus output Linear.
        assert len(model.layers) == 4 * n_hidden + 1

    def test_param_count_formula(self):
        d, h, m = 10, 16, 4
        model = mlp_partitioner(d, m, hidden=h, n_hidden=1)
        expect = d * h + h + 2 * h + h * m + m  # W1+b1+BN(gamma,beta)+W2+b2
        assert n_parameters(model) == expect

    def test_table2_neural_lsh_shape(self):
        """The 3×512-hidden stack reproduces Neural LSH's ~729k params."""
        model = mlp_partitioner(128, 256, hidden=512, n_hidden=3)
        assert 700_000 < n_parameters(model) < 760_000

    def test_predict_bin_argmax(self):
        model = mlp_partitioner(4, 3, seed=1)
        x = np.random.default_rng(1).normal(size=(10, 4))
        np.testing.assert_array_equal(
            model.predict_bin(x), model.predict_proba(x).argmax(axis=1)
        )


class TestPickle:
    def test_pickled_predict_bin_matches(self):
        """A model's bound ``predict_bin`` survives a pickle round trip with
        its weights and BatchNorm running statistics (how the Spark bin
        assignment ships it to executors)."""
        m = mlp_partitioner(4, 3, hidden=8, seed=0)
        x = np.random.default_rng(3).normal(3.0, 2.0, size=(100, 4))
        m.forward(x, train=True)  # update running stats
        np.testing.assert_array_equal(pickle.loads(pickle.dumps(m.predict_bin))(x), m.predict_bin(x))
        np.testing.assert_array_equal(
            pickle.loads(pickle.dumps(m)).predict_proba(x), m.predict_proba(x))


class TestEvalDeterminism:
    def test_eval_mode_deterministic(self):
        model = mlp_partitioner(5, 3, dropout=0.5, seed=0)
        x = np.random.default_rng(4).normal(size=(10, 5))
        np.testing.assert_array_equal(model.predict_proba(x), model.predict_proba(x))

    def test_train_mode_stochastic_with_dropout(self):
        model = mlp_partitioner(5, 3, dropout=0.5, seed=0)
        x = np.random.default_rng(5).normal(size=(10, 5))
        y1 = model.forward(x, train=True)
        y2 = model.forward(x, train=True)
        assert not np.allclose(y1, y2)
