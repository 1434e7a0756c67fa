"""Tests for model containers: architectures, pickle round trips, counts, and
the eval forward and the train step against references written out layer
by layer."""
import copy
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.nn.layers import softmax
from repro.nn.model import EVAL_ROWS, MLP, logistic_regression, mlp_partitioner, n_parameters
from repro.nn.optim import Adam


def reference_logits(model: MLP, x: np.ndarray) -> np.ndarray:
    """Eval-mode logits of a stack of one, one layer at a time: Linear
    ``x @ W + b``, BatchNorm ``x * scale + shift`` from the running stats,
    ReLU, Dropout the identity."""
    for W, b, gamma, beta, mean, var in zip(model.W, model.b, model.gamma, model.beta,
                                            model.mean, model.var):
        x = x @ W[0] + b[0, 0]
        scale = gamma[0, 0] / np.sqrt(var[0, 0] + model.eps)
        x = x * scale + (beta[0, 0] - mean[0, 0] * scale)
        x = np.maximum(x, 0.0)
    return x @ model.W[-1][0] + model.b[-1][0, 0]


def reference_train(model: MLP, xs, gs, lr: float) -> tuple[list, list, list]:
    """Adam steps on the logit gradients ``gs`` of the batches ``xs``, one
    layer at a time on 2-D arrays, from a copy of ``model``'s weights and
    rng: the train forward of Linear, BatchNorm (batch stats, running stats
    updated), ReLU and inverted Dropout, their backward in reverse, then
    Adam. Returns each step's logits, the parameters in ``params()`` order
    and the running (mean, var) of each BatchNorm."""
    n_hidden, p = len(model.gamma), model.dropout
    W = [a[0].copy() for a in model.W]
    b = [a[0, 0].copy() for a in model.b]
    gamma, beta, mean, var = ([a[0, 0].copy() for a in arrays] for arrays in
                              (model.gamma, model.beta, model.mean, model.var))
    rng = copy.deepcopy(model.rng)

    def params():
        return [a for i in range(n_hidden) for a in (W[i], b[i], gamma[i], beta[i])] + [W[-1], b[-1]]

    m1, m2 = [np.zeros_like(a) for a in params()], [np.zeros_like(a) for a in params()]
    logits = []
    for t, (x, g) in enumerate(zip(xs, gs), start=1):
        saved = []
        for i in range(n_hidden):
            z = x @ W[i] + b[i]
            mu, sigma2 = z.mean(axis=0), z.var(axis=0)
            mean[i] = 0.9 * mean[i] + (1 - 0.9) * mu
            var[i] = 0.9 * var[i] + (1 - 0.9) * sigma2
            std = np.sqrt(sigma2 + 1e-5)
            xhat = (z - mu) / std
            y = gamma[i] * xhat + beta[i]
            relu = y > 0
            drop = (rng.random(y.shape) >= p) / (1.0 - p)
            saved.append((x, xhat, std, relu, drop))
            x = y * relu * drop
        logits.append(x @ W[-1] + b[-1])
        grads = [x.T @ g, g.sum(axis=0)]
        for i in reversed(range(n_hidden)):
            x, xhat, std, relu, drop = saved[i]
            g = g @ W[i + 1].T * drop * relu
            grads_bn = [(g * xhat).sum(axis=0), g.sum(axis=0)]
            g = g * gamma[i]
            g = (g - g.mean(axis=0) - xhat * (g * xhat).mean(axis=0)) / std
            grads[:0] = [x.T @ g, g.sum(axis=0)] + grads_bn
        for j, (a, grad) in enumerate(zip(params(), grads)):
            m1[j] = 0.9 * m1[j] + (1 - 0.9) * grad
            m2[j] = 0.999 * m2[j] + (1 - 0.999) * grad**2
            a -= lr * (m1[j] / (1 - 0.9**t)) / (np.sqrt(m2[j] / (1 - 0.999**t)) + 1e-8)
    return logits, params(), list(zip(mean, var))


def trained_mlp(seed: int, n_hidden: int = 1) -> MLP:
    """A 128-hidden MLP with dropout 0.5 whose BatchNorms have running stats
    from train-mode passes and a non-trivial gamma and beta."""
    rng = np.random.default_rng(seed)
    model = mlp_partitioner(8, 16, hidden=128, n_hidden=n_hidden, dropout=0.5, seed=seed)
    for _ in range(3):
        model.forward(rng.normal(2.0, 3.0, size=(64, 8)), train=True)
    for gamma, beta in zip(model.gamma, model.beta):
        gamma[...] = rng.normal(size=128)
        beta[...] = rng.normal(size=128)
    return model


class TestEvalForward:
    """``MLP.forward(x, train=False)``, ``predict_bin``, ``predict_proba`` and
    every slice of a multi-model ``MLP.stack`` are bit-identical to the
    reference forward."""

    MODELS = {"mlp": trained_mlp, "logreg": lambda seed: logistic_regression(8, 16, seed=seed)}

    @pytest.mark.parametrize("arch", sorted(MODELS))
    @pytest.mark.parametrize("n", [1, 16, 4000])
    def test_matches_reference(self, arch, n):
        models = [self.MODELS[arch](seed) for seed in range(3)]
        x = np.random.default_rng(n).normal(2.0, 3.0, size=(n, 8))
        stacked = MLP.stack(models)
        logits, probs = stacked.logits(x), stacked.stacked_proba(x)
        for i, model in enumerate(models):
            ref = reference_logits(model, x)
            assert np.array_equal(model.forward(x, train=False), ref)
            assert np.array_equal(model.predict_bin(x), ref.argmax(axis=1))
            assert np.array_equal(model.predict_proba(x), softmax(ref))
            assert np.array_equal(logits[i], ref)
            assert np.array_equal(probs[i], softmax(ref))

    @pytest.mark.parametrize("n_hidden", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n", [EVAL_ROWS - 1, EVAL_ROWS, EVAL_ROWS + 1, 3 * EVAL_ROWS + 5])
    def test_row_blocks_match_reference(self, n_hidden, k, n):
        """Around the block size, where the forward switches from one block
        to row blocks with a short or one-row-longer last block, every
        entry point equals the one-matmul-per-layer reference."""
        models = [trained_mlp(seed, n_hidden) for seed in range(k)]
        x = np.random.default_rng(n).normal(2.0, 3.0, size=(n, 8))
        stacked = MLP.stack(models)
        logits, probs = stacked.logits(x), stacked.stacked_proba(x)
        for i, model in enumerate(models):
            ref = reference_logits(model, x)
            assert np.array_equal(logits[i], ref)
            assert np.array_equal(probs[i], softmax(ref))
            assert np.array_equal(model.logits(x)[0], ref)
            assert np.array_equal(model.forward(x, train=False), ref)
            assert np.array_equal(model.predict_bin(x), ref.argmax(axis=1))

    def test_one_row_allocates_no_block(self):
        """A one-row forward of a 3-model stack broadcasts its operands: its
        traced peak stays below one (EVAL_ROWS, width) zeros block, which a
        forward of two blocks' rows exceeds."""
        stacked = MLP.stack([trained_mlp(seed) for seed in range(3)])
        x = np.random.default_rng(0).normal(size=(2 * EVAL_ROWS, 8))
        stacked.logits(x[:1])  # caches the eval affine
        block_bytes = EVAL_ROWS * 128 * 8
        peaks = []
        for rows in (x[:1], x):
            tracemalloc.start()
            try:
                stacked.logits(rows)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < block_bytes < peaks[1]

    def test_eval_forward_leaves_training_state(self):
        """The eval forward reads the weights and running stats and writes
        nothing back, so a train-mode step after it is unchanged."""
        model, twin = trained_mlp(0), trained_mlp(0)
        x = np.random.default_rng(1).normal(size=(32, 8))
        model.predict_proba(x)
        assert np.array_equal(model.forward(x, train=True), twin.forward(x, train=True))
        assert np.array_equal(model.mean[0], twin.mean[0])


class TestTrainStep:
    @pytest.mark.parametrize("n_hidden, dropout", [(0, 0.0), (1, 0.1), (2, 0.5)])
    def test_adam_steps_match_reference(self, n_hidden, dropout):
        """Several ``opt.step(model.backward(g))`` steps give bit for bit the
        reference's logits, parameters and running stats, and an eval
        forward between steps reads the current weights."""
        model = mlp_partitioner(8, 4, hidden=16, n_hidden=n_hidden, dropout=dropout, seed=3)
        rng = np.random.default_rng(4)
        xs = [rng.normal(1.0, 2.0, size=(32, 8)) for _ in range(4)]
        gs = [rng.normal(size=(32, 4)) for _ in range(4)]
        logits, params, stats = reference_train(model, xs, gs, lr=0.01)
        opt = Adam(model.params(), lr=0.01)
        for x, g, want in zip(xs, gs, logits):
            assert np.array_equal(model.forward(x, train=True), want)
            opt.step(model.backward(g))
            assert np.array_equal(model.forward(x, train=False), reference_logits(model, x))
        for got, ref in zip(model.params(), params):
            assert np.array_equal(got.reshape(ref.shape), ref)
        for mean, var, (ref_mean, ref_var) in zip(model.mean, model.var, stats):
            assert np.array_equal(mean[0, 0], ref_mean) and np.array_equal(var[0, 0], ref_var)


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
        assert len(model.W) == 1 and not model.gamma
        assert n_parameters(model) == 5 * 2 + 2

    @pytest.mark.parametrize("n_hidden", [1, 2, 3])
    def test_depth(self, n_hidden):
        model = mlp_partitioner(6, 4, hidden=8, n_hidden=n_hidden)
        # Each hidden block: Linear + BN (+ ReLU + Dropout); plus output Linear.
        assert len(model.W) == n_hidden + 1 and len(model.gamma) == n_hidden

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

    def test_trained_model_pickles_without_activations(self, trained_usp):
        """The trained model's ``predict_bin``, which the Spark bin assignment
        broadcasts, pickles to its parameters plus a few KB (running stats,
        their eval affine, the rng): backward released the last batch's
        activations."""
        model = trained_usp.model
        size = sum(p.nbytes for p in model.params())
        assert len(pickle.dumps(model.predict_bin)) < size + 8192


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
