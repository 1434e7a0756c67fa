"""Numerical-gradient checks and behaviour tests of the MLP's layers.

An :class:`MLP` runs its layers inline, so each layer is checked through a
model: a logistic regression for Linear alone, and for the hidden block a
model whose linear layers are the identity (``x @ I`` is exact), so its
logits are the block's output, Dropout(ReLU(BatchNorm(x)))."""
import numpy as np
import pytest

from repro.nn.layers import glorot, softmax
from repro.nn.model import logistic_regression, mlp_partitioner


def block(d, *, dropout=0.0, seed=0):
    """A one-block MLP of width ``d`` whose linear layers are the identity."""
    model = mlp_partitioner(d, d, hidden=d, dropout=dropout, seed=seed)
    for W in model.W:
        W[0] = np.eye(d)
    return model


def numeric_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        old = x[i]
        x[i] = old + eps
        fp = f()
        x[i] = old - eps
        fm = f()
        x[i] = old
        g[i] = (fp - fm) / (2 * eps)
        it.iternext()
    return g


def check_gradients(n_hidden, dropout, atol):
    """``backward``'s gradient of every parameter, and through the first
    layer's that of the input, against central differences of the loss
    ``sum(logits * g_out)``. The rng is re-seeded before every train
    forward, so each one draws the same dropout mask."""
    rng = np.random.default_rng(n_hidden)
    model = mlp_partitioner(4, 3, hidden=5, n_hidden=n_hidden, dropout=dropout, seed=1)
    x = rng.normal(size=(12, 4))
    g_out = rng.normal(size=(12, 3))

    def loss():
        model.rng = np.random.default_rng(7)
        return float((model.forward(x, train=True) * g_out).sum())

    loss()
    grads = model.backward(g_out)
    assert len(grads) == len(model.params())
    for p, g in zip(model.params(), grads):
        np.testing.assert_allclose(g, numeric_grad(loss, p), atol=atol)
    # The first layer is z = x W + b, so x.T dL/dx = dL/dW W.T.
    W = model.W[0][0]
    np.testing.assert_allclose(x.T @ numeric_grad(loss, x), grads[0][0] @ W.T, atol=atol)


class TestSoftmax:
    @pytest.mark.parametrize("shape", [(1, 2), (5, 3), (7, 16)])
    def test_rows_sum_to_one(self, shape):
        rng = np.random.default_rng(0)
        p = softmax(rng.normal(size=shape) * 10)
        np.testing.assert_allclose(p.sum(axis=1), 1.0)
        assert (p >= 0).all()

    def test_shift_invariance(self):
        z = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(softmax(z), softmax(z + 100.0))

    def test_extreme_values_stable(self):
        p = softmax(np.array([[1e4, -1e4, 0.0]]))
        assert np.isfinite(p).all()


class TestGlorot:
    def test_limit(self):
        rng = np.random.default_rng(0)
        w = glorot(rng, 100, 50)
        lim = np.sqrt(6.0 / 150)
        assert w.shape == (100, 50)
        assert np.abs(w).max() <= lim


class TestLinear:
    @pytest.mark.parametrize("din,dout,nb", [(3, 4, 5), (7, 2, 1), (1, 1, 8)])
    def test_forward(self, din, dout, nb):
        lin = logistic_regression(din, dout, seed=1)
        x = np.random.default_rng(1).normal(size=(nb, din))
        expect = x @ lin.W[0][0] + lin.b[0][0]
        np.testing.assert_allclose(lin.forward(x, train=True), expect)
        np.testing.assert_allclose(lin.forward(x, train=False), expect)

    def test_gradients_numeric(self):
        check_gradients(0, 0.0, atol=1e-5)

    def test_grad_accumulates(self):
        """A batch's gradients are the sums of its rows' gradients."""
        lin = logistic_regression(2, 2, seed=3)
        rng = np.random.default_rng(3)
        x, g = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        lin.forward(x, train=True)
        batch = lin.backward(g)
        rows = []
        for i in range(3):
            lin.forward(x[i:i + 1], train=True)
            rows.append(lin.backward(g[i:i + 1]))
        for got, per_row in zip(batch, zip(*rows)):
            np.testing.assert_allclose(got, sum(per_row))


class TestReLU:
    def test_forward_backward(self):
        """Train mode clamps BatchNorm's output at 0 and passes gradient only
        where it is positive."""
        model = block(2)
        x = np.array([[-1.0, 2.0], [3.0, -4.0], [0.5, 0.5]])
        y = model.forward(x, train=True)
        xhat = (x - x.mean(axis=0)) / np.sqrt(x.var(axis=0) + model.eps)
        np.testing.assert_allclose(y, np.maximum(xhat, 0.0), rtol=1e-12)
        gamma_grad, beta_grad = model.backward(np.ones_like(x))[2:4]
        np.testing.assert_array_equal(beta_grad[0, 0], (xhat > 0).sum(axis=0))
        np.testing.assert_allclose(gamma_grad[0, 0], np.maximum(xhat, 0.0).sum(axis=0))

    def test_eval_matches_train(self):
        """With the running stats set to a batch's (momentum 0), eval mode
        gives that batch's train-mode output, zeros in the same places."""
        model = block(6)
        model.momentum = 0.0
        x = np.random.default_rng(12).normal(size=(30, 6))
        train = model.forward(x, train=True)
        evaluated = model.forward(x, train=False)
        np.testing.assert_allclose(evaluated, train, atol=1e-12)
        np.testing.assert_array_equal(evaluated > 0, train > 0)


class TestDropout:
    def test_eval_mode_identity(self):
        x = np.random.default_rng(4).normal(size=(10, 10))
        np.testing.assert_array_equal(block(10, dropout=0.5).forward(x, train=False),
                                      block(10).forward(x, train=False))

    def test_train_mode_scales(self):
        model = block(10, dropout=0.5)
        model.beta[0][...] = 1.0  # constant columns normalize to 0; the block outputs 1
        y = model.forward(np.ones((2000, 10)), train=True)
        kept = y[y > 0]
        np.testing.assert_allclose(kept, 2.0)  # inverted scaling 1/(1-p)
        assert abs((y > 0).mean() - 0.5) < 0.05

    def test_zero_p_identity(self):
        """Without dropout a train forward is deterministic: ReLU(BatchNorm(x))."""
        model = block(4)
        x = np.random.default_rng(6).normal(size=(4, 4))
        y = model.forward(x, train=True)
        xhat = (x - x.mean(axis=0)) / np.sqrt(x.var(axis=0) + model.eps)
        np.testing.assert_allclose(y, np.maximum(xhat, 0.0), rtol=1e-12)
        np.testing.assert_array_equal(model.forward(x, train=True), y)

    def test_backward_uses_same_mask(self):
        model = block(5, dropout=0.3)
        model.beta[0][...] = 1.0
        y = model.forward(np.ones((50, 5)), train=True)
        beta_grad = model.backward(np.ones_like(y))[3]
        np.testing.assert_allclose(beta_grad[0, 0], y.sum(axis=0))  # y is the kept mask


class TestBatchNorm:
    def test_train_normalizes(self):
        model = block(4)
        model.beta[0][...] = 10.0  # shift past ReLU's clamp
        x = np.random.default_rng(8).normal(5.0, 3.0, size=(200, 4))
        y = model.forward(x, train=True)
        np.testing.assert_allclose(y.mean(axis=0), 10.0, atol=1e-7)
        np.testing.assert_allclose(y.std(axis=0), 1.0, atol=1e-2)

    def test_eval_uses_running_stats(self):
        model = block(3)
        model.momentum = 0.0  # running stats = last batch
        model.beta[0][...] = 10.0
        x = np.random.default_rng(9).normal(2.0, 2.0, size=(500, 3))
        model.forward(x, train=True)
        np.testing.assert_allclose(model.forward(x, train=False).mean(axis=0), 10.0, atol=1e-2)

    def test_eval_is_affine_of_running_stats(self):
        model = block(5)
        rng = np.random.default_rng(11)
        for a, values in ((model.mean, rng.normal(size=5)), (model.var, rng.random(5) + 0.1),
                          (model.gamma, rng.normal(size=5)), (model.beta, rng.normal(size=5))):
            a[0][...] = values
        x = rng.normal(3.0, 2.0, size=(40, 5))
        mean, var, gamma, beta = (a[0][0, 0] for a in (model.mean, model.var, model.gamma,
                                                         model.beta))
        expect = (x - mean) / np.sqrt(var + model.eps) * gamma + beta
        np.testing.assert_allclose(model.forward(x, train=False), np.maximum(expect, 0.0),
                                   rtol=1e-12, atol=1e-15)

    def test_gradient_numeric(self):
        """Every parameter of one and two BatchNorm blocks, without dropout
        and with dropout 0.5."""
        for n_hidden in (1, 2):
            for dropout in (0.0, 0.5):
                check_gradients(n_hidden, dropout, atol=1e-4)


class TestParam:
    def test_grad_shape(self):
        """``backward`` gives one gradient per parameter, of its shape, and
        the parameters carry the model axis."""
        model = mlp_partitioner(3, 2, hidden=4, n_hidden=2)
        model.forward(np.random.default_rng(0).normal(size=(6, 3)), train=True)
        grads = model.backward(np.ones((6, 2)))
        assert [g.shape for g in grads] == [p.shape for p in model.params()]
        assert {p.shape[0] for p in model.params()} == {1}
