"""Numerical-gradient checks and behavior tests for the NN substrate layers.

The layers' ``forward`` is the train-mode pass; their eval-mode behaviour is
checked through the one eval forward, ``MLP.forward(x, train=False)``, of a
model whose first layer is an identity ``Linear``."""
import numpy as np
import pytest

from repro.nn.layers import BatchNorm1d, Dropout, Linear, Param, ReLU, glorot, softmax
from repro.nn.model import MLP


def eval_forward(layer, x):
    """``layer`` in eval mode: the eval forward of an identity ``Linear``
    (``x @ I`` is exact) followed by ``layer``."""
    lin = Linear(x.shape[1], x.shape[1], np.random.default_rng(0))
    lin.W.value = np.eye(x.shape[1])
    return MLP([lin, layer]).forward(x, train=False)


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
        rng = np.random.default_rng(1)
        lin = Linear(din, dout, rng)
        x = rng.normal(size=(nb, din))
        y = lin.forward(x)
        np.testing.assert_allclose(y, x @ lin.W.value + lin.b.value)

    def test_gradients_numeric(self):
        rng = np.random.default_rng(2)
        lin = Linear(4, 3, rng)
        x = rng.normal(size=(6, 4))
        g_out = rng.normal(size=(6, 3))

        def loss():
            return float((lin.forward(x) * g_out).sum())

        loss()
        lin.W.grad[...] = 0
        lin.b.grad[...] = 0
        gx = lin.backward(g_out)
        np.testing.assert_allclose(lin.W.grad, numeric_grad(loss, lin.W.value), atol=1e-5)
        np.testing.assert_allclose(lin.b.grad, numeric_grad(loss, lin.b.value), atol=1e-5)
        np.testing.assert_allclose(gx, numeric_grad(loss, x), atol=1e-5)

    def test_grad_accumulates(self):
        rng = np.random.default_rng(3)
        lin = Linear(2, 2, rng)
        x = rng.normal(size=(3, 2))
        g = rng.normal(size=(3, 2))
        lin.forward(x)
        lin.backward(g)
        once = lin.W.grad.copy()
        lin.forward(x)
        lin.backward(g)
        np.testing.assert_allclose(lin.W.grad, 2 * once)


class TestReLU:
    def test_forward_backward(self):
        r = ReLU()
        x = np.array([[-1.0, 2.0], [3.0, -4.0]])
        y = r.forward(x)
        np.testing.assert_array_equal(y, [[0, 2], [3, 0]])
        g = r.backward(np.ones_like(x))
        np.testing.assert_array_equal(g, [[0, 1], [1, 0]])

    def test_eval_matches_train(self):
        x = np.random.default_rng(12).normal(size=(30, 6))
        x[0, 0] = 0.0
        np.testing.assert_array_equal(eval_forward(ReLU(), x), ReLU().forward(x))


class TestDropout:
    def test_eval_mode_identity(self):
        rng = np.random.default_rng(4)
        d = Dropout(0.5, rng)
        x = rng.normal(size=(10, 10))
        np.testing.assert_array_equal(eval_forward(d, x), x)

    def test_train_mode_scales(self):
        rng = np.random.default_rng(5)
        d = Dropout(0.5, rng)
        x = np.ones((2000, 10))
        y = d.forward(x)
        kept = y[y > 0]
        np.testing.assert_allclose(kept, 2.0)  # inverted scaling 1/(1-p)
        assert abs((y > 0).mean() - 0.5) < 0.05

    def test_zero_p_identity(self):
        rng = np.random.default_rng(6)
        d = Dropout(0.0, rng)
        x = rng.normal(size=(4, 4))
        np.testing.assert_array_equal(d.forward(x), x)

    def test_backward_uses_same_mask(self):
        rng = np.random.default_rng(7)
        d = Dropout(0.3, rng)
        x = np.ones((5, 5))
        y = d.forward(x)
        g = d.backward(np.ones_like(x))
        np.testing.assert_array_equal((y > 0), (g > 0))


class TestBatchNorm:
    def test_train_normalizes(self):
        bn = BatchNorm1d(4)
        rng = np.random.default_rng(8)
        x = rng.normal(5.0, 3.0, size=(200, 4))
        y = bn.forward(x)
        np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-7)
        np.testing.assert_allclose(y.std(axis=0), 1.0, atol=1e-2)

    def test_eval_uses_running_stats(self):
        bn = BatchNorm1d(3, momentum=0.0)  # running stats = last batch
        rng = np.random.default_rng(9)
        x = rng.normal(2.0, 2.0, size=(500, 3))
        bn.forward(x)
        y = eval_forward(bn, x)
        np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-2)

    def test_eval_is_affine_of_running_stats(self):
        bn = BatchNorm1d(5)
        rng = np.random.default_rng(11)
        bn.running_mean = rng.normal(size=5)
        bn.running_var = rng.random(5) + 0.1
        bn.gamma.value = rng.normal(size=5)
        bn.beta.value = rng.normal(size=5)
        x = rng.normal(3.0, 2.0, size=(40, 5))
        expect = (x - bn.running_mean) / np.sqrt(bn.running_var + bn.eps) * bn.gamma.value
        np.testing.assert_allclose(
            eval_forward(bn, x), expect + bn.beta.value, rtol=1e-12
        )

    def test_gradient_numeric(self):
        bn = BatchNorm1d(3)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(12, 3))
        g_out = rng.normal(size=(12, 3))

        def loss():
            return float((bn.forward(x) * g_out).sum())

        loss()
        bn.gamma.grad[...] = 0
        bn.beta.grad[...] = 0
        gx = bn.backward(g_out)
        np.testing.assert_allclose(gx, numeric_grad(loss, x), atol=1e-4)
        np.testing.assert_allclose(bn.gamma.grad, numeric_grad(loss, bn.gamma.value), atol=1e-4)
        np.testing.assert_allclose(bn.beta.grad, numeric_grad(loss, bn.beta.value), atol=1e-4)


class TestParam:
    def test_grad_shape(self):
        p = Param(np.zeros((3, 2)))
        assert p.grad.shape == (3, 2)
        assert (p.grad == 0).all()
