"""Loss-function tests: analytic gradients vs numeric, Eq. 9/10/12/13
semantics, and the ensembling weight term."""
import numpy as np
import pytest

from repro.core.loss import (
    balance_loss_and_grad,
    neighbor_bin_distribution,
    quality_loss_and_grad,
    usp_loss_and_grad,
)
from repro.nn.layers import softmax


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


class TestNeighborBinDistribution:
    def test_proportions(self):
        # 2 points, 3 neighbors each, 2 bins; hard assignments by argmax.
        nb = np.array(
            [
                [[0.9, 0.1], [0.8, 0.2], [0.3, 0.7]],   # bins 0,0,1 → (2/3, 1/3)
                [[0.1, 0.9], [0.2, 0.8], [0.4, 0.6]],   # bins 1,1,1 → (0, 1)
            ]
        )
        out = neighbor_bin_distribution(nb.argmax(axis=2), 2)
        np.testing.assert_allclose(out, [[2 / 3, 1 / 3], [0.0, 1.0]])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        nb = softmax(rng.normal(size=(5 * 4, 3)).reshape(-1, 3)).reshape(5, 4, 3)
        np.testing.assert_allclose(
            neighbor_bin_distribution(nb.argmax(axis=2), 3).sum(axis=1), 1.0
        )


class TestQualityLoss:
    def test_zero_when_match(self):
        """CE is minimal (= target entropy) when probs equal targets; for
        one-hot targets and matching confident probs, loss → 0."""
        logits = np.array([[20.0, 0.0], [0.0, 20.0]])
        targets = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, grad = quality_loss_and_grad(logits, targets)
        assert loss < 1e-6
        np.testing.assert_allclose(grad, 0.0, atol=1e-6)

    def test_gradient_numeric(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(6, 4))
        targets = softmax(rng.normal(size=(6, 4)))

        def f():
            return quality_loss_and_grad(logits, targets)[0]

        _, grad = quality_loss_and_grad(logits, targets)
        np.testing.assert_allclose(grad, numeric_grad(f, logits), atol=1e-5)

    def test_weighted_gradient_numeric(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(5, 3))
        targets = softmax(rng.normal(size=(5, 3)))
        w = rng.random(5) + 0.1

        def f():
            return quality_loss_and_grad(logits, targets, w)[0]

        _, grad = quality_loss_and_grad(logits, targets, w)
        np.testing.assert_allclose(grad, numeric_grad(f, logits), atol=1e-5)

    def test_zero_weight_point_has_zero_grad(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(4, 3))
        targets = softmax(rng.normal(size=(4, 3)))
        w = np.array([1.0, 0.0, 1.0, 1.0])
        _, grad = quality_loss_and_grad(logits, targets, w)
        np.testing.assert_allclose(grad[1], 0.0)

    def test_weight_scale_invariance(self):
        """Scaling all weights leaves loss and grad unchanged (normalized)."""
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(4, 3))
        targets = softmax(rng.normal(size=(4, 3)))
        w = rng.random(4) + 0.1
        l1, g1 = quality_loss_and_grad(logits, targets, w)
        l2, g2 = quality_loss_and_grad(logits, targets, w * 17.0)
        np.testing.assert_allclose(l1, l2)
        np.testing.assert_allclose(g1, g2)


class TestBalanceLoss:
    def test_value_uniform(self):
        """Perfectly balanced hard assignment: every selected entry ≈ 1 and
        the window has n_b entries → S ≈ -1."""
        n, m = 12, 3
        logits = np.full((n, m), -20.0)
        for i in range(n):
            logits[i, i % m] = 20.0
        loss, _ = balance_loss_and_grad(logits, m)
        assert loss == pytest.approx(-1.0, abs=1e-6)

    def test_value_collapsed(self):
        """All mass in one bin: only n/m entries of that column are high →
        S ≈ -(n/m · 1 + rest tiny)/n ≈ -1/m."""
        n, m = 12, 3
        logits = np.full((n, m), 0.0)
        logits[:, 0] = 20.0
        loss, _ = balance_loss_and_grad(logits, m)
        assert loss == pytest.approx(-1.0 / m, abs=0.01)

    def test_balanced_beats_collapsed(self):
        n, m = 20, 4
        bal = np.full((n, m), -10.0)
        for i in range(n):
            bal[i, i % m] = 10.0
        col = np.full((n, m), -10.0)
        col[:, 0] = 10.0
        assert balance_loss_and_grad(bal, m)[0] < balance_loss_and_grad(col, m)[0]

    def test_gradient_numeric(self):
        """With the log-barrier disabled the analytic gradient matches the
        numeric gradient of the Eq. 13 value exactly."""
        rng = np.random.default_rng(5)
        # Distinct values so top-n/m selection is stable under ±eps.
        logits = rng.normal(size=(8, 3)) * 3

        def f():
            return balance_loss_and_grad(logits, 3, log_barrier=0.0)[0]

        _, grad = balance_loss_and_grad(logits, 3, log_barrier=0.0)
        np.testing.assert_allclose(grad, numeric_grad(f, logits), atol=1e-5)

    def test_log_barrier_resurrects_dead_bin(self):
        """A collapsed column gets a much stronger pull with the barrier on."""
        logits = np.zeros((9, 3))
        logits[:, 2] = -15.0  # bin 2 dead
        _, g0 = balance_loss_and_grad(logits, 3, log_barrier=0.0)
        _, g1 = balance_loss_and_grad(logits, 3, log_barrier=0.05)
        # With the barrier there is a solid pull up on the dead bin's logits
        # (negative gradient); without it the pull is numerically zero.
        assert g1[:, 2].min() < -1e-3
        assert abs(g0[:, 2]).max() < 1e-12

    def test_window_size(self):
        """Exactly ⌈n/m⌉ entries per column carry gradient through selection."""
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(9, 3)) * 5
        probs = softmax(logits)
        _, grad = balance_loss_and_grad(logits, 3)
        # Backprop through softmax spreads gradient; check loss value uses 3 per column.
        t = 3
        expect = -sum(np.sort(probs[:, j])[-t:].sum() for j in range(3)) / 9
        assert balance_loss_and_grad(logits, 3)[0] == pytest.approx(expect)


class TestCombined:
    def test_combination_linear(self):
        self.check_combination(weighted=False)

    def test_combination_linear_weighted(self):
        self.check_combination(weighted=True)

    @staticmethod
    def check_combination(weighted):
        """One shared softmax gives exactly the two terms' own values."""
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(6, 3)) * 2
        targets = softmax(rng.normal(size=(6, 3)))
        w = rng.uniform(0.5, 3.0, size=6) if weighted else None
        u, gu = quality_loss_and_grad(logits, targets, w)
        s, gs = balance_loss_and_grad(logits, 3)
        for eta in (0.0, 1.0, 7.0):
            u2, s2, g = usp_loss_and_grad(logits, targets, eta, w)
            assert (u2, s2) == (u, s)
            np.testing.assert_array_equal(g, gu + eta * gs)
