"""Optimizer tests: Adam minimizes a simple objective and matches its
reference update on hand-computed steps."""
import numpy as np
import pytest

from repro.nn.optim import Adam


def quadratic_steps(lr, steps):
    p = np.array([5.0, -3.0])
    opt = Adam([p], lr=lr)
    for _ in range(steps):
        opt.step([2 * p])  # d/dp ||p||^2
    return p


class TestAdam:
    def test_minimizes_quadratic(self):
        assert np.abs(quadratic_steps(0.1, 400)).max() < 1e-3

    def test_first_step_magnitude(self):
        """With bias correction, the first Adam step is ≈ lr·sign(grad)."""
        p = np.array([1.0])
        Adam([p], lr=0.01).step([np.array([7.0])])
        np.testing.assert_allclose(p, 1.0 - 0.01, atol=1e-6)

    def test_matches_reference_two_steps(self):
        p = np.array([2.0])
        opt = Adam([p], lr=0.1)
        grads = [3.0, -1.0]
        # Reference implementation.
        m = v = 0.0
        ref = 2.0
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref -= 0.1 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        for g in grads:
            opt.step([np.array([g])])
        np.testing.assert_allclose(p, ref, atol=1e-12)

    @pytest.mark.parametrize("shape", [(3,), (2, 4)])
    def test_state_shapes(self, shape):
        opt = Adam([np.zeros(shape)])
        assert opt.m[0].shape == shape and opt.v[0].shape == shape

    def test_rejects_missing_gradient(self):
        opt = Adam([np.zeros(2), np.zeros(3)])
        with pytest.raises(ValueError):
            opt.step([np.ones(2)])
