"""Optimizer tests: Adam minimizes a simple objective, matches its
reference update on hand-computed steps, and its in-place step equals the
step written with a new array per operation."""
import numpy as np
import pytest

from repro.nn.optim import Adam


class OracleAdam(Adam):
    """Adam's step with a new array per operation and the moments rebound,
    as it was written before the in-place step: the oracle it must equal
    bit for bit."""

    def step(self, grads: list[np.ndarray]) -> None:
        self.t += 1
        for i, (p, g) in enumerate(zip(self.params, grads, strict=True)):
            self.m[i] = self.B1 * self.m[i] + (1 - self.B1) * g
            self.v[i] = self.B2 * self.v[i] + (1 - self.B2) * g**2
            mhat = self.m[i] / (1 - self.B1**self.t)
            vhat = self.v[i] / (1 - self.B2**self.t)
            p -= self.lr * mhat / (np.sqrt(vhat) + self.EPS)


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


class TestInPlaceStep:
    @pytest.mark.parametrize("lr", [1e-3, 0.1])
    def test_equals_oracle(self, lr):
        """30 steps on parameters and gradients of mixed shapes and scales,
        zeros and sign changes included: every parameter and moment is
        equal to the oracle's after every step."""
        rng = np.random.default_rng(11)
        shapes = [(1, 7, 5), (1, 1, 5), (3,), (2, 4)]
        params = [rng.normal(size=s) for s in shapes]
        twins = [p.copy() for p in params]
        opt, oracle = Adam(params, lr=lr), OracleAdam(twins, lr=lr)
        for t in range(30):
            grads = [rng.normal(scale=10.0 ** rng.integers(-6, 3), size=s) for s in shapes]
            grads[t % len(grads)][..., 0] = 0.0
            opt.step(grads)
            oracle.step(grads)
            for got, want in zip(params + opt.m + opt.v, twins + oracle.m + oracle.v):
                assert np.array_equal(got, want)
