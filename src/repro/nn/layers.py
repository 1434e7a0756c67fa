"""Layers with manual forward/backward passes, for training only.

Every layer's ``forward`` is the train-mode pass: it caches what its
backward pass needs, and exposes trainable tensors as :class:`Param` objects
(value + grad), which the optimizers in :mod:`repro.nn.optim` update in
place. Eval mode lives in one place, :class:`repro.nn.model.StackedMLP`,
which reads each layer's weights (and :meth:`BatchNorm1d.eval_affine`).
"""
from __future__ import annotations

import numpy as np


class Param:
    """A trainable tensor: ``value`` updated by the optimizer, ``grad`` filled
    by the layer's backward pass (accumulated; zeroed by the optimizer)."""

    def __init__(self, value: np.ndarray):
        self.value = value
        self.grad = np.zeros_like(value)


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform initialization (paper §5.2)."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def softmax(z: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class Layer:
    """Base layer interface: forward caches, backward returns dL/dinput."""

    def params(self) -> list[Param]:
        return []

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def backward(self, g: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError


class Linear(Layer):
    """Fully connected layer ``y = xW + b`` with Glorot-initialized W."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        self.W = Param(glorot(rng, d_in, d_out))
        self.b = Param(np.zeros(d_out))
        self._x: np.ndarray | None = None

    def params(self) -> list[Param]:
        return [self.W, self.b]

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.W.value + self.b.value

    def backward(self, g: np.ndarray) -> np.ndarray:
        self.W.grad += self._x.T @ g
        self.b.grad += g.sum(axis=0)
        return g @ self.W.value.T


class ReLU(Layer):
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, g: np.ndarray) -> np.ndarray:
        return g * self._mask


class Dropout(Layer):
    """Inverted dropout (paper uses p=0.1); the identity in eval mode."""

    def __init__(self, p: float, rng: np.random.Generator):
        assert 0.0 <= p < 1.0
        self.p = p
        self.rng = rng
        self._mask: np.ndarray | float = 1.0

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.p == 0.0:
            self._mask = 1.0
            return x
        self._mask = (self.rng.random(x.shape) >= self.p) / (1.0 - self.p)
        return x * self._mask

    def backward(self, g: np.ndarray) -> np.ndarray:
        return g * self._mask


class BatchNorm1d(Layer):
    """Batch normalization over features with running stats for eval mode."""

    def __init__(self, d: int, momentum: float = 0.9, eps: float = 1e-5):
        self.gamma = Param(np.ones(d))
        self.beta = Param(np.zeros(d))
        self.momentum = momentum
        self.eps = eps
        self.running_mean = np.zeros(d)
        self.running_var = np.ones(d)

    def params(self) -> list[Param]:
        return [self.gamma, self.beta]

    def eval_affine(self) -> tuple[np.ndarray, np.ndarray]:
        """(scale, shift) of eval mode, where the running stats are constants
        and the layer is the affine map ``x * scale + shift``."""
        scale = self.gamma.value / np.sqrt(self.running_var + self.eps)
        return scale, self.beta.value - self.running_mean * scale

    def forward(self, x: np.ndarray) -> np.ndarray:
        mu = x.mean(axis=0)
        var = x.var(axis=0)
        self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mu
        self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
        self._std = np.sqrt(var + self.eps)
        self._xhat = (x - mu) / self._std
        return self.gamma.value * self._xhat + self.beta.value

    def backward(self, g: np.ndarray) -> np.ndarray:
        xhat, std = self._xhat, self._std
        self.gamma.grad += (g * xhat).sum(axis=0)
        self.beta.grad += g.sum(axis=0)
        gx = g * self.gamma.value
        # Standard batchnorm backward through batch mean/var.
        return (gx - gx.mean(axis=0) - xhat * (gx * xhat).mean(axis=0)) / std
