"""The optimizer of the numpy NN substrate. The paper trains with Adam (§5.2)."""
from __future__ import annotations

import numpy as np


class Adam:
    """Adam (Kingma & Ba) with bias correction, at PyTorch's default betas
    and eps. Updates the arrays of ``params`` in place."""

    B1, B2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: list[np.ndarray], lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, grads: list[np.ndarray]) -> None:
        """One update from ``grads``, one gradient per parameter, in order."""
        self.t += 1
        for i, (p, g) in enumerate(zip(self.params, grads, strict=True)):
            self.m[i] = self.B1 * self.m[i] + (1 - self.B1) * g
            self.v[i] = self.B2 * self.v[i] + (1 - self.B2) * g**2
            mhat = self.m[i] / (1 - self.B1**self.t)
            vhat = self.v[i] / (1 - self.B2**self.t)
            p -= self.lr * mhat / (np.sqrt(vhat) + self.EPS)
