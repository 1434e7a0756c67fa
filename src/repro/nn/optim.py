"""The optimizer of the numpy NN substrate. The paper trains with Adam (§5.2)."""
from __future__ import annotations

import numpy as np


class Adam:
    """Adam (Kingma & Ba) with bias correction, at PyTorch's default betas
    and eps. Updates the arrays of ``params`` in place.

    The moments are updated in place too, and each parameter's step is
    built in two scratch arrays: the same operations in the same order as
    ``m = B1·m + (1 − B1)·g``, ``v = B2·v + (1 − B2)·g²`` and
    ``p −= lr·m̂ / (√v̂ + eps)``."""

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
        c1, c2 = 1 - self.B1**self.t, 1 - self.B2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v, strict=True):
            delta = np.multiply(g, 1 - self.B1)
            m *= self.B1
            m += delta
            np.multiply(g, g, out=delta)
            delta *= 1 - self.B2
            v *= self.B2
            v += delta
            den = np.divide(v, c2)
            np.sqrt(den, out=den)
            den += self.EPS
            np.divide(m, c1, out=delta)
            delta *= self.lr
            delta /= den
            p -= delta
