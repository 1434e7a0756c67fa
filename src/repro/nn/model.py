"""Model containers matching the paper's two architectures (§5.2).

- ``mlp_partitioner``: input layer → one hidden layer of 128 units
  (Linear + BatchNorm + ReLU + Dropout(0.1)) → Linear(m) → softmax.
- ``logistic_regression``: a single Linear(d, m) → softmax (m=2 in the
  paper's binary-tree setting).

Both build an :class:`MLP`, whose weight arrays both train and score. A
fitted model is a stack of one; :func:`repro.index.tree.leaf_probs` scores
an :meth:`MLP.stack` of several with one batched matmul per linear layer,
in row blocks of ``EVAL_ROWS`` when the input is longer.
"""
from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.nn.layers import glorot, softmax

# Rows per block of a long eval forward: a 128-wide float64 hidden block is
# 128 KB per model, so it stays in L2 from the first gemm to the output gemm.
EVAL_ROWS = 128


class MLP:
    """``k`` models of one architecture: ``n_hidden`` blocks of Linear,
    BatchNorm, ReLU and Dropout, then a Linear to the logits.

    ``W[i]`` is (k, d_in, d_out) and ``b[i]`` (k, 1, d_out) for each linear
    layer; ``gamma[i]``, ``beta[i]`` and the running ``mean[i]`` and
    ``var[i]`` are (k, 1, width) for each BatchNorm. numpy runs the same gemm
    on every slice of a batched matmul, so each model's slice of a stack's
    output is bit-identical to its forward as a stack of one.

    BatchNorm's eval-mode (scale, shift) is cached. A train forward clears it:
    the running stats change there, and the weights change in the Adam step
    that follows its backward. Code that writes ``gamma``, ``beta``, ``mean``
    or ``var`` outside a train step sets ``_affine`` to None.
    """

    momentum, eps = 0.9, 1e-5

    def __init__(self, W: list, b: list, gamma: list, beta: list, mean: list, var: list,
                 dropout: float = 0.0, rng: np.random.Generator | None = None):
        self.W, self.b = W, b
        self.gamma, self.beta, self.mean, self.var = gamma, beta, mean, var
        self.dropout, self.rng = dropout, rng
        self._affine: list | None = None  # per BatchNorm, its eval-mode (scale, shift)
        self._cache: list | None = None  # the last train forward's activations

    @property
    def d_in(self) -> int:
        return self.W[0].shape[1]

    def params(self) -> list[np.ndarray]:
        """The trainable arrays, layer by layer: W, b, gamma, beta of each
        hidden block, then W, b of the output layer."""
        blocks = zip(self.W, self.b, self.gamma, self.beta)
        return [a for block in blocks for a in block] + [self.W[-1], self.b[-1]]

    # -- forward / backward ------------------------------------------------
    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        """(n, m) logits of the rows of ``x`` by a stack of one: the
        train-mode pass, which keeps what :meth:`backward` needs, or with
        ``train=False`` the eval forward."""
        if not train:
            return self.logits(x)[0]
        self._affine, cache = None, []
        for i, (W, b, gamma, beta) in enumerate(zip(self.W, self.b, self.gamma, self.beta)):
            z = np.matmul(x, W)
            z += b
            mu, var = z.mean(axis=1, keepdims=True), z.var(axis=1, keepdims=True)
            self.mean[i] = self.momentum * self.mean[i] + (1 - self.momentum) * mu
            self.var[i] = self.momentum * self.var[i] + (1 - self.momentum) * var
            std = np.sqrt(var + self.eps)
            xhat = (z - mu) / std
            z = gamma * xhat + beta
            relu, p = z > 0, self.dropout
            drop = (self.rng.random(z.shape) >= p) / (1.0 - p) if p else 1.0
            cache.append((x, xhat, std, relu, drop))
            x = z * relu * drop
        self._cache = cache + [x]
        z = np.matmul(x, self.W[-1])
        z += self.b[-1]
        return z[0]

    def backward(self, g: np.ndarray) -> list[np.ndarray]:
        """Gradients of :meth:`params` for the (n, m) logit gradient ``g`` of
        the last train forward, in :meth:`params` order. Releases that
        forward's activations, so a trained model holds none."""
        *blocks, x = self._cache
        self._cache = None
        g = g[None]
        grads = [np.matmul(x.swapaxes(-1, -2), g), g.sum(axis=1, keepdims=True)]
        for i in reversed(range(len(blocks))):
            x, xhat, std, relu, drop = blocks[i]
            g = np.matmul(g, self.W[i + 1].swapaxes(-1, -2)) * drop * relu
            grads[:0] = [(g * xhat).sum(axis=1, keepdims=True), g.sum(axis=1, keepdims=True)]
            g = g * self.gamma[i]
            g = (g - g.mean(axis=1, keepdims=True)
                 - xhat * (g * xhat).mean(axis=1, keepdims=True)) / std
            grads[:0] = [np.matmul(x.swapaxes(-1, -2), g), g.sum(axis=1, keepdims=True)]
        return grads

    # -- eval mode -----------------------------------------------------------
    def eval_affine(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per BatchNorm, the (scale, shift) of eval mode, where the running
        stats are constants and the layer is ``x * scale + shift``."""
        if self._affine is None:
            scales = [gamma / np.sqrt(var + self.eps) for gamma, var in zip(self.gamma, self.var)]
            self._affine = [(scale, beta - mean * scale)
                            for scale, beta, mean in zip(scales, self.beta, self.mean)]
        return self._affine

    def logits(self, x: np.ndarray) -> np.ndarray:
        """(k, n, m): each model's eval-mode logits for the rows of ``x``:
        Linear, the BatchNorm affine, ReLU, Dropout the identity. Inputs
        longer than ``EVAL_ROWS`` run in blocks of that many rows, with the
        bias, scale, shift and ReLU's zeros tiled to the block's shape once
        per call: numpy loops over a same-shape operand in one pass, over a
        broadcast row or a scalar row by row, with the same bits. The last
        block takes the rest, broadcast, and is never one row: a one-row
        matmul runs as a gemv, whose sums can differ from the gemm's."""
        x = np.asarray(x, dtype=np.float64)
        n, affine = len(x), self.eval_affine()
        if n <= EVAL_ROWS:
            out = np.matmul(self._hidden(x, self.b, affine, repeat(0.0)), self.W[-1])
        else:
            b = [np.repeat(a, EVAL_ROWS, axis=1) for a in self.b[:-1]]
            tiled = (b, [tuple(np.repeat(a, EVAL_ROWS, axis=1) for a in p) for p in affine],
                     [np.zeros(a.shape[1:]) for a in b])
            out = np.empty((len(self.W[-1]), n, self.W[-1].shape[-1]))
            for lo in range(0, n - 1, EVAL_ROWS):
                hi = n if n - lo <= EVAL_ROWS + 1 else lo + EVAL_ROWS
                ops = tiled if hi - lo == EVAL_ROWS else (self.b, affine, repeat(0.0))
                np.matmul(self._hidden(x[lo:hi], *ops), self.W[-1], out=out[:, lo:hi])
        out += self.b[-1]
        return out

    def _hidden(self, x, b, affine, floors) -> np.ndarray:
        """One block's hidden layers: the gemm, then in place the bias, the
        BatchNorm (scale, shift) and ReLU, the maximum with its floor."""
        for W, bias, (scale, shift), floor in zip(self.W, b, affine, floors):
            x = np.matmul(x, W)
            x += bias
            x *= scale
            x += shift
            np.maximum(x, floor, out=x)
        return x

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode bin probability distribution M(p) (Eq. 6) of a stack of one."""
        return softmax(self.forward(x, train=False))

    def predict_bin(self, x: np.ndarray) -> np.ndarray:
        """Hard bin assignment by a stack of one: the argmax of the eval-mode
        logits, not of their softmax, which can round distinct logits to a tie."""
        return np.argmax(self.forward(x, train=False), axis=1)

    def stacked_proba(self, x: np.ndarray) -> np.ndarray:
        """(k, n, m): each model's bin distribution for the rows of ``x``."""
        x = self.logits(x)
        x -= x.max(axis=-1, keepdims=True)  # softmax, the same steps as layers.softmax
        np.exp(x, out=x)
        x /= x.sum(axis=-1, keepdims=True)
        return x

    @staticmethod
    def stack(models: list[MLP]) -> MLP:
        """One stack of ``models``, their arrays concatenated along the model
        axis, eval-mode affines included; ValueError when their architectures
        or widths differ."""
        shapes = {tuple(a.shape[1:] for a in mdl.params()) for mdl in models}
        if len(shapes) != 1:
            raise ValueError(f"cannot stack models of {len(shapes)} architectures")
        arrays = [[np.concatenate(a) for a in zip(*(getattr(mdl, name) for mdl in models))]
                  for name in ("W", "b", "gamma", "beta", "mean", "var")]
        out = MLP(*arrays)
        out._affine = [tuple(map(np.concatenate, zip(*pairs)))
                       for pairs in zip(*(mdl.eval_affine() for mdl in models))]
        return out


def mlp_partitioner(
    d: int, m: int, *, hidden: int = 128, n_hidden: int = 1, dropout: float = 0.1, seed: int = 0
) -> MLP:
    """The paper's neural-network partitioner (§5.2, "Neural Networks").

    ``n_hidden=1`` is USP's architecture; Neural LSH's original uses wider
    and deeper stacks (``hidden=512, n_hidden=3`` reproduces its Table 2
    parameter count). ValueError when ``dropout`` is outside [0, 1).
    """
    if not 0.0 <= dropout < 1.0:
        raise ValueError(f"dropout must be in [0, 1), got {dropout}")
    rng = np.random.default_rng(seed)
    widths = [d] + [hidden] * n_hidden + [m]
    W = [glorot(rng, a, b)[None] for a, b in zip(widths, widths[1:])]
    b = [np.zeros((1, 1, n)) for n in widths[1:]]
    bn = [[fill((1, 1, hidden)) for _ in range(n_hidden)]
          for fill in (np.ones, np.zeros, np.zeros, np.ones)]  # gamma, beta, mean, var
    return MLP(W, b, *bn, dropout=dropout, rng=rng)


def logistic_regression(d: int, m: int = 2, *, seed: int = 0) -> MLP:
    """The paper's logistic-regression partitioner (one linear layer + softmax)."""
    return mlp_partitioner(d, m, n_hidden=0, dropout=0.0, seed=seed)


def n_parameters(model: MLP) -> int:
    """Count of learnable parameters (Table 2)."""
    return int(sum(p.size for p in model.params()))
