"""Model containers matching the paper's two architectures (§5.2).

- ``mlp_partitioner``: input layer → one hidden layer of 128 units
  (Linear + BatchNorm + ReLU + Dropout(0.1)) → Linear(m) → softmax.
- ``logistic_regression``: a single Linear(d, m) → softmax (m=2 in the
  paper's binary-tree setting).

The layers of :mod:`repro.nn.layers` train; :class:`StackedMLP` is the one
eval-mode forward, for one model or many of one architecture at once, one
batched matmul per linear layer. ``MLP.forward(x, train=False)``,
``predict_proba`` and ``predict_bin`` run the model as a stack of one, and
:func:`repro.index.tree.leaf_probs` runs one stack per group of model
routers at each depth of a forest.
"""
from __future__ import annotations

import numpy as np

from repro.nn.layers import BatchNorm1d, Dropout, Layer, Linear, ReLU, softmax


class MLP:
    """A sequential stack of layers ending in logits (softmax applied by callers)."""

    def __init__(self, layers: list[Layer]):
        self.layers = layers

    # -- forward / backward ------------------------------------------------
    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        """Logits of the rows of ``x``: the layers' train-mode pass, which
        caches what :meth:`backward` needs, or with ``train=False`` the eval
        forward of the model as a stack of one."""
        if not train:
            return StackedMLP([self]).logits(x)[0]
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, g: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            g = layer.backward(g)
        return g

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode bin probability distribution M(p) (Eq. 6)."""
        return softmax(self.forward(x, train=False))

    def predict_bin(self, x: np.ndarray) -> np.ndarray:
        """Hard bin assignment: the argmax of the eval-mode logits, not of
        their softmax, which can round distinct logits to a tie."""
        return np.argmax(self.forward(x, train=False), axis=1)

    @staticmethod
    def stack(models: list[MLP]) -> StackedMLP:
        return StackedMLP(models)

    # -- parameter access --------------------------------------------------
    def params(self):
        return [p for layer in self.layers for p in layer.params()]


class StackedMLP:
    """The eval-mode forward of one MLP or several of one architecture.

    Built from the layers' current weights: each ``Linear`` becomes a batched
    ``np.matmul`` over weights of shape (models, d_in, d_out), each
    ``BatchNorm1d`` its eval-mode scale and shift, ``ReLU`` a clamp at 0,
    ``Dropout`` the identity. numpy runs the same gemm on every slice of a
    batched matmul, so each slice of the output is bit-identical to that
    model's forward as a stack of one. The forward runs in place on the
    first layer's output, which must be a ``Linear``.
    """

    def __init__(self, models: list[MLP]):
        kinds = {tuple(type(layer) for layer in mdl.layers) for mdl in models}
        if len(kinds) != 1:
            raise ValueError(f"cannot stack models of {len(kinds)} architectures")
        self.ops: list[tuple] = []
        for layers in zip(*(mdl.layers for mdl in models)):
            if isinstance(layers[0], Linear):
                self.ops.append(("linear", np.stack([ly.W.value for ly in layers]),
                                 np.stack([ly.b.value for ly in layers])[:, None]))
            elif isinstance(layers[0], BatchNorm1d):
                scale, shift = zip(*(ly.eval_affine() for ly in layers))
                self.ops.append(("affine", np.stack(scale)[:, None], np.stack(shift)[:, None]))
            elif isinstance(layers[0], ReLU):
                self.ops.append(("relu", None, None))
            # Dropout is the identity in eval mode.
        if self.ops[0][0] != "linear":
            raise ValueError("a stacked model must start with a Linear layer")
        self.d_in = self.ops[0][1].shape[1]

    def logits(self, x: np.ndarray) -> np.ndarray:
        """(models, n, m): each model's eval-mode logits for the rows of ``x``."""
        x = np.asarray(x, dtype=np.float64)
        for kind, a, b in self.ops:  # a linear layer's matmul allocates; the rest runs in place
            if kind == "linear":
                x = np.matmul(x, a)
                x += b
            elif kind == "affine":
                x *= a
                x += b
            else:
                np.maximum(x, 0.0, out=x)
        return x

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """(models, n, m): each model's bin distribution for the rows of ``x``."""
        x = self.logits(x)
        x -= x.max(axis=-1, keepdims=True)  # softmax, the same steps as layers.softmax
        np.exp(x, out=x)
        x /= x.sum(axis=-1, keepdims=True)
        return x


def mlp_partitioner(
    d: int, m: int, *, hidden: int = 128, n_hidden: int = 1, dropout: float = 0.1, seed: int = 0
) -> MLP:
    """The paper's neural-network partitioner (§5.2, "Neural Networks").

    ``n_hidden=1`` is USP's architecture; Neural LSH's original uses wider
    and deeper stacks (``hidden=512, n_hidden=3`` reproduces its Table 2
    parameter count).
    """
    rng = np.random.default_rng(seed)
    layers: list = []
    d_in = d
    for _ in range(n_hidden):
        layers += [Linear(d_in, hidden, rng), BatchNorm1d(hidden), ReLU(), Dropout(dropout, rng)]
        d_in = hidden
    layers.append(Linear(d_in, m, rng))
    return MLP(layers)


def logistic_regression(d: int, m: int = 2, *, seed: int = 0) -> MLP:
    """The paper's logistic-regression partitioner (one linear layer + softmax)."""
    rng = np.random.default_rng(seed)
    return MLP([Linear(d, m, rng)])


def n_parameters(model: MLP) -> int:
    """Count of learnable parameters (Table 2)."""
    return int(sum(p.value.size for p in model.params()))
