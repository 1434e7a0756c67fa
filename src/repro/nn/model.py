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
from math import sqrt

import numpy as np

from repro.nn.layers import glorot, softmax

# Rows per block of a long eval forward: a 128-wide float64 hidden block is
# 128 KB per model, so it stays in L2 from the first gemm to the output gemm.
EVAL_ROWS = 128

# Unit roundoff of float32 and the absolute error of a float32 product that
# underflows, for the bound of ``predict_bin``'s float32 screen.
_U32, _ETA32 = 2.0**-24, 2.0**-150
# The screen certifies no row whose float32 values the bound lets exceed
# this; float32 overflows at 2**128.
_SCREEN_REACH = 2.0**100


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
        """(k, n, m): each model's eval-mode logits for the rows of ``x``, in
        the dtype of the model's arrays: Linear, the BatchNorm affine, ReLU,
        Dropout the identity. Inputs longer than ``EVAL_ROWS`` run in blocks
        of that many rows, with the bias, scale, shift and ReLU's zeros tiled
        to the block's shape once per call: numpy loops over a same-shape
        operand in one pass, over a broadcast row or a scalar row by row,
        with the same bits. The last block takes the rest, broadcast, and is
        never one row: a one-row matmul runs as a gemv, whose sums can differ
        from the gemm's."""
        x = np.asarray(x, dtype=self.W[-1].dtype)
        n, affine = len(x), self.eval_affine()
        if n <= EVAL_ROWS:
            out = np.matmul(self._hidden(x, self.b, affine, repeat(0.0)), self.W[-1])
        else:
            b = [np.repeat(a, EVAL_ROWS, axis=1) for a in self.b[:-1]]
            tiled = (b, [tuple(np.repeat(a, EVAL_ROWS, axis=1) for a in p) for p in affine],
                     [np.zeros_like(a[0]) for a in b])
            out = np.empty((len(self.W[-1]), n, self.W[-1].shape[-1]), dtype=x.dtype)
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
        logits, not of their softmax, which can round distinct logits to a tie.

        The rows are screened by the float32 twin of :meth:`screen`. A row is
        certified when its float32 logits are finite and no other logit is
        within 2B(x) of their maximum, where B(x) bounds the difference
        between the float32 and the float64 logits, each in any summation
        order: its float32 argmax is then the float64 one. The other rows
        get the float64 logits, in a batch of at least 2 rows, so no row is
        scored by a gemv and a row's bin does not depend on its batch."""
        x = np.asarray(x, dtype=np.float64)
        twin, c0, c1, reach = self.screen()
        norm = np.sqrt(np.einsum("ij,ij->i", x, x))
        with np.errstate(over="ignore", invalid="ignore"):
            # Bins on the leading axis: numpy reduces a short last axis row
            # by row, a leading one in whole-row passes.
            z = np.ascontiguousarray(twin.forward(x.astype(np.float32), train=False).T)
            bound = np.where(norm <= reach, c0 * norm + c1, np.inf)
            # The largest float32 at or below max − 2B; a NaN matches nothing.
            floor = z.max(axis=0) - 2.0 * bound
            near = z >= np.nextafter(floor.astype(np.float32), np.float32(-np.inf))
        # A certified row has one logit at or above its floor, its argmax.
        redo = np.flatnonzero(near.sum(axis=0, dtype=np.int32) != 1)
        bins = (np.arange(len(near), dtype=np.float32) @ near).astype(np.intp)
        if len(redo):
            batch = redo if len(redo) > 1 else np.repeat(redo, 2)
            bins[redo] = self.forward(x[batch], train=False).argmax(axis=1)[: len(redo)]
        return bins

    def screen(self) -> tuple[MLP, float, float, float]:
        """``(twin, c0, c1, reach)`` of a stack of one for :meth:`predict_bin`:
        the model with float32 weights and eval-mode affine, and a bound
        B(x) = c0‖x‖ + c1 on |logit32 − logit64| of every logit of a row x
        with ‖x‖ ≤ ``reach``, beyond which a float32 value could overflow.

        Derivation (Higham, *Accuracy and Stability of Numerical Algorithms*,
        §3.1; u = 2⁻²⁴, γ_k = ku / (1 − ku), η = 2⁻¹⁵⁰ the absolute error of
        a float32 product that underflows). Against the exact forward with
        the float64 weights, each layer keeps a bound μ on the 2-norm of its
        exact output and ε on that of the float32 error, both of the form
        a‖x‖ + c, starting from μ = ‖x‖, ε = u‖x‖ + √d·η (x rounded to
        float32). Rounding a weight array to float32 moves each entry by at
        most u|w| + η; Ŵ, b̂, ŝ, t̂ are the rounded arrays.

        - Linear (n → m, W, b), exact y = aW + b: the float32 gemm and the
          bias add err by γ_(n+1)(|â||Ŵ| + |b̂|) + 2nη per output, the
          rounded inputs and weights by (â − a)Ŵ + a(Ŵ − W) + (b̂ − b). With
          Frobenius norms, ‖|a||W|‖ ≤ ‖a‖‖W‖_F, so
          μ' = μ‖W‖_F + ‖b‖ and ε' = ε‖Ŵ‖_F + γ_(n+1)((μ + ε)‖Ŵ‖_F + ‖b̂‖)
          + μ(u‖W‖_F + √(nm)η) + u‖b‖ + √m·η(2n + 1).
        - BatchNorm's affine y·s + t (two roundings, a product that can
          underflow), with ‖y·s‖ ≤ ‖y‖ max|s|: μ' = μ max|s| + ‖t‖ and
          ε' = ε max|ŝ| + γ₂((μ + ε) max|ŝ| + ‖t̂‖) + μ(u max|s| + η)
          + u‖t‖ + 3√m·η.
        - ReLU is 1-Lipschitz and does not grow |·|: μ and ε pass through.
        - The output layer bounds each logit alone, with the largest column
          norm of W in place of ‖W‖_F, max|b| for ‖b‖ and no √m.

        The float64 forward obeys the same recursion with u = 2⁻⁵³, no
        rounded inputs or weights and η = 2⁻¹⁰⁷⁵: term by term at most 2⁻²⁹
        of the float32 bound. The factor 1 + 2⁻¹⁹ covers it and the float64
        rounding of the bound, of ‖x‖ and of the logit gap. The bounds
        assume no overflow: ``reach`` keeps the sum of every layer's
        |â||Ŵ| + |b̂| and (|ŷ| + ε)|ŝ| + |t̂| bounds below 2¹⁰⁰."""
        affine = self.eval_affine()
        twin = MLP([w.astype(np.float32) for w in self.W], [b.astype(np.float32) for b in self.b],
                   self.gamma, self.beta, self.mean, self.var)
        twin._affine = [(s.astype(np.float32), t.astype(np.float32)) for s, t in affine]
        hidden = [(*W.shape[1:], _norm(W), _norm(b), float(np.abs(s).max()), _norm(t))
                  for W, b, (s, t) in zip(self.W, self.b, affine)]
        W = self.W[-1][0]
        n_out, wc = W.shape[0], sqrt(np.einsum("ij,ij->j", W, W).max())
        bm = float(np.abs(self.b[-1]).max())
        u, eta = _U32, _ETA32

        def bounds(mu: float, eps: float, on: float) -> tuple[float, float]:
            """The logit bound and the size bound for input bounds μ and ε.
            They are linear in (μ, ε, on), where ``on`` scales every term
            that does not grow with ‖x‖: (1, u, 0) gives their coefficients
            of ‖x‖, (0, √d·η, 1) their constants."""
            size = mu + eps
            for n, m, wf, bf, sm, tf in hidden:
                w = (1 + u) * wf + eta * sqrt(n * m)
                big = (mu + eps) * w + on * ((1 + u) * bf + eta * sqrt(m))
                eps = (eps * w + _gamma(n + 1) * big + mu * (u * wf + eta * sqrt(n * m))
                       + on * (u * bf + eta * sqrt(m) * (2 * n + 1)))
                mu, size = mu * wf + on * bf, size + big
                w = (1 + u) * sm + eta
                big = (mu + eps) * w + on * ((1 + u) * tf + eta * sqrt(m))
                eps = (eps * w + _gamma(2) * big + mu * (u * sm + eta)
                       + on * (u * tf + 3 * eta * sqrt(m)))
                mu, size = mu * sm + on * tf, size + big
            w = (1 + u) * wc + eta * sqrt(n_out)
            big = (mu + eps) * w + on * ((1 + u) * bm + eta)
            return (eps * w + _gamma(n_out + 1) * big + mu * (u * wc + eta * sqrt(n_out))
                    + on * (u * bm + eta * (2 * n_out + 1))), size + big

        (c0, g0), (c1, g1) = bounds(1.0, u, 0.0), bounds(0.0, eta * sqrt(self.d_in), 1.0)
        grow = 1.0 + 2.0**-19
        return twin, c0 * grow, c1 * grow, (_SCREEN_REACH - g1) / g0

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


def _norm(a: np.ndarray) -> float:
    """The 2-norm of ``a`` flattened (the Frobenius norm of a matrix)."""
    return sqrt(np.vdot(a, a))


def _gamma(k: int) -> float:
    """γ_k = ku / (1 − ku) of float32: the relative error bound of k
    roundings (Higham §3.1)."""
    return k * _U32 / (1.0 - k * _U32)


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
