"""The USP loss (§4.2.2): quality cost U(R) + η · balance cost S(R).

Quality cost (Eq. 10): cross-entropy between the model's distribution for a
point, ``b_i = softmax(logits_i)``, and the empirical bin distribution of its
k' nearest neighbors, ``B_{k'}(p_i)``. Per the paper's footnote 2, the
neighbor distribution uses *hard* (argmax) assignments, and the targets are
treated as constants (no gradient flows through the neighbors' forward pass) —
gradient w.r.t. logits is the standard softmax-CE form ``(b - B)``.

Balance cost (Eq. 12–13): take the top ⌈n_b/m⌉ probabilities in each bin
column of the batch output matrix and negate their sum. Its gradient w.r.t.
the selected probabilities is -1 (0 elsewhere), backpropagated through the
softmax Jacobian. Both terms are normalized by batch size so η is comparable
across batch sizes, and the quality term supports the per-point ensembling
weights of Eq. 14.
"""
from __future__ import annotations

import numpy as np

from repro.nn.layers import softmax

_EPS = 1e-12
_LOG_BARRIER = 0.05  # β of balance_loss_and_grad's -β·log p term


def neighbor_bin_distribution(hard: np.ndarray, m: int) -> np.ndarray:
    """``B_{k'}(p_i)`` (Eq. 9): per-point proportion of its k' neighbors
    hard-assigned to each of the ``m`` bins. ``hard`` is the (n_b, k') matrix
    of the neighbors' bins."""
    n_b, kp = hard.shape
    cells = (np.arange(n_b)[:, None] * m + hard).ravel()
    return np.bincount(cells, minlength=n_b * m).reshape(n_b, m) / kp


def quality_loss_and_grad(
    logits: np.ndarray, targets: np.ndarray, weights: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Weighted cross-entropy U(R) over a batch + gradient w.r.t. logits.

    ``targets`` are the (constant) neighbor-bin distributions; ``weights``
    are the per-point ensembling weights w_i (Eq. 14), defaulting to 1.
    """
    return _quality(softmax(logits), targets, weights)


def _quality(
    probs: np.ndarray, targets: np.ndarray, weights: np.ndarray | None
) -> tuple[float, np.ndarray]:
    """:func:`quality_loss_and_grad` on ``probs`` = softmax(logits)."""
    n_b = probs.shape[0]
    if weights is None:
        weights = np.ones(n_b)
    wsum = weights.sum() + _EPS
    ce = -(targets * np.log(probs + _EPS)).sum(axis=1)
    loss = float((weights * ce).sum() / wsum)
    grad = (probs - targets) * (weights / wsum)[:, None]
    return loss, grad


def balance_loss_and_grad(
    logits: np.ndarray, m: int, *, log_barrier: float = _LOG_BARRIER
) -> tuple[float, np.ndarray]:
    """S(R) (Eq. 13) over a batch + gradient w.r.t. logits.

    Selects the top ⌈n_b/m⌉ entries of each bin column of softmax(logits),
    sums and negates (normalized by n_b). Gradient is -1/n_b on the selected
    entries, mapped through the softmax Jacobian.

    ``log_barrier`` adds a small ``-β·log p`` component to the selected
    window entries (gradient only; the reported loss value stays Eq. 13).
    Rationale: the Eq. 13 gradient through softmax is ∝ p, so a bin whose
    probabilities collapse toward 0 receives a vanishing resurrection force
    and stays empty forever. The log term's softmax gradient is ∝ (1 − p),
    which keeps a constant-magnitude pull on dying bins; at the balanced
    optimum (selected p → 1) it vanishes, so the optimum is unchanged.
    """
    return _balance(softmax(logits), m, log_barrier)


def _balance(probs: np.ndarray, m: int, log_barrier: float) -> tuple[float, np.ndarray]:
    """:func:`balance_loss_and_grad` on ``probs`` = softmax(logits)."""
    n_b = probs.shape[0]
    t = max(1, int(np.ceil(n_b / m)))
    # Indices of the top-t rows per column.
    sel_rows = np.argpartition(-probs, t - 1, axis=0)[:t]  # (t, m)
    cols = np.broadcast_to(np.arange(m), sel_rows.shape)
    selected = probs[sel_rows, cols]
    loss = float(-selected.sum() / n_b)
    gprobs = np.zeros_like(probs)
    gprobs[sel_rows, cols] = -(1.0 + log_barrier / (selected + _EPS)) / n_b
    # Softmax Jacobian: dL/dz = p * (g - sum(g * p)).
    glogits = probs * (gprobs - (gprobs * probs).sum(axis=1, keepdims=True))
    return loss, glogits


def usp_loss_and_grad(
    logits: np.ndarray,
    targets: np.ndarray,
    eta: float,
    weights: np.ndarray | None = None,
) -> tuple[float, float, np.ndarray]:
    """Combined loss (Eq. 5): returns (U, S, dL/dlogits) for a batch; both
    terms read one softmax of ``logits``."""
    probs = softmax(logits)
    u, gu = _quality(probs, targets, weights)
    s, gs = _balance(probs, logits.shape[1], _LOG_BARRIER)
    return u, s, gu + eta * gs
