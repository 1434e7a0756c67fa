"""Training loop for the USP model (Algorithm 1, Step 2).

Driver-side numpy mini-batch loop (the paper trains on a single GPU; here the
NN substrate is numpy). Each step:

1. uniformly sample a mini-batch of point indices (§4.2.2 "Batching");
2. eval-mode forward pass on the batch's distinct k'-NN neighbors (a few
   thousand rows, run in ``nn.model.EVAL_ROWS``-row blocks) → hard (argmax)
   assignments → constant targets ``B_{k'}`` (Eq. 9);
3. train-mode forward on the batch → logits; combined loss/grad (Eq. 5);
4. backprop through the model; Adam step.

Returns per-epoch (U, S) history for convergence tests.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.loss import neighbor_bin_distribution, usp_loss_and_grad
from repro.nn.model import MLP
from repro.nn.optim import Adam

# The clustering-mode schedule of Table 5: balance weight η, Adam's step, and
# the power-iteration steps that approximate diffusion on a connected graph.
CLUSTER_ETA = 0.5
CLUSTER_LR = 5e-3
T_DIFF = 5000

# The ANN-mode schedule (§4.2.2, §5.2): Adam's step, and mini-batches of
# ≈4–10% of the dataset but at least MIN_BATCH points.
LR = 1e-3
BATCH_FRAC = 0.08
MIN_BATCH = 256


def sinkhorn_balance(t: np.ndarray, iters: int = 10) -> np.ndarray:
    """Alternate row/column normalization: rows stay distributions, column
    masses equalize — the balance objective applied in *target* space."""
    t = t + 1e-9
    for _ in range(iters):
        t = t / t.sum(axis=0, keepdims=True)
        t = t / t.sum(axis=1, keepdims=True)
    return t


def train_usp_cluster_model(
    model: MLP,
    x: np.ndarray,
    knn_idx: np.ndarray,
    m: int,
    *,
    epochs: int = 250,
) -> None:
    """Clustering-mode USP training (§5.5 / Table 5).

    Same loss as :func:`train_usp_model`, but the neighbor-distribution
    targets are computed by diffusing the model's current outputs to
    stationarity over the k'-NN graph and Sinkhorn-balancing them
    (full-batch). On the ANN datasets the one-hop hard targets of the paper
    suffice; on the non-convex toy datasets the one-hop scheme gets stuck in
    a balanced *geometric* cut, while diffusion lets the quality objective
    see whole graph components — the partition the loss's global optimum
    describes (zero neighbors separated, perfectly balanced). This is an
    optimization schedule for the same objective, not a different objective;
    see DESIGN.md "Fidelity notes".

    When the graph has ≥ m connected components, stationary diffusion is
    computed exactly (per-component mean); otherwise ``T_DIFF`` power-iteration
    steps approximate the slow diffusion modes within components.
    """
    from repro.baselines.graph_partition import connected_components

    comp = connected_components(knn_idx)
    n_comp = comp.max() + 1
    opt = Adam(model.params(), lr=CLUSTER_LR)
    for _ in range(epochs):
        t = model.predict_proba(x)
        if n_comp >= m:
            # Exact stationary diffusion on a disconnected graph.
            sums = np.zeros((n_comp, m))
            np.add.at(sums, comp, t)
            counts = np.bincount(comp, minlength=n_comp)[:, None]
            t = (sums / counts)[comp]
        else:
            for _ in range(T_DIFF):
                t = t[knn_idx].mean(axis=1)
        t = sinkhorn_balance(t)
        # Sharpen: once diffusion has separated regions, push targets toward
        # one-hot so the CE gradient carries a usable margin for the model.
        t = t**3
        t = t / t.sum(axis=1, keepdims=True)
        logits = model.forward(x, train=True)
        _, _, grad = usp_loss_and_grad(logits, t, CLUSTER_ETA)
        opt.step(model.backward(grad))


@dataclass
class TrainConfig:
    """Hyper-parameters for one USP model (paper defaults in §5.1.4/§5.2)."""

    m: int = 16                 # number of bins
    eta: float = 7.0            # balance weight (Table 3)
    epochs: int = 40
    seed: int = 0
    history: list = field(default_factory=list)


def neighbor_targets(model: MLP, x: np.ndarray, neigh: np.ndarray, m: int) -> np.ndarray:
    """Constant targets ``B_{k'}`` (Eq. 9) for a batch whose (b, k') neighbor
    indices are ``neigh``: the neighbors' eval-mode bins, each distinct
    neighbor scored once (batches share many neighbors), in ascending row
    order. The distinct rows are marked in a mask over ``x`` rather than
    sorted out of ``neigh``."""
    mark = np.zeros(len(x), dtype=bool)
    mark[neigh] = True
    uniq = np.flatnonzero(mark)
    pos = np.empty(len(x), dtype=np.intp)
    pos[uniq] = np.arange(len(uniq))
    hard = model.predict_bin(x[uniq])[pos[neigh]]
    return neighbor_bin_distribution(hard, m)


def train_usp_model(
    model: MLP,
    x: np.ndarray,
    knn_idx: np.ndarray,
    cfg: TrainConfig,
    weights: np.ndarray | None = None,
) -> list[tuple[float, float]]:
    """Train ``model`` in place; returns epoch history of (mean U, mean S).

    ``knn_idx`` is the (n, k') k'-NN matrix of indices into ``x``;
    ``weights`` are the ensembling per-point weights (Eq. 14). ValueError
    when there are fewer than max(2, m) points (every batch would be skipped
    and the model left untrained), or when ``weights`` is not None and not
    n finite, non-negative values with a positive sum (zeros are allowed:
    :func:`repro.core.ensemble.update_weights` makes them).
    """
    n = len(x)
    if n < max(2, cfg.m):
        raise ValueError(f"{n} points cannot train a partition into m={cfg.m} bins")
    if weights is not None:
        weights = np.asarray(weights)
        if not (weights.shape == (n,) and np.isfinite(weights).all()
                and (weights >= 0).all() and weights.sum() > 0):
            raise ValueError(f"weights must be {n} finite, non-negative values with a "
                             "positive sum")
    rng = np.random.default_rng(cfg.seed)
    opt = Adam(model.params(), lr=LR)
    batch = int(min(n, max(MIN_BATCH, round(n * BATCH_FRAC))))
    history: list[tuple[float, float]] = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        us, ss, nb = 0.0, 0.0, 0
        for lo in range(0, n, batch):
            idx = order[lo : lo + batch]
            if len(idx) < max(2, cfg.m):
                continue  # balance term is meaningless on a tiny tail batch
            xb = x[idx]
            targets = neighbor_targets(model, x, knn_idx[idx], cfg.m)
            w = None if weights is None else weights[idx]
            logits = model.forward(xb, train=True)
            u, s, grad = usp_loss_and_grad(logits, targets, cfg.eta, w)
            opt.step(model.backward(grad))
            us += u
            ss += s
            nb += 1
        history.append((us / max(nb, 1), ss / max(nb, 1)))
    cfg.history = history
    return history
