"""Accuracy-vs-candidate-set-size sweep (§5.4: "We generate each of the
graphs ... by successively searching in more of the most probable bins").

The sweep drives any :class:`repro.index.base.PartitionIndex`; for every
probe count m' it materializes the candidate sets, runs exact k-NN inside
them, and records (mean |C|, k-NN accuracy). Table 4 interpolates this curve
at a target accuracy with :func:`cost_at_quality`, the same interpolator
Fig. 7 uses for query time at a target recall.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.index.base import PartitionIndex
from repro.knn.metrics import knn_accuracy


def topk_within(
    query: np.ndarray, data: np.ndarray, cand: np.ndarray, k: int
) -> np.ndarray:
    """Exact top-k point ids among candidate ids ``cand`` for one query."""
    if len(cand) == 0:
        return np.empty(0, dtype=np.int64)
    d = np.linalg.norm(data[cand] - query, axis=1)
    kk = min(k, len(cand))
    top = np.argpartition(d, kk - 1)[:kk] if kk < len(cand) else np.arange(len(cand))
    top = top[np.argsort(d[top], kind="stable")]
    return cand[top]


def sweep_accuracy(
    index: PartitionIndex,
    data: np.ndarray,
    queries: np.ndarray,
    gt_idx: np.ndarray,
    *,
    k: int = 10,
    probe_counts: list[int] | None = None,
) -> pd.DataFrame:
    """Returns a DataFrame (n_probes, mean_candidates, accuracy), one row per
    probe count, accuracy = paper's Eq. 1 averaged over queries."""
    data = np.asarray(data, np.float64)
    queries = np.asarray(queries, np.float64)
    if probe_counts is None:
        top = index.n_bins
        probe_counts = sorted(
            {p for p in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, top) if p <= top}
        )
    rows = []
    for m_probe in probe_counts:
        cands = index.candidate_ids(queries, m_probe)
        returned = np.full((len(queries), k), -1, dtype=np.int64)
        sizes = np.empty(len(queries))
        for i, (q, c) in enumerate(zip(queries, cands)):
            sizes[i] = len(c)
            top = topk_within(q, data, c, k)
            returned[i, : len(top)] = top
        rows.append(
            {
                "n_probes": m_probe,
                "mean_candidates": float(sizes.mean()),
                "accuracy": knn_accuracy(returned, gt_idx[:, :k]),
            }
        )
    return pd.DataFrame(rows)


def cost_at_quality(curve: pd.DataFrame, cost: str, quality: str, target: float) -> float | None:
    """Interpolated ``cost`` at which the curve's ``quality`` reaches ``target``.

    Sorts by cost and interpolates linearly between the bracketing points
    (the paper reads Table 4's 85% point off Fig. 5a the same way). None if
    never reached.
    """
    c = curve.sort_values(cost)
    q = c[quality].to_numpy()
    x = c[cost].to_numpy()
    if q[0] >= target:
        return float(x[0])
    above = np.nonzero(q >= target)[0]
    if len(above) == 0:
        return None
    hi = above[0]
    lo = hi - 1
    if q[hi] == q[lo]:
        return float(x[hi])
    frac = (target - q[lo]) / (q[hi] - q[lo])
    return float(x[lo] + frac * (x[hi] - x[lo]))


def candidate_size_at_accuracy(curve: pd.DataFrame, target: float) -> float | None:
    """Interpolated mean |C| at which the curve reaches ``target`` accuracy."""
    return cost_at_quality(curve, "mean_candidates", "accuracy", target)
