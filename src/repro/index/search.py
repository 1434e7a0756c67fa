"""Accuracy-vs-candidate-set-size sweep (§5.4: "We generate each of the
graphs ... by successively searching in more of the most probable bins").

The sweep drives any :class:`repro.index.base.PartitionIndex` in closed
form, without searching. Exact k-NN inside C(q) returns every true neighbour
that C(q) holds, since those are nearer than any other candidate. So with
:meth:`PartitionIndex.probe_joins` (per query, how many points join C(q) at
each probe rank, and the rank at which each ground-truth id joins), the k-NN
accuracy at m' probes is the share of ground-truth ids whose rank is below
m', and |C| is the number of points joining below m'. For a single
partition the points joining at rank r are the bin ranked r, so the counts
are bin sizes in probe order; only a forest whose C(q) is a union over trees
(Boosted Search Forest) counts them from per-point ranks. Both are summed
once per block of queries, for every m' at once.
:func:`topk_within` is that exact search inside C(q), for serving one query
or a block of them.
Table 4 interpolates the curve at a target accuracy with
:func:`cost_at_quality`, the same interpolator Fig. 7 uses for query time at
a target recall.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.index.base import PartitionIndex
from repro.knn.exact import diff_distances, rank_rows, shortlist_scores

# Queries per probe_joins call: the sweep holds one (block, n_bins) count
# matrix, Boosted Search Forest one (block, n) rank matrix.
SWEEP_BLOCK = 256


def topk_within(
    query: np.ndarray, data: np.ndarray, cand: np.ndarray, k: int
) -> np.ndarray:
    """Exact top-k point ids among candidate ids, nearest first, exact
    distance ties by candidate position: the first k of a stable sort of
    ``cand`` by difference-form distance.

    One query (d,) with candidate ids ``cand`` (r,) returns up to k ids. A
    block of queries (b, d) with ``cand`` (b, r), rows padded with -1,
    returns (b, k) ids padded with -1; the one-query form is its one-row
    case. Each row keeps the candidates whose dot-product score is within
    the certified margin of :func:`repro.knn.exact.shortlist_scores` of the
    row's k-th smallest score, and only those get the difference form of
    :func:`repro.knn.exact.diff_distances`, the k'-NN build's. The block
    gathers a (b, r, d) array, so callers bound b × r.
    """
    query, cand = np.asarray(query), np.asarray(cand)
    one = query.ndim == 1
    kk = min(k, cand.shape[-1])
    if not kk:
        return np.empty(0, np.int64) if one else np.full((len(cand), k), -1, np.int64)
    x = np.take(data, cand, axis=0)
    score, margin = shortlist_scores(x, query)
    score[cand < 0] = np.inf
    cut = np.partition(score, kk - 1, axis=-1)[..., kk - 1] + margin
    # Keep every real candidate whose score is not above the cut; a NaN from
    # an overflow keeps it too. A cut is only finite with k real candidates
    # below it, so the one-row form drops padding by that test alone.
    if one:
        keep = np.flatnonzero(~(score > cut) if cut < np.inf else cand >= 0)
        dist = diff_distances(x[keep], query)
        return cand[keep[np.argsort(dist, kind="stable")[:kk]]]
    # Survivors come row by row in candidate order, so the ranker leaves
    # ties in candidate order.
    rows, cols = np.nonzero(~(score > cut[:, None]) & (cand >= 0))
    dist = diff_distances(x[rows, cols], query[rows])
    return rank_rows(rows, dist, cand[rows, cols], len(cand), k)[0]


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
    probe count, accuracy = paper's Eq. 1 averaged over queries.

    The curve is what exact search inside each C(q) would give, computed
    from :meth:`PartitionIndex.probe_joins` alone, so ``data`` is not read.
    Tie rule: a ground-truth id counts as found whenever C(q) holds it, even
    where copies of a point tie at the k-th distance and a search could
    return a copy outside ``gt_idx`` in its place. A probe count above the
    number of bins probes them all.
    """
    queries = np.asarray(queries, np.float64)
    truth = np.asarray(gt_idx)[:, :k]
    if probe_counts is None:
        top = index.n_bins
        probe_counts = sorted(
            {p for p in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, top) if p <= top}
        )
    # Per probe rank: points that join C at that rank, and ground-truth ids
    # among them, summed over queries; a count past n_bins adds nothing.
    width = max(max(probe_counts, default=0), index.n_bins)
    joined = np.zeros(width, dtype=np.int64)
    found = np.zeros(width, dtype=np.int64)
    for lo in range(0, len(queries), SWEEP_BLOCK):
        sizes, truth_ranks = index.probe_joins(queries[lo:lo + SWEEP_BLOCK],
                                               truth[lo:lo + SWEEP_BLOCK])
        joined[:sizes.shape[1]] += sizes.sum(axis=0)
        found += np.bincount(truth_ranks.ravel(), minlength=width)
    return pd.DataFrame([
        {
            "n_probes": m_probe,
            "mean_candidates": int(joined[:m_probe].sum()) / len(queries),
            "accuracy": int(found[:m_probe].sum()) / truth.size,
        }
        for m_probe in probe_counts
    ])


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
