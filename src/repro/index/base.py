"""Common interface for space-partitioning indexes (USP and all baselines).

A partition index knows (i) which bin each data point landed in and (ii) for a
query, a score per bin, higher meaning more probable (the assigned
probabilities of Algorithm 2). The multiprobe order ranks bins by that score.
The default candidate-set materialization and, through
:meth:`PartitionIndex.probe_joins`, the sweep harness in
:mod:`repro.index.search` work against this interface for every method in
the paper's figures/tables.
"""
from __future__ import annotations

import numpy as np


def members_by_bin(bins: np.ndarray, n_bins: int) -> list[np.ndarray]:
    """Lookup table bin → sorted point ids for a bin-id array: views of one
    array of point ids sorted by bin, split at the bin boundaries."""
    order = np.argsort(bins, kind="stable")
    return np.split(order, np.searchsorted(bins[order], np.arange(1, n_bins)))


def probe_order(scores: np.ndarray) -> np.ndarray:
    """Bins ranked by score along the last axis, highest first; ties keep bin order."""
    return np.argsort(-scores, axis=-1, kind="stable")


def fitted(value):
    """``value``, an attribute that ``fit`` sets; RuntimeError while it is
    still None, the one error of every query on an unfitted index."""
    if value is None:
        raise RuntimeError("index not fitted")
    return value


def check_queries(q: np.ndarray, d: int) -> np.ndarray:
    """``q`` as a float64 (n_q, d) block; ValueError when it has another shape
    or holds NaN or infinite values."""
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != d:
        raise ValueError(f"queries of shape {q.shape}; the index routes dimension {d}")
    if not np.isfinite(q).all():
        raise ValueError("queries hold NaN or infinite values")
    return q


def check_data(x: np.ndarray) -> np.ndarray:
    """``x`` as a float64 (n, d) array to fit on; ValueError when it is not
    2-D, holds NaN or infinite values, or a squared norm above 1/8 of
    float64's largest value. Squared distances ‖x − y‖² ≤ 2‖x‖² + 2‖y‖² and
    scores ‖x‖² − 2x·y then stay finite, so no exact search overflows."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"data of shape {x.shape}; expected (n, d)")
    if not np.isfinite(x).all():
        raise ValueError("data hold NaN or infinite values")
    if not np.einsum("ij,ij->i", x, x).max(initial=0.0) <= np.finfo(np.float64).max / 8:
        raise ValueError("squared norms too large for float64")
    return x


def check_k(k: int, n: int) -> None:
    """ValueError unless 0 < k < n, the k' of a k'-NN matrix of ``n`` points."""
    if not 0 < k < n:
        raise ValueError(f"k'={k} for {n} points; expected 0 < k' < n")


def check_knn(knn: np.ndarray, n: int) -> np.ndarray:
    """A given k'-NN matrix of ``n`` points; ValueError unless it is (n, k')
    with 0 < k' < n and holds integer ids in [0, n)."""
    knn = np.asarray(knn)
    if knn.ndim != 2 or knn.shape[0] != n or not 0 < knn.shape[1] < n:
        raise ValueError(f"k'-NN matrix of shape {knn.shape}; expected (n, k') "
                         f"with n={n} and 0 < k' < n")
    if not np.issubdtype(knn.dtype, np.integer) or knn.min() < 0 or knn.max() >= n:
        raise ValueError(f"k'-NN matrix must hold integer ids in [0, {n})")
    return knn


def check_weights(w: np.ndarray, n: int) -> np.ndarray:
    """Per-point weights (Eq. 14); ValueError unless n finite, non-negative
    values with a positive sum (zeros allowed: ``update_weights`` makes them)."""
    w = np.asarray(w)
    if not (w.shape == (n,) and np.isfinite(w).all() and (w >= 0).all() and w.sum() > 0):
        raise ValueError(f"weights must be {n} finite, non-negative values with a "
                         "positive sum")
    return w


def bin_ranks(order: np.ndarray) -> np.ndarray:
    """Inverse of a probe matrix along its last axis: ``ranks[..., i, b]`` is
    the position of bin ``b`` in row ``i`` of ``order``."""
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(order.shape[-1]), axis=-1)
    return ranks


def gather(members: list[np.ndarray], order: np.ndarray) -> list[np.ndarray]:
    """Candidate ids per row of a truncated probe matrix, in probe order."""
    return [
        np.concatenate([members[b] for b in row]) if len(row) else np.empty(0, int)
        for row in order
    ]


class PartitionIndex:
    """Abstract base: subclasses set ``n_bins`` and ``_data_bins`` after fit
    and implement :meth:`probe_scores`, the one query method."""

    n_bins: int
    _data_bins: np.ndarray | None = None
    # (the _data_bins array the lookup table was built from, the table)
    _lookup: tuple[np.ndarray, list[np.ndarray]] | None = None

    # -- partition side ----------------------------------------------------
    def data_bins(self) -> np.ndarray:
        """Bin id of every indexed data point (the partition R of X)."""
        return fitted(self._data_bins)

    def bin_members(self) -> list[np.ndarray]:
        """Lookup table bin → sorted point ids (Algorithm 1, Step 3), built
        once per partition: a refit that assigns new bins rebuilds it."""
        bins = self._data_bins  # the cache hit on the serve path reads no method
        if self._lookup is None or self._lookup[0] is not bins:
            self._lookup = (bins, members_by_bin(self.data_bins(), self.n_bins))
        return self._lookup[1]

    # -- query side --------------------------------------------------------
    def probe_scores(self, queries: np.ndarray) -> np.ndarray:  # pragma: no cover
        """(n_q, n_bins) array: a score per bin and query, higher meaning
        more probable."""
        raise NotImplementedError

    def probe_matrix(self, queries: np.ndarray) -> np.ndarray:
        """(n_q, n_bins) array: bins ranked most→least probable per query."""
        return probe_order(self.probe_scores(queries))

    def candidate_ids(self, queries: np.ndarray, n_probes: int) -> list[np.ndarray]:
        """Candidate set C(q) per query from its top ``n_probes`` bins."""
        return gather(self.bin_members(), self.probe_matrix(queries)[:, :n_probes])

    def probe_joins(self, queries: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """What joins each C(q) at each probe rank: (n_q, n_bins) point
        counts, and the (n_q, k) probe rank of each id of ``truth`` (n_q, k):
        ``candidate_ids(queries, p)`` holds an id exactly when ``p`` is above
        its rank. The points joining at rank r are those of the bin ranked
        r, so the counts are bin sizes and no per-point rank is formed."""
        order = self.probe_matrix(queries)
        return (self.bin_sizes()[order],
                np.take_along_axis(bin_ranks(order), self.data_bins()[truth], axis=1))

    def bin_sizes(self) -> np.ndarray:
        return np.bincount(self.data_bins(), minlength=self.n_bins)
