"""Exact (brute-force) k-NN: the numpy reference build of the k'-NN matrix
(§4.2.1) and the top-k of queries against data.

The matrix is built one block of rows at a time by :func:`knn_block`; the
Spark build in :mod:`repro.spark` runs the same function on each executor's
blocks, so both builds return the same ids.
"""
from __future__ import annotations

import numpy as np

from repro.index.base import check_data, check_k, check_queries

# Rows per k'-NN block: one (256, n) float64 distance buffer (12 MB at
# n = 6000) plus a (256, n) bool mask for the row cut.
KNN_BLOCK = 256

# Unit roundoff and smallest normal number of float64, for the error bound
# of ``shortlist_scores``.
_U = 2.0**-53
_TINY = np.finfo(np.float64).tiny


def sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) squared Euclidean distances via the expansion
    ‖a‖² − 2a·b + ‖b‖², built in the one (len(a), len(b)) buffer the
    product returns. Floating-point error can leave tiny negatives;
    callers that need non-negative values clamp them.

    Bit-identical to ``(a**2).sum(1, keepdims=True) - 2.0 * a @ b.T +
    (b**2).sum(1)``: scaling by −2 is exact, and the product never takes the
    same buffer on both sides (for ``a is b`` BLAS would use ``syrk``, which
    rounds differently)."""
    d2 = (-2.0 * a) @ b.T
    d2 += (a**2).sum(axis=1, keepdims=True)
    d2 += (b**2).sum(axis=1)
    return d2


def shortlist_scores(rows: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scores ‖x‖² − 2x·q of gathered rows x (..., r, d) against their
    queries q (..., d), and per query a margin E such that no row whose
    score exceeds the k-th smallest score τ by more than E is among the k
    nearest by the difference form, exact ties after the square root
    included. The difference form is dist = fl(√fl(Σ fl(fl(x_j − q_j)²))),
    what :func:`repro.index.search.topk_within` orders by.

    Derivation (Higham, *Accuracy and Stability of Numerical Algorithms*,
    §3.1; u = 2⁻⁵³, γ_n = nu / (1 − nu), any summation order). For one
    query let R = max ‖x‖ + ‖q‖ over its rows, D = ‖x − q‖² ≤ R² and
    A = ‖x‖² − 2x·q = D − ‖q‖².

    1. fl(‖x‖²) and fl(x·(−2q)) err by at most γ_d‖x‖² and 2γ_d‖x‖‖q‖,
       and their sum rounds once more, so the score S has
       |S − A| ≤ γ_(d+1)(‖x‖² + 2‖x‖‖q‖) ≤ γ_(d+1)R² =: e.
    2. Each term of the difference form rounds three times and the sum
       d − 1 more times; the square root rounds once. So
       (1 − γ_(d+2))(1 − u)² D ≤ dist² ≤ (1 + γ_(d+2))(1 + u)² D.
    3. The k rows with S ≤ τ have D ≤ τ + ‖q‖² + e, so the k-th smallest
       dist t has t² ≤ (1 + γ_(d+2))(1 + u)²(τ + ‖q‖² + e). A row of the
       answer has dist ≤ t, hence D ≤ ρ(τ + ‖q‖² + e) with
       ρ = (1 + γ_(d+2))(1 + u)² / ((1 − γ_(d+2))(1 − u)²) ≤ 1 + γ_(2d+8),
       and S ≤ D − ‖q‖² + e. As τ + ‖q‖² ≤ R² + e, S − τ ≤ 2e +
       γ_(2d+8)(1 + 2γ_(d+1))R² ≤ γ_(4d+10)R².
    4. R² ≤ 2P with P = max ‖x‖² + ‖q‖², so E = 4γ_(4d+10)P̂ + λ from the
       computed P̂. The factor 2 covers the relative O(du) rounding of P̂, of
       E and of τ + E; λ, the smallest normal number, covers the absolute
       error of results that underflow.

    Where ‖x‖² or ‖x‖‖q‖ overflows, E is inf and τ + E inf or NaN; callers
    keep every row whose score is not above τ + E, which then keeps all.
    """
    norms = np.einsum("...d,...d->...", rows, rows)
    score = np.matmul(rows, (-2.0 * queries)[..., None])[..., 0]
    score += norms
    n = 4 * rows.shape[-1] + 10
    p = norms.max(axis=-1) + np.einsum("...d,...d->...", queries, queries)
    return score, 4.0 * n * _U / (1.0 - n * _U) * p + _TINY


def _row_cut(d2: np.ndarray, k: int) -> np.ndarray:
    """(len(d2), 1) per-row cut at or above each row's k-th smallest entry.

    A row's columns form ``g`` groups by column index mod ``g``; the cut is
    the k-th smallest group minimum. k groups each hold an entry at or below
    it, so every one of the row's k smallest entries is at or below it too.
    At k = 10 and n = 6000 about 10.3 entries per row pass it."""
    n = d2.shape[1]
    g = min(n, max(k, 128))
    gmin = d2[:, :g].copy()
    for lo in range(g, n, g):
        # The last slice folds the n mod g tail columns into the first groups.
        cols = d2[:, lo : lo + g]
        np.minimum(gmin[:, : cols.shape[1]], cols, out=gmin[:, : cols.shape[1]])
    return np.partition(gmin, k - 1, axis=1)[:, [k - 1]]


def _smallest_per_row(d2: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Column ids of the ``k`` smallest entries of each row of ``d2`` and
    those entries, in increasing order; exact ties fall by column, as in a
    stable sort of the row. ``d2`` must hold no NaN. Only the entries at or
    below :func:`_row_cut` are sorted, by (row, value, column)."""
    # flatnonzero, not the far slower 2-D nonzero, on the sparse mask.
    rows, cols = np.divmod(np.flatnonzero(d2 <= _row_cut(d2, k)), d2.shape[1])
    vals = d2[rows, cols]
    order = np.lexsort((cols, vals, rows))
    starts = np.searchsorted(rows, np.arange(len(d2)))
    pick = order[starts[:, None] + np.arange(k)]
    return cols[pick], vals[pick]


def topk_neighbors(
    queries: np.ndarray, data: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k nearest rows of ``data`` for each row of ``queries``.

    Returns ``(indices, distances)`` each of shape (n_queries, k), neighbors
    sorted by increasing Euclidean distance, exact ties by data row.
    ValueError when the data are not (n, d), the queries not (n_q, d), or
    either holds NaN or infinite values.
    """
    data = check_data(data)
    queries = check_queries(queries, data.shape[1])
    d2 = sqdist(queries, data)
    np.maximum(d2, 0.0, out=d2)
    idx, part = _smallest_per_row(d2, min(k, d2.shape[1]))
    return idx, np.sqrt(part)


def knn_block(data: np.ndarray, lo: int, hi: int, k: int) -> np.ndarray:
    """Rows ``lo:hi`` of the k'-NN matrix of ``data``: each row's ``k``
    nearest other points, nearest first and exact ties by index. The row's
    own column is set to inf, so a point is never its own neighbor while its
    exact duplicates still are."""
    d2 = sqdist(data[lo:hi], data)
    np.maximum(d2, 0.0, out=d2)
    d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
    return _smallest_per_row(d2, k)[0]


def knn_matrix_numpy(data: np.ndarray, k: int, *, block: int = KNN_BLOCK) -> np.ndarray:
    """k'-NN matrix (n, k) of neighbor *indices*, self excluded, nearest
    first and exact ties by index; ValueError when ``data`` is not (n, d) or
    holds NaN or infinite values, or k is outside (0, n). Built by
    :func:`knn_block` over blocks of ``block`` rows, which bounds peak
    memory. The block does not change the result, except that a one-row
    block rounds differently and may swap exact duplicates."""
    data = check_data(data)
    n = len(data)
    check_k(k, n)
    out = np.empty((n, k), dtype=np.int64)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        out[lo:hi] = knn_block(data, lo, hi, out.shape[1])
    return out
