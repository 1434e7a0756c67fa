"""Exact (brute-force) k-NN: the k'-NN matrix (§4.2.1), also built by the
Spark executors through :func:`knn_block`, and the top-k of queries against
data. Like :func:`repro.index.search.topk_within`, both prune by a certified
margin on dot-product scores (:func:`shortlist_scores`) and return the first
k survivors by :func:`diff_distances` (:func:`rank_rows`), exact ties by data
index. The two offline searches score in float32 (:class:`Screen`), the
serve path in float64.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.index.base import check_data, check_k, check_queries

# Rows per k'-NN block: one (256, n) float32 score buffer (6 MB at
# n = 6000) plus a (256, n) bool mask for the row cut.
KNN_BLOCK = 256

# Unit roundoff and smallest normal number of float64, for the error bound
# of ``shortlist_scores``.
_U = 2.0**-53
_TINY = np.finfo(np.float64).tiny
# Unit roundoff of float32, for the screen's margin (:func:`_screen_margin`).
_U32 = 2.0**-24


def sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) squared Euclidean distances via the expansion
    ‖a‖² − 2a·b + ‖b‖², built in the one (len(a), len(b)) buffer the
    product returns, for the searches that need no exact order (K-means,
    DBSCAN, spectral clustering, AVQ's assignment). Floating-point error can
    leave tiny negatives; callers that need non-negative values clamp them.

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
    what :func:`diff_distances` computes and every exact search orders by.
    A cut above τ, such as :func:`_row_cut`'s, keeps a superset.

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
    :func:`repro.index.base.check_data` keeps that from the k'-NN paths.

    **The float32 screen** of the k'-NN build and :func:`topk_neighbors`
    (:func:`_topk_block`) computes S in float32, u = 2⁻²⁴, from X = 2⁻ᵉx and
    Q = 2⁻ᵉq (:class:`Screen`; the scaling is exact in float64 and keeps
    every ‖X‖ ≤ √d, so nothing overflows float32). The ranking stays the
    float64 difference form of the unscaled points. Let η = 2⁻¹⁵⁰ bound the
    absolute error of a float32 product that underflows, R = max ‖X‖ + ‖Q‖
    and δ = uR + √d·η.

    1. fl32 rounds X and Q to X̂, Q̂ with ‖X̂ − X‖, ‖Q̂ − Q‖ ≤ δ, so the exact
       scores move by |Â − A| ≤ 4Rδ + 3δ². The float32 norm, product and
       add err by γ_(d+1)R̂² plus 5dη of underflow, R̂ ≤ (1 + u)R + 2√d·η.
       With 2R√d·η ≤ uR² + dη²/u, all of it is e = γ_(d+11)R² + 8dη.
    2. The difference form keeps step 2's factors (float64 ρ) and its
       underflow adds at most β = 3d·2⁻¹⁰⁷⁵ to dist², 2⁻²ᵉβ in scaled units.
    3. As in step 3, an answer row has S − τ ≤ (ρ − 1)(R² + e) + (ρ + 1)e +
       3·2⁻²ᵉβ ≤ 2γ_(d+13)R² + 24dη + 9d·2⁻²ᵉ·2⁻¹⁰⁷⁵ for d < 2²⁰, where the
       float64 ρ − 1 ≤ γ₁ of float32.
    4. With R² ≤ 2P and a factor 2 for the float64 rounding of P̂ and E,
       E = 8γ_(d+13)P̂ + d(2⁻¹⁴⁴ + 2⁻²ᵉ·2⁻¹⁰⁷⁰) (:func:`_screen_margin`).
       The cut τ + E is rounded up to float32 (:func:`_screen_cut`), so the
       float32 compare keeps every score at or below the real cut.

    Where 2⁻²ᵉ overflows, only for points whose float64 distances underflow
    to ties, E is inf and every row is kept.
    """
    norms = np.einsum("...d,...d->...", rows, rows)
    score = np.matmul(rows, (-2.0 * queries)[..., None])[..., 0]
    score += norms
    return score, _margin(norms.max(axis=-1), queries)


def _margin(max_norm: np.ndarray | float, queries: np.ndarray) -> np.ndarray:
    """The margin E of :func:`shortlist_scores` per query q (..., d), for
    rows whose largest squared norm is ``max_norm``."""
    n = 4 * queries.shape[-1] + 10
    p = max_norm + np.einsum("...d,...d->...", queries, queries)
    return 4.0 * n * _U / (1.0 - n * _U) * p + _TINY


def _row_cut(d2: np.ndarray, k: int) -> np.ndarray:
    """(len(d2), 1) per-row cut at or above each row's k-th smallest entry.

    A row's columns form ``g`` groups by column index mod ``g``; the cut is
    the k-th smallest group minimum. k groups each hold an entry at or below
    it, so every one of the row's k smallest entries is at or below it too.
    At k = 11 (k' = 10 and the own column) and n = 6000 about 11.5 entries
    per row pass it, the margin included."""
    n = d2.shape[1]
    g = min(n, max(k, 128))
    gmin = d2[:, :g].copy()
    for lo in range(g, n, g):
        # The last slice folds the n mod g tail columns into the first groups.
        cols = d2[:, lo : lo + g]
        np.minimum(gmin[:, : cols.shape[1]], cols, out=gmin[:, : cols.shape[1]])
    return np.partition(gmin, k - 1, axis=1)[:, [k - 1]]


def diff_distances(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Difference-form distances of rows x (m, d) from q (m, d) or (d,), the
    one order of every exact search; overwrites ``x``, a fresh gather."""
    x -= q
    x *= x
    return np.sqrt(x.sum(axis=1))


def rank_rows(
    rows: np.ndarray, dist: np.ndarray, ids: np.ndarray, n_rows: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """(n_rows, k) ids and distances of each row's first k survivors by
    (distance, input order), padded with -1 and inf; survivor j has row
    ``rows[j]`` (non-decreasing), distance ``dist[j]`` and id ``ids[j]``."""
    order = np.lexsort((dist, rows))
    rows, dist, ids = rows[order], dist[order], ids[order]
    pos = np.arange(len(rows)) - np.searchsorted(rows, rows)
    top = pos < k
    out_ids = np.full((n_rows, k), -1, dtype=np.int64)
    out_dist = np.full((n_rows, k), np.inf)
    out_ids[rows[top], pos[top]] = ids[top]
    out_dist[rows[top], pos[top]] = dist[top]
    return out_ids, out_dist


def sq_norms(data: np.ndarray) -> np.ndarray:
    """‖x‖² of every row of ``data``, computed once per search over it."""
    return np.einsum("ij,ij->i", data, data)


class Screen(NamedTuple):
    """The float32 copy of the data that :func:`_topk_block` scores, built
    once per search: ``x`` is the points times 2⁻ᵉ rounded to float32,
    ``norms`` its squared norms in float32, and ``top`` the largest squared
    norm of the scaled float64 points, for the margin."""

    x: np.ndarray
    norms: np.ndarray
    top: float
    exp: int


def screen(points: np.ndarray, *also: np.ndarray) -> Screen:
    """The :class:`Screen` of ``points`` scaled by 2⁻ᵉ, where e brings the
    largest coordinate of ``points`` and of ``also`` (the queries to be
    scored against them) into [1/2, 1), so every scaled norm is at most √d."""
    top = max(max(p.max(initial=0.0), -p.min(initial=0.0)) for p in (points, *also))
    exp = int(np.frexp(top)[1])
    scaled = np.ldexp(points, -exp)
    x = scaled.astype(np.float32)
    return Screen(x, sq_norms(x), sq_norms(scaled).max(), exp)


def _screen_margin(top: float, q_sq: np.ndarray, d: int, exp: int) -> np.ndarray:
    """The margin E of the float32 screen (:func:`shortlist_scores`) per
    query of scaled squared norm ``q_sq``, against points whose largest
    scaled squared norm is ``top``, in dimension d."""
    n = d + 13
    with np.errstate(over="ignore"):
        tail = d * (2.0**-144 + np.ldexp(2.0**-1070, -2 * exp))
    return 8.0 * n * _U32 / (1.0 - n * _U32) * (top + q_sq) + tail


def _screen_cut(tau: np.ndarray, margin: np.ndarray) -> np.ndarray:
    """The float32 cut τ + E, rounded up: no float32 score at or below the
    real τ + E lies above it."""
    with np.errstate(over="ignore"):
        cut = (tau.astype(np.float64) + margin).astype(np.float32)
    return np.nextafter(cut, np.float32(np.inf))


def _topk_block(q: np.ndarray, data: np.ndarray, scr: Screen, k: int, lo: int | None = None):
    """:func:`rank_rows` of the k nearest rows of ``data`` to each query of
    ``q``, scored against ``scr``, the float32 copy of ``data`` whose
    exponent covers ``q`` too; with ``lo``, ``q`` is ``data[lo:lo + len(q)]``
    and row i skips its own column lo + i. The queries are scaled by the same
    2⁻ᵉ and rounded to float32 here. Float32 scores are cut at
    :func:`_row_cut` (k + 1 with the own column) plus
    :func:`_screen_margin`, valid for any gemm; the survivors are ranked by
    the float64 difference form."""
    scaled = np.ldexp(q, -scr.exp)
    score = (np.float32(-2.0) * scaled.astype(np.float32)) @ scr.x.T
    score += scr.norms
    tau = _row_cut(score, k + (lo is not None))
    margin = _screen_margin(scr.top, sq_norms(scaled), data.shape[1], scr.exp)
    cut = _screen_cut(tau, margin[:, None])
    # flatnonzero, not the far slower 2-D nonzero, on the sparse mask.
    rows, cols = np.divmod(np.flatnonzero(score <= cut), len(data))
    if lo is not None:
        other = cols != rows + lo
        rows, cols = rows[other], cols[other]
    return rank_rows(rows, diff_distances(data[cols], q[rows]), cols, len(q), k)


def topk_neighbors(
    queries: np.ndarray, data: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k nearest rows of ``data`` for each row of ``queries``, in blocks
    of ``KNN_BLOCK`` queries: ``(indices, distances)``, each (n_q, min(k, n)),
    the first k of a stable sort by difference-form distance, so exact ties
    fall by data row. ValueError when the data or the queries fail
    :func:`check_data`, or the queries are not (n_q, d)."""
    data = check_data(data)
    queries = check_data(check_queries(queries, data.shape[1]))
    k = min(k, len(data))
    scr = screen(data, queries)
    idx = np.empty((len(queries), k), dtype=np.int64)
    dist = np.empty((len(queries), k))
    for lo in range(0, len(queries), KNN_BLOCK):
        part = slice(lo, lo + KNN_BLOCK)
        idx[part], dist[part] = _topk_block(queries[part], data, scr, k)
    return idx, dist


def knn_block(data: np.ndarray, scr: Screen, lo: int, hi: int, k: int) -> np.ndarray:
    """Rows ``lo:hi`` of the k'-NN matrix of ``data`` (checked by
    :func:`check_data`, float32 copy ``scr`` from :func:`screen`): each
    row's ``k`` nearest other points by the one rule, exact ties by index. A
    point is never its own neighbor, while its exact duplicates still are."""
    return _topk_block(data[lo:hi], data, scr, k, lo)[0]


def knn_matrix_numpy(data: np.ndarray, k: int, *, block: int = KNN_BLOCK) -> np.ndarray:
    """k'-NN matrix (n, k) of neighbor *indices*, self excluded: the rows of
    :func:`knn_block` over blocks of ``block`` rows, which bound peak memory
    and do not change the result, with the float32 copy built once;
    ValueError when ``data`` fails :func:`check_data` or k is outside (0, n)."""
    data = check_data(data)
    n = len(data)
    check_k(k, n)
    scr = screen(data)
    out = np.empty((n, k), dtype=np.int64)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        out[lo:hi] = knn_block(data, scr, lo, hi, k)
    return out
