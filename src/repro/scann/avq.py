"""Anisotropic product quantization — the ScaNN sketch (Guo et al. 2020).

ScaNN's "novel anisotropic quantization loss" penalizes the component of the
quantization residual *parallel* to the datapoint more than the orthogonal
component, because the parallel error is what perturbs inner-product/distance
scores of likely-relevant points:

    ℓ(x, c) = (x-c)ᵀ M_x (x-c),   M_x = h⊥ I + (h∥ − h⊥) x xᵀ / ‖x‖².

We implement product quantization over ``n_sub`` subspaces; each codebook is
trained by Lloyd-style alternation under ℓ: assignment by anisotropic
distance, and the centroid update solves the exact quadratic minimizer
``c* = (Σ M_x)⁻¹ Σ M_x x`` per cluster. h∥/h⊥ > 1 recovers ScaNN's
score-aware behavior; h∥ = h⊥ degenerates to classic PQ (used as a test
oracle). Search is asymmetric distance computation (ADC) with per-query
lookup tables + exact re-ranking of the best ``rerank`` candidates. A block
of queries runs as one piece, or a few under ``ROW_BUDGET``: the lookup
tables of all its queries and subspaces are built in one broadcast per
subspace width, the ADC scan is one flat gather per subspace over the
block's concatenated candidates, and the re-rank is one block
``topk_within`` call.

A table entry is the squared distance from a query's subvector to a
codeword, its coordinates' squared differences added left to right. That
order is stated, not left to ``.sum``, whose order numpy picks from the
array's shape, so every table is reproducible bit for bit.
"""
from __future__ import annotations

import numpy as np

from repro.index.base import check_data, check_queries, fitted
from repro.index.search import topk_within
from repro.knn.exact import sqdist

# Candidate rows per piece of a query block in ``AnisotropicPQ.search``: a
# piece's query count times its longest candidate list stays within this,
# which bounds the ADC and re-rank temporaries (rows × d floats for the
# re-rank). A single query with more candidates runs as a piece of its own.
ROW_BUDGET = 16384


class AnisotropicPQ:
    """Product quantizer with the anisotropic (score-aware) loss."""

    def __init__(
        self,
        n_sub: int = 4,
        n_centers: int = 16,
        *,
        h_par: float = 4.0,
        h_perp: float = 1.0,
        n_iter: int = 10,
        seed: int = 0,
    ):
        if n_sub < 1:
            raise ValueError(f"n_sub={n_sub}: need at least one subspace")
        if not 1 <= n_centers <= 256:
            raise ValueError(f"n_centers={n_centers} outside [1, 256]: codes are stored as uint8")
        if not (h_par > 0 and h_perp > 0):
            raise ValueError(f"h_par={h_par}, h_perp={h_perp}: both weights must be positive")
        self.n_sub = n_sub
        self.n_centers = n_centers
        self.h_par = h_par
        self.h_perp = h_perp
        self.n_iter = n_iter
        self.seed = seed
        self.codebooks: list[np.ndarray] = []   # per-subspace (n_centers, d_sub), views of planes
        self.codes: np.ndarray | None = None    # (n, n_sub) uint8
        self._x: np.ndarray | None = None       # the fitted data, for the re-rank
        self._bounds: list[tuple[int, int]] = []
        # One entry per subspace width d_sub: the subspaces of that width,
        # their data columns (d_sub, m) and codebook planes (d_sub, m, n_centers).
        self._groups: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    # -- training ----------------------------------------------------------
    def _aniso_assign(
        self, xs: np.ndarray, cb: np.ndarray, norms: np.ndarray, xhat: np.ndarray
    ) -> np.ndarray:
        """Assign each subvector to the codeword minimizing ℓ(x, c).

        ``norms`` = ‖x‖ + 1e-12 and ``xhat`` = x/``norms`` are fixed for a
        subspace, so ``fit`` computes them once. The loss is built in the
        buffers the two products return: ``sqdist``, clamped at 0, for ‖r‖²."""
        # ℓ = h⊥‖r‖² + (h∥−h⊥)⟨r, x̂⟩², r = x − c, x̂ = x/‖x‖.
        loss = sqdist(xs, cb)                           # (n, k)
        np.maximum(loss, 0.0, out=loss)
        loss *= self.h_perp
        # r‖ component: ⟨x − c, x̂⟩ = ‖x‖ − ⟨c, x̂⟩
        proj = xhat @ cb.T
        np.subtract(norms, proj, out=proj)
        np.square(proj, out=proj)
        proj *= self.h_par - self.h_perp
        loss += proj
        return loss.argmin(axis=1)

    def _update_centers(self, xs: np.ndarray, assign: np.ndarray, cb: np.ndarray) -> np.ndarray:
        """Exact minimizer c* = (Σ M_x)⁻¹ Σ M_x x per cluster; an empty
        cluster keeps its centre.

        A stable argsort groups the rows once, so each cluster is a
        contiguous slice in its original row order and its Σ x xᵀ/‖x‖²
        product and Σ x are the same operations on the same operands as
        with a boolean mask per cluster. The nonempty clusters' systems are
        solved in one stacked call. Each is positive definite, as h∥, h⊥ > 0:
        for a unit v and t = ⟨v, x̂⟩² ∈ [0, 1], vᵀM_x v = (1−t)h⊥ + t·h∥, so
        vᵀ(Σ M_x)v ≥ n·min(h∥, h⊥) > 0 over a cluster of n rows."""
        d = xs.shape[1]
        order = np.argsort(assign, kind="stable")
        pts = xs[order]
        scaled = pts / ((pts**2).sum(axis=1) + 1e-12)[:, None]   # x/‖x‖²
        counts = np.bincount(assign, minlength=len(cb))
        full = np.flatnonzero(counts)
        ends = np.cumsum(counts)[full]
        outer = np.empty((len(full), d, d))
        sums = np.empty((len(full), d))
        for i, (lo, hi) in enumerate(zip((ends - counts[full]).tolist(), ends.tolist())):
            outer[i] = scaled[lo:hi].T @ pts[lo:hi]        # Σ x xᵀ/‖x‖²
            sums[i] = pts[lo:hi].sum(axis=0)
        a = (self.h_perp * counts[full])[:, None, None] * np.eye(d) \
            + (self.h_par - self.h_perp) * outer
        # Σ M_x x = h⊥ Σ x + dh Σ x (since (x xᵀ/‖x‖²) x = x)
        out = cb.copy()
        out[full] = np.linalg.solve(a, self.h_par * sums[:, :, None])[:, :, 0]
        return out

    def fit(self, x: np.ndarray) -> "AnisotropicPQ":
        """Train the codebooks on ``x`` and encode it; ValueError when ``x``
        is not (n, d), holds NaN or infinite values, or has fewer than
        ``n_sub`` dimensions."""
        x = check_data(x)
        n, d = x.shape
        if self.n_sub > d:
            raise ValueError(f"n_sub={self.n_sub} > d={d}: a subspace would be empty")
        rng = np.random.default_rng(self.seed)
        edges = np.linspace(0, d, self.n_sub + 1).astype(int)
        self._bounds = [(int(edges[i]), int(edges[i + 1])) for i in range(self.n_sub)]
        codebooks = []
        codes = np.empty((n, self.n_sub), dtype=np.uint8)
        for s, (lo, hi) in enumerate(self._bounds):
            xs = x[:, lo:hi]
            norms = np.linalg.norm(xs, axis=1, keepdims=True) + 1e-12
            xhat = xs / norms
            k = min(self.n_centers, n)
            cb = xs[rng.choice(n, size=k, replace=False)]
            assign = self._aniso_assign(xs, cb, norms, xhat)
            for _ in range(self.n_iter):
                cb = self._update_centers(xs, assign, cb)
                new_assign = self._aniso_assign(xs, cb, norms, xhat)
                if (new_assign == assign).all():
                    assign = new_assign
                    break
                assign = new_assign
            codebooks.append(cb)
            codes[:, s] = assign
        self.codebooks = [None] * self.n_sub
        self._groups = []
        lows, widths = edges[:-1], np.diff(edges)
        for w in np.unique(widths).tolist():   # linspace makes at most two widths
            subs = np.flatnonzero(widths == w)
            planes = np.stack([codebooks[s].T for s in subs], axis=1)
            for i, s in enumerate(subs.tolist()):
                self.codebooks[s] = planes[:, i].T
            self._groups.append((subs, lows[subs] + np.arange(w)[:, None], planes))
        self.codes = codes
        self._x = x
        return self

    # -- search ------------------------------------------------------------
    def _tables(self, queries: np.ndarray) -> np.ndarray:
        """(n_sub, b, n_centers) lookup tables of a (b, d) block: one
        (d_sub, m, b, n_centers) broadcast per subspace width, squared in
        place, whose d_sub planes are then added left to right into the
        first, so each entry sums its subspace's coordinates left to right."""
        tables = np.empty((self.n_sub, len(queries), self.codebooks[0].shape[0]))
        for subs, cols, planes in self._groups:
            diff = planes[:, :, None] - queries[:, cols].transpose(1, 2, 0)[..., None]
            np.square(diff, out=diff)
            for p in diff[1:]:
                diff[0] += p
            tables[subs] = diff[0]
        return tables

    def adc_distances(
        self, queries: np.ndarray, subset: np.ndarray | None = None,
        owner: np.ndarray | None = None,
    ) -> np.ndarray:
        """Approximate squared distances via per-subspace lookup tables.

        One query (d,) is scored against the rows ``subset`` (every row when
        None). For a block (b, d), ``subset`` holds the block's candidate ids
        concatenated and ``owner`` the block row each id belongs to. The
        block's tables are built together (``_tables``, each subspace's
        coordinates added left to right); then each
        subspace, in order, adds one flat gather offset by the owner, so a
        block row gets exactly the values its query gets alone.
        """
        queries = np.atleast_2d(queries)
        codes = fitted(self.codes)
        codes = codes if subset is None else np.take(codes, subset, axis=0)
        tables = self._tables(queries)
        base = None if owner is None else owner * tables.shape[2]
        total = np.zeros(len(codes))
        for s, table in enumerate(tables.reshape(self.n_sub, -1)):
            total += table[codes[:, s] if base is None else base + codes[:, s]]
        return total

    def search(
        self, queries: np.ndarray, k: int, *,
        subset: list[np.ndarray] | None = None, rerank: int = 100,
    ) -> np.ndarray:
        """ADC scan, then an exact re-rank of the max(rerank, k) rows
        nearest by ADC → top-k point ids, nearest first.

        ``queries`` is a (b, d) block; ``subset`` a list of b id arrays, one
        per query (every row when None). Returns (b, k) ids padded with -1.
        ValueError when the queries' dimension differs from the data's or a
        value is not finite; RuntimeError before ``fit``. The block is cut
        into pieces whose length times longest candidate list is at most
        ``ROW_BUDGET``, and each piece
        makes one ``adc_distances`` and one ``topk_within`` call. Each
        shortlist is cut from its own query's ADC distances by numpy's
        ``argpartition``, so numpy's selection algorithm, not a stated tie
        rule, picks which ADC-tied rows at the cut survive. ADC values tie
        heavily inside a hierarchy leaf, so the answers of a hierarchy's
        candidate sets (perfbench's hier64) depend on it; ROADMAP's "Measured
        and not built" says why the cut is not by (value, position).
        """
        queries = check_queries(queries, fitted(self._x).shape[1])
        every = np.arange(len(self.codes))
        lists = [every if c is None else np.asarray(c, dtype=np.int64)
                 for c in ([None] * len(queries) if subset is None else subset)]
        sizes = np.array([len(c) for c in lists], dtype=np.int64)
        short = np.minimum(max(rerank, k), sizes)
        out = np.full((len(queries), k), -1, dtype=np.int64)
        lo = 0
        while lo < len(queries):
            padded = np.maximum.accumulate(sizes[lo:]) * np.arange(1, len(queries) - lo + 1)
            hi = lo + max(1, int(np.searchsorted(padded, ROW_BUDGET, side="right")))
            if hi - lo == 1:  # one query: its own id array, no row offsets
                ids, owner = lists[lo], None
            else:
                ids = np.concatenate(lists[lo:hi])
                owner = np.repeat(np.arange(hi - lo), sizes[lo:hi])
            approx = self.adc_distances(queries[lo:hi], ids, owner)
            cand = np.full((hi - lo, short[lo:hi].max()), -1, dtype=np.int64)
            start = 0
            for row, (n, r) in enumerate(zip(sizes[lo:hi].tolist(), short[lo:hi].tolist())):
                seg = slice(start, start + n)
                cand[row, :r] = (ids[seg][approx[seg].argpartition(r - 1)[:r]] if r < n
                                 else ids[seg])
                start += n
            out[lo:hi] = topk_within(queries[lo:hi], self._x, cand, k)
            lo = hi
        return out

    def reconstruction(self) -> np.ndarray:
        """Decoded dataset (for quantization-error tests)."""
        out = np.empty_like(fitted(self._x))
        for s, (lo, hi) in enumerate(self._bounds):
            out[:, lo:hi] = self.codebooks[s][self.codes[:, s]]
        return out
