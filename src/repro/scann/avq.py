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
lookup tables + exact re-ranking of the best ``rerank`` candidates.
"""
from __future__ import annotations

import numpy as np

from repro.index.search import topk_within
from repro.knn.exact import sqdist


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
        if n_centers > 256:
            raise ValueError(f"n_centers={n_centers} > 256: codes are stored as uint8")
        self.n_sub = n_sub
        self.n_centers = n_centers
        self.h_par = h_par
        self.h_perp = h_perp
        self.n_iter = n_iter
        self.seed = seed
        self.codebooks: list[np.ndarray] = []   # per-subspace (n_centers, d_sub)
        self.codes: np.ndarray | None = None    # (n, n_sub) uint8
        self._bounds: list[tuple[int, int]] = []

    # -- training ----------------------------------------------------------
    def _aniso_assign(self, xs: np.ndarray, cb: np.ndarray) -> np.ndarray:
        """Assign each subvector to the codeword minimizing ℓ(x, c)."""
        # ℓ = h⊥‖r‖² + (h∥−h⊥)⟨r, x̂⟩², r = x − c, x̂ = x/‖x‖.
        norms = np.linalg.norm(xs, axis=1, keepdims=True) + 1e-12
        xhat = xs / norms
        # r‖ component: ⟨x − c, x̂⟩ = ‖x‖ − ⟨c, x̂⟩
        proj = norms - xhat @ cb.T                      # (n, k)
        d2 = sqdist(xs, cb)
        np.maximum(d2, 0.0, out=d2)
        loss = self.h_perp * d2 + (self.h_par - self.h_perp) * proj**2
        return loss.argmin(axis=1)

    def _update_centers(self, xs: np.ndarray, assign: np.ndarray, cb: np.ndarray) -> np.ndarray:
        """Exact minimizer c* = (Σ M_x)⁻¹ Σ M_x x per cluster."""
        d = xs.shape[1]
        norms2 = (xs**2).sum(axis=1) + 1e-12
        out = cb.copy()
        dh = self.h_par - self.h_perp
        for j in range(len(cb)):
            pts = xs[assign == j]
            if not len(pts):
                continue
            n2 = norms2[assign == j]
            outer = (pts / n2[:, None]).T @ pts          # Σ x xᵀ/‖x‖²
            a = self.h_perp * len(pts) * np.eye(d) + dh * outer
            # Σ M_x x = h⊥ Σ x + dh Σ x (since (x xᵀ/‖x‖²) x = x)
            b = self.h_par * pts.sum(axis=0)
            try:
                out[j] = np.linalg.solve(a, b)
            except np.linalg.LinAlgError:
                out[j] = pts.mean(axis=0)
        return out

    def fit(self, x: np.ndarray) -> "AnisotropicPQ":
        x = np.asarray(x, dtype=np.float64)
        n, d = x.shape
        rng = np.random.default_rng(self.seed)
        edges = np.linspace(0, d, self.n_sub + 1).astype(int)
        self._bounds = [(int(edges[i]), int(edges[i + 1])) for i in range(self.n_sub)]
        self.codebooks = []
        codes = np.empty((n, self.n_sub), dtype=np.uint8)
        for s, (lo, hi) in enumerate(self._bounds):
            xs = x[:, lo:hi]
            k = min(self.n_centers, n)
            cb = xs[rng.choice(n, size=k, replace=False)]
            assign = self._aniso_assign(xs, cb)
            for _ in range(self.n_iter):
                cb = self._update_centers(xs, assign, cb)
                new_assign = self._aniso_assign(xs, cb)
                if (new_assign == assign).all():
                    assign = new_assign
                    break
                assign = new_assign
            self.codebooks.append(cb)
            codes[:, s] = assign
        self.codes = codes
        self._x = x
        return self

    # -- search ------------------------------------------------------------
    def adc_distances(self, query: np.ndarray, subset: np.ndarray | None = None) -> np.ndarray:
        """Approximate squared distances via per-subspace lookup tables."""
        codes = self.codes if subset is None else self.codes[subset]
        total = np.zeros(len(codes))
        for s, (lo, hi) in enumerate(self._bounds):
            qsub = query[lo:hi]
            table = ((self.codebooks[s] - qsub) ** 2).sum(axis=1)  # (n_centers,)
            total += table[codes[:, s]]
        return total

    def search(
        self, query: np.ndarray, k: int, *, subset: np.ndarray | None = None, rerank: int = 100
    ) -> np.ndarray:
        """ADC scan (+ optional exact re-rank) → top-k point ids."""
        query = np.asarray(query, dtype=np.float64)
        ids = np.arange(len(self.codes)) if subset is None else np.asarray(subset)
        if len(ids) == 0:
            return np.empty(0, dtype=np.int64)
        approx = self.adc_distances(query, None if subset is None else ids)
        r = min(max(rerank, k), len(ids))
        cand_pos = np.argpartition(approx, r - 1)[:r] if r < len(ids) else np.arange(len(ids))
        return topk_within(query, self._x, ids[cand_pos], k)

    def reconstruction(self) -> np.ndarray:
        """Decoded dataset (for quantization-error tests)."""
        out = np.empty_like(self._x)
        for s, (lo, hi) in enumerate(self._bounds):
            out[:, lo:hi] = self.codebooks[s][self.codes[:, s]]
        return out
