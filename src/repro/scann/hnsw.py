"""HNSW (Malkov & Yashunin) — graph-based ANN baseline of §5.4.3.

Standard hierarchical navigable small-world graph: exponential level
assignment, greedy descent through upper layers, beam search (ef) at layer 0,
neighbor selection by the diversity heuristic (the HNSW paper's Algorithm 4),
which keeps a candidate only if it is closer to the new node than to every
neighbor already kept. Compact numpy/heapq implementation sized for the
reproduction's 10–20k-point datasets.
"""
from __future__ import annotations

import heapq

import numpy as np

from repro.index.base import check_data, check_queries


class HNSW:
    def __init__(
        self,
        M: int = 8,
        ef_construction: int = 64,
        *,
        seed: int = 0,
    ):
        self.M = M
        self.M0 = 2 * M
        self.ef_construction = ef_construction
        self.seed = seed
        self.levels: list[int] = []
        self.graphs: list[dict[int, list[int]]] = []  # per-layer adjacency
        self.entry: int | None = None
        self._x: np.ndarray | None = None

    def _dist(self, a: int, q: np.ndarray) -> float:
        return float(np.linalg.norm(self._x[a] - q))

    def _select_heuristic(self, q: np.ndarray, cand: list[int], m: int) -> list[int]:
        """HNSW Algorithm 4 neighbor selection: scan candidates by distance to
        ``q`` and keep one only if it is closer to ``q`` than to every
        already-kept neighbor. Preserves long-range links between clusters,
        which plain closest-M pruning destroys (disconnecting the graph)."""
        order = sorted(cand, key=lambda v: self._dist(v, q))
        kept: list[int] = []
        for v in order:
            dv = self._dist(v, q)
            if all(dv < np.linalg.norm(self._x[v] - self._x[u]) for u in kept):
                kept.append(v)
            if len(kept) >= m:
                return kept
        # Fill remaining slots with the closest rejected candidates.
        for v in order:
            if v not in kept:
                kept.append(v)
            if len(kept) >= m:
                break
        return kept

    def _search_layer(self, q: np.ndarray, entry: int, ef: int, layer: int) -> list[tuple[float, int]]:
        """Beam search in one layer; returns [(dist, id)] sorted ascending."""
        g = self.graphs[layer]
        visited = {entry}
        d0 = self._dist(entry, q)
        cand = [(d0, entry)]          # min-heap
        best = [(-d0, entry)]         # max-heap of current top-ef
        while cand:
            d, v = heapq.heappop(cand)
            if d > -best[0][0] and len(best) >= ef:
                break
            for u in g.get(v, []):
                if u in visited:
                    continue
                visited.add(u)
                du = self._dist(u, q)
                if len(best) < ef or du < -best[0][0]:
                    heapq.heappush(cand, (du, u))
                    heapq.heappush(best, (-du, u))
                    if len(best) > ef:
                        heapq.heappop(best)
        return sorted((-d, u) for d, u in best)

    def fit(self, x: np.ndarray) -> "HNSW":
        """Insert the rows of ``x`` one by one; ValueError when ``x`` is not
        (n, d) or holds NaN or infinite values."""
        self._x = check_data(x)
        n = len(self._x)
        rng = np.random.default_rng(self.seed)
        ml = 1.0 / np.log(self.M)
        self.levels = np.minimum(
            (-np.log(rng.random(n)) * ml).astype(int), 6
        ).tolist()
        max_level = max(self.levels)
        self.graphs = [dict() for _ in range(max_level + 1)]
        self.entry = 0
        entry_level = self.levels[0]
        for layer in range(self.levels[0] + 1):
            self.graphs[layer][0] = []
        for i in range(1, n):
            q = self._x[i]
            li = self.levels[i]
            ep = self.entry
            # Greedy descent above the insertion level.
            for layer in range(entry_level, li, -1):
                if layer >= len(self.graphs):
                    continue
                res = self._search_layer(q, ep, 1, layer)
                ep = res[0][1]
            # Insert with beam search at each layer ≤ li.
            for layer in range(min(li, entry_level), -1, -1):
                res = self._search_layer(q, ep, self.ef_construction, layer)
                m = self.M0 if layer == 0 else self.M
                nbrs = self._select_heuristic(q, [u for _, u in res], m)
                self.graphs[layer][i] = nbrs
                for u in nbrs:
                    lst = self.graphs[layer].setdefault(u, [])
                    lst.append(i)
                    if len(lst) > m:
                        self.graphs[layer][u] = self._select_heuristic(
                            self._x[u], lst, m
                        )
                ep = res[0][1]
            for layer in range(entry_level + 1, li + 1):
                self.graphs[layer][i] = []
            if li > entry_level:
                self.entry = i
                entry_level = li
        return self

    def search(self, query: np.ndarray, k: int, *, ef: int = 50) -> np.ndarray:
        """Ids of the ``k`` nearest rows found for one query (d,), nearest
        first; ValueError when it has another dimension or holds NaN or
        infinite values."""
        q = check_queries(np.reshape(query, (1, -1)), self._x.shape[1])[0]
        ep = self.entry
        for layer in range(len(self.graphs) - 1, 0, -1):
            if ep in self.graphs[layer]:
                ep = self._search_layer(q, ep, 1, layer)[0][1]
        res = self._search_layer(q, ep, max(ef, k), 0)
        return np.array([u for _, u in res[:k]], dtype=np.int64)
