"""Balanced k-NN-graph partitioning — the KaHIP substitute for Neural LSH.

Neural LSH generates its training labels by running KaHIP's balanced graph
partitioner on the k-NN graph (Dong et al. 2020, citing Sanders & Schulz).
KaHIP is unavailable offline, so we implement the classic two-phase scheme it
refines: greedy graph growing (BFS from spread-out seeds under a capacity of
⌈n/m⌉·(1+ε)) followed by Kernighan–Lin/Fiduccia–Mattheyses-style boundary
refinement that moves vertices to the neighboring block with the largest
edge-cut gain subject to the balance constraint. This preserves what Neural
LSH needs from KaHIP: balanced blocks with low k-NN edge cut.
"""
from __future__ import annotations

import numpy as np

REFINE_PASSES = 5  # at most this many boundary-refinement sweeps


def knn_graph_adjacency(knn_idx: np.ndarray) -> list[np.ndarray]:
    """Symmetrized adjacency lists from a (n, k') neighbor-index matrix."""
    n = len(knn_idx)
    pairs: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in knn_idx[i]:
            pairs[i].append(int(j))
            pairs[int(j)].append(i)
    return [np.unique(np.array(p, dtype=np.int64)) for p in pairs]


def connected_components(knn_idx: np.ndarray) -> np.ndarray:
    """Component id per vertex of the symmetrized k-NN graph (union-find)."""
    n = len(knn_idx)
    parent = np.arange(n)

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        ri = find(i)
        for j in knn_idx[i]:
            rj = find(int(j))
            if ri != rj:
                parent[rj] = ri
                ri = find(i)
    roots = np.array([find(i) for i in range(n)])
    _, comp = np.unique(roots, return_inverse=True)
    return comp


def edge_cut(adj: list[np.ndarray], labels: np.ndarray) -> int:
    """Number of graph edges whose endpoints fall in different blocks."""
    cut = 0
    for i, nbrs in enumerate(adj):
        cut += int((labels[nbrs] != labels[i]).sum())
    return cut // 2


def balanced_graph_partition(
    knn_idx: np.ndarray,
    m: int,
    *,
    eps: float = 0.05,
    seed: int = 0,
) -> np.ndarray:
    """Balanced m-way partition labels of the k-NN graph.

    Greedy growing then boundary refinement; block sizes stay within
    ⌈n/m⌉·(1+eps). ValueError when m is outside [1, n], so every block gets
    its own seed vertex (only seeds are at BFS distance 0).
    """
    n = len(knn_idx)
    if not 1 <= m <= n:
        raise ValueError(f"m={m} blocks outside [1, n={n}]")
    adj = knn_graph_adjacency(knn_idx)
    rng = np.random.default_rng(seed)
    cap = int(np.ceil(n / m) * (1 + eps))
    labels = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(m, dtype=np.int64)

    # --- phase 1: greedy BFS growing from spread-out seeds ---------------
    # Farthest-point seeding in graph distance: each new seed is a vertex at
    # maximal multi-source BFS distance from the existing seeds, so separate
    # graph components (and far-apart regions) always get their own seed.
    seeds = [int(rng.integers(n))]
    dist = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)

    def bfs_from(src: int) -> None:
        dist[src] = 0
        frontier = [src]
        level = 0
        while frontier:
            level += 1
            nxt = []
            for v in frontier:
                for u in adj[v]:
                    if dist[u] > level:
                        dist[u] = level
                        nxt.append(int(u))
            frontier = nxt

    bfs_from(seeds[0])
    while len(seeds) < m:
        far = int(dist.argmax())
        seeds.append(far)
        bfs_from(far)
    frontiers: list[list[int]] = []
    for b, s in enumerate(seeds):
        labels[s] = b
        sizes[b] = 1
        frontiers.append(list(adj[s]))
    active = set(range(m))
    while active:
        for b in list(active):
            grew = False
            while frontiers[b] and sizes[b] < cap:
                v = frontiers[b].pop()
                if labels[v] == -1:
                    labels[v] = b
                    sizes[b] += 1
                    frontiers[b].extend(int(u) for u in adj[v] if labels[u] == -1)
                    grew = True
                    break
            if not grew or sizes[b] >= cap:
                active.discard(b)
    # Disconnected leftovers → smallest block.
    for v in np.nonzero(labels == -1)[0]:
        b = int(sizes.argmin())
        labels[v] = b
        sizes[b] += 1

    # --- phase 2: KL/FM-style boundary refinement ------------------------
    for _ in range(REFINE_PASSES):
        moved = 0
        order = rng.permutation(n)
        for v in order:
            nbrs = adj[v]
            if len(nbrs) == 0:
                continue
            cur = labels[v]
            counts = np.bincount(labels[nbrs], minlength=m)
            best = int(counts.argmax())
            if best == cur:
                continue
            gain = counts[best] - counts[cur]
            if gain > 0 and sizes[best] < cap and sizes[cur] > 1:
                labels[v] = best
                sizes[cur] -= 1
                sizes[best] += 1
                moved += 1
        if moved == 0:
            break
    return labels
