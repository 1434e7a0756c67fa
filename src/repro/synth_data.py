"""Synthetic datasets for the reproduction.

``sift_lite`` and ``mnist_lite`` stand in for the paper's SIFT and MNIST
vectors; ``moons``, ``circles`` and ``classification_blobs`` are the 2-D
sets of the Table 5 clustering study. Generators are deterministic in
``seed``.
"""
import numpy as np


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Vector datasets for the ANN-search reproduction (EDBT'23 USP paper).
#
# The paper evaluates on SIFT (1M x 128) and MNIST (60k x 784) from
# ann-benchmarks, which cannot be downloaded offline. ``sift_lite`` and
# ``mnist_lite`` are GMM-based synthetic stand-ins that preserve the
# properties the method exploits: multi-modal clustered density, anisotropic
# covariance, a uniform noise floor, and out-of-sample queries drawn from the
# same distribution (see DESIGN.md "Dataset substitution rationale").
# ---------------------------------------------------------------------------


def _gmm_vectors(
    g: np.random.Generator,
    n: int,
    d: int,
    n_components: int,
    *,
    spread: float = 10.0,
    scale_lo: float = 0.5,
    scale_hi: float = 2.0,
    noise_frac: float = 0.05,
    rank: int | None = None,
) -> np.ndarray:
    """Sample ``n`` points from an anisotropic Gaussian mixture in R^d.

    ``rank`` < d embeds the mixture on a low-rank manifold plus small ambient
    noise (the MNIST-like case). ``noise_frac`` of the points are uniform
    background noise so partitions cannot rely on pure cluster purity.
    """
    means = g.normal(0.0, spread, size=(n_components, d))
    # Per-component anisotropic axis scales.
    scales = g.uniform(scale_lo, scale_hi, size=(n_components, d))
    comp = g.integers(0, n_components, size=n)
    x = means[comp] + g.normal(0.0, 1.0, size=(n, d)) * scales[comp]
    if rank is not None and rank < d:
        proj = np.linalg.qr(g.normal(size=(d, rank)))[0]  # d x rank, orthonormal
        x = (x @ proj) @ proj.T + g.normal(0.0, 0.05, size=(n, d))
    n_noise = int(n * noise_frac)
    if n_noise:
        lo, hi = x.min(axis=0), x.max(axis=0)
        idx = g.choice(n, size=n_noise, replace=False)
        x[idx] = g.uniform(lo, hi, size=(n_noise, d))
    return x.astype(np.float64)


def sift_lite(
    *, n: int = 20_000, d: int = 32, n_queries: int = 1_000,
    n_components: int = 64, seed: int = 10,
) -> tuple[np.ndarray, np.ndarray]:
    """SIFT stand-in: many moderately separated anisotropic clusters.

    Returns ``(data, queries)`` numpy arrays; queries are fresh draws from the
    same mixture (paper: query distribution == data distribution).
    """
    g = _rng(seed)
    both = _gmm_vectors(g, n + n_queries, d, n_components)
    perm = g.permutation(n + n_queries)
    both = both[perm]
    return both[:n], both[n : n + n_queries]


def mnist_lite(
    *, n: int = 10_000, d: int = 64, n_queries: int = 500,
    n_components: int = 10, seed: int = 11,
) -> tuple[np.ndarray, np.ndarray]:
    """MNIST stand-in: few clusters on a low-rank manifold in high ambient d."""
    g = _rng(seed)
    both = _gmm_vectors(
        g, n + n_queries, d, n_components, spread=6.0, rank=max(8, d // 4)
    )
    perm = g.permutation(n + n_queries)
    both = both[perm]
    return both[:n], both[n : n + n_queries]


# --- 2D toy datasets (sklearn stand-ins) for the Table 5 clustering study ---


def moons(*, n: int = 1_000, noise: float = 0.05, seed: int = 12) -> tuple[np.ndarray, np.ndarray]:
    """Two interleaving half-circles; returns (points, labels)."""
    g = _rng(seed)
    n1 = n // 2
    n2 = n - n1
    t1 = np.pi * g.random(n1)
    t2 = np.pi * g.random(n2)
    x1 = np.c_[np.cos(t1), np.sin(t1)]
    x2 = np.c_[1.0 - np.cos(t2), 0.5 - np.sin(t2)]
    x = np.vstack([x1, x2]) + g.normal(0, noise, size=(n, 2))
    y = np.r_[np.zeros(n1, dtype=int), np.ones(n2, dtype=int)]
    perm = g.permutation(n)
    return x[perm], y[perm]


def circles(*, n: int = 1_000, factor: float = 0.5, noise: float = 0.05, seed: int = 13) -> tuple[np.ndarray, np.ndarray]:
    """Concentric circles; returns (points, labels)."""
    g = _rng(seed)
    n1 = n // 2
    n2 = n - n1
    t1 = 2 * np.pi * g.random(n1)
    t2 = 2 * np.pi * g.random(n2)
    x = np.vstack([np.c_[np.cos(t1), np.sin(t1)], factor * np.c_[np.cos(t2), np.sin(t2)]])
    x += g.normal(0, noise, size=(n, 2))
    y = np.r_[np.zeros(n1, dtype=int), np.ones(n2, dtype=int)]
    perm = g.permutation(n)
    return x[perm], y[perm]


def classification_blobs(
    *, n: int = 1_000, n_clusters: int = 4, d: int = 2, sep: float = 5.0,
    stretch: float = 8.0, seed: int = 14
) -> tuple[np.ndarray, np.ndarray]:
    """``make_classification``-style anisotropic clusters: parallel elongated
    "bars" stacked along their short axis, then rotated — the sklearn
    "anisotropicly distributed data" pitfall. K-means' spherical bias cuts
    the bars lengthwise; density/graph methods separate them cleanly.

    ``sep`` is the bar half-length, ``stretch`` scales the gap:bar-width
    ratio. Extra dims (d > 2) get thin normal noise.
    """
    g = _rng(seed)
    w = 0.25
    gap = w * 10.0 * (stretch / 8.0)
    y = g.integers(0, n_clusters, size=n)
    u = g.uniform(-sep, sep, n)
    v = g.normal(0, w, n) + y * gap
    x = np.c_[u, v, g.normal(0, w, size=(n, d - 2))] if d > 2 else np.c_[u, v]
    theta = 0.6
    rot = np.eye(d)
    rot[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    return x @ rot, y
