"""Clustering agreement metric (sklearn stand-in): the adjusted Rand index.

Noise labels (-1, from DBSCAN) are treated as their own cluster, the same
convention sklearn's ARI uses when fed raw DBSCAN output.
"""
from __future__ import annotations

import numpy as np


def _contingency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    au, ai = np.unique(a, return_inverse=True)
    bu, bi = np.unique(b, return_inverse=True)
    m = np.zeros((len(au), len(bu)), dtype=np.int64)
    np.add.at(m, (ai, bi), 1)
    return m


def adjusted_rand_index(labels_true: np.ndarray, labels_pred: np.ndarray) -> float:
    """Hubert & Arabie's adjusted Rand index in [-1, 1], 1 = identical."""
    m = _contingency(np.asarray(labels_true), np.asarray(labels_pred))
    n = m.sum()
    sum_comb = (m * (m - 1) // 2).sum()
    a = m.sum(axis=1)
    b = m.sum(axis=0)
    sum_a = (a * (a - 1) // 2).sum()
    sum_b = (b * (b - 1) // 2).sum()
    total = n * (n - 1) // 2
    expected = sum_a * sum_b / total if total else 0.0
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:
        return 1.0
    return float((sum_comb - expected) / (max_index - expected))

