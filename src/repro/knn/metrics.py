"""Search-quality metrics: the paper's k-NN accuracy (Eq. 1)."""
from __future__ import annotations

import numpy as np


def knn_accuracy(returned: np.ndarray, truth: np.ndarray) -> float:
    """Mean |N'_k(q) ∩ N_k(q)| / k over queries (Eq. 1).

    ``returned``/``truth`` are (n_queries, k) arrays of point ids; rows of
    ``returned`` may be shorter lists padded with -1 (no match).
    """
    returned = np.asarray(returned)
    truth = np.asarray(truth)
    # A truth id is a hit if it appears anywhere in its row of ``returned``;
    # truth rows are distinct ids >= 0, so this is the set intersection and
    # the -1 padding never matches.
    hits = (truth[:, :, None] == returned[:, None, :]).any(axis=2).sum()
    return int(hits) / truth.size
