"""USP index wrapper: fit (Algorithm 1), assign, multiprobe ranking
(Algorithm 2).
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.train import TrainConfig, train_usp_model
from repro.index.base import PartitionIndex, check_queries, probe_order
from repro.knn.exact import knn_matrix_numpy
from repro.nn.model import MLP, logistic_regression, mlp_partitioner


def build_model(
    arch: str, d: int, m: int, *, hidden: int = 128, dropout: float = 0.1, seed: int = 0
) -> MLP:
    """A fresh, untrained ``arch`` model ("mlp" or "logreg") from d inputs to m bins."""
    if arch == "mlp":
        return mlp_partitioner(d, m, hidden=hidden, dropout=dropout, seed=seed)
    if arch == "logreg":
        return logistic_regression(d, m, seed=seed)
    raise ValueError(f"unknown arch {arch!r}")


class UnsupervisedSpacePartitioner(PartitionIndex):
    """The paper's contribution as a fit/assign/probe index.

    ``fit`` builds the k'-NN matrix (or takes a given one, such as
    :func:`repro.spark.knn_matrix_spark_collect`'s), trains the model with
    the USP loss, and materializes the partition of X (Algorithm 1 Steps
    1–3). A given ``cfg`` is copied with ``m`` set, never changed.
    """

    def __init__(
        self,
        m: int,
        *,
        arch: str = "mlp",
        hidden: int = 128,
        dropout: float = 0.1,
        k_prime: int = 10,
        cfg: TrainConfig | None = None,
        seed: int = 0,
    ):
        self.n_bins = m
        self.arch = arch
        self.hidden = hidden
        self.dropout = dropout
        self.k_prime = k_prime
        self.cfg = replace(cfg, m=m) if cfg else TrainConfig(m=m, seed=seed)
        self.seed = seed
        self.model: MLP | None = None
        self._x: np.ndarray | None = None

    # -- offline phase -----------------------------------------------------
    def fit(
        self,
        x: np.ndarray,
        *,
        knn_idx: np.ndarray | None = None,
        weights: np.ndarray | None = None,
    ) -> "UnsupervisedSpacePartitioner":
        x = np.asarray(x, dtype=np.float64)
        if knn_idx is None:
            knn_idx = knn_matrix_numpy(x, self.k_prime)
        self.model = build_model(self.arch, x.shape[1], self.n_bins, hidden=self.hidden,
                                 dropout=self.dropout, seed=self.seed)
        train_usp_model(self.model, x, knn_idx, self.cfg, weights)
        self._x = x
        self._data_bins = self.model.predict_bin(x)
        return self

    # -- online phase ------------------------------------------------------
    def predict_proba(self, queries: np.ndarray) -> np.ndarray:
        """(n_q, m) bin probabilities; ValueError when the queries' dimension
        is not the data's or they hold NaN or infinite values."""
        return self.model.predict_proba(check_queries(queries, self._x.shape[1]))

    def probe_matrix(self, queries: np.ndarray) -> np.ndarray:
        """Bins ranked by assigned probability, most probable first (Alg. 2)."""
        return probe_order(self.predict_proba(queries))

