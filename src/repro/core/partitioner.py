"""USP index wrapper: fit (Algorithm 1), assign, multiprobe ranking
(Algorithm 2) through the one leaf scorer of :mod:`repro.index.tree`.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.train import TrainConfig, train_usp_model
from repro.index import tree
from repro.index.base import check_data, check_knn
from repro.knn.exact import knn_matrix_numpy
from repro.nn.model import MLP, logistic_regression, mlp_partitioner


def check_arch(arch: str) -> None:
    """ValueError unless ``arch`` is "mlp" or "logreg"."""
    if arch not in ("mlp", "logreg"):
        raise ValueError(f"unknown arch {arch!r}")


def build_model(arch: str, d: int, m: int, *, seed: int = 0) -> MLP:
    """A fresh, untrained ``arch`` model ("mlp" or "logreg") from d inputs to m bins."""
    check_arch(arch)
    if arch == "logreg":
        return logistic_regression(d, m, seed=seed)
    return mlp_partitioner(d, m, seed=seed)


class UnsupervisedSpacePartitioner(tree.TreeIndex):
    """The paper's contribution as a fit/assign/probe index.

    ``fit`` builds the k'-NN matrix (or takes a given one, such as
    :func:`repro.spark.knn_matrix_spark_collect`'s), trains the paper's MLP
    (:func:`~repro.nn.model.mlp_partitioner`) with the USP loss, and
    materializes the partition of X (Algorithm 1 Steps 1–3). A given ``cfg``
    is copied with ``m`` set, never changed. ``root`` is the trained model's
    stump.
    """

    def __init__(
        self,
        m: int,
        *,
        k_prime: int = 10,
        cfg: TrainConfig | None = None,
        seed: int = 0,
    ):
        self.n_bins = m
        self.k_prime = k_prime
        self.cfg = replace(cfg, m=m) if cfg else TrainConfig(m=m, seed=seed)
        self.seed = seed
        self.model: MLP | None = None

    # -- offline phase -----------------------------------------------------
    def fit(
        self,
        x: np.ndarray,
        *,
        knn_idx: np.ndarray | None = None,
        weights: np.ndarray | None = None,
    ) -> "UnsupervisedSpacePartitioner":
        x = check_data(x)
        self.model = mlp_partitioner(x.shape[1], self.n_bins, seed=self.seed)
        knn_idx = (knn_matrix_numpy(x, self.k_prime) if knn_idx is None
                   else check_knn(knn_idx, len(x)))
        train_usp_model(self.model, x, knn_idx, self.cfg, weights)
        self.root = tree.stump(self.model, self.n_bins, x.shape[1])
        self._data_bins = self.model.predict_bin(x)
        return self

    # -- online phase ------------------------------------------------------
    # Defined on this class itself: perfbench's tracer wraps it here.
    def probe_matrix(self, queries: np.ndarray) -> np.ndarray:
        """Bins ranked by assigned probability, most probable first (Alg. 2)."""
        return super().probe_matrix(queries)

