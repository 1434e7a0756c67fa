"""USP index wrapper: fit (Algorithm 1), assign, multiprobe ranking
(Algorithm 2), plus Spark-side batch inference from broadcast weights.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.train import TrainConfig, train_usp_model
from repro.index.base import PartitionIndex, check_queries, probe_order
from repro.knn.exact import knn_matrix_numpy, knn_matrix_spark_collect
from repro.nn.layers import softmax
from repro.nn.model import MLP, logistic_regression, mlp_partitioner


def build_model(config: dict) -> MLP:
    """Reconstruct a model from a plain-dict config (picklable → broadcastable)."""
    if config["arch"] == "mlp":
        return mlp_partitioner(
            config["d"], config["m"],
            hidden=config.get("hidden", 128),
            dropout=config.get("dropout", 0.1),
            seed=config.get("seed", 0),
        )
    if config["arch"] == "logreg":
        return logistic_regression(config["d"], config["m"], seed=config.get("seed", 0))
    raise ValueError(f"unknown arch {config['arch']!r}")


class UnsupervisedSpacePartitioner(PartitionIndex):
    """The paper's contribution as a fit/assign/probe index.

    ``fit`` builds the k'-NN matrix (via Spark when a session is passed,
    numpy otherwise), trains the model with the USP loss, and materializes
    the partition of X (Algorithm 1 Steps 1–3).
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
        self.cfg = cfg or TrainConfig(m=m, seed=seed)
        self.cfg.m = m
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
        spark: SparkSession | None = None,
    ) -> "UnsupervisedSpacePartitioner":
        x = np.asarray(x, dtype=np.float64)
        if knn_idx is None:
            if spark is not None:
                knn_idx = knn_matrix_spark_collect(spark, x, self.k_prime)
            else:
                knn_idx = knn_matrix_numpy(x, self.k_prime)
        self.model = build_model(self.config(d=x.shape[1]))
        train_usp_model(self.model, x, knn_idx, self.cfg, weights)
        self._x = x
        self._data_bins = self.model.predict_bin(x)
        return self

    def config(self, d: int | None = None) -> dict:
        return {
            "arch": self.arch,
            "d": d if d is not None else self._x.shape[1],
            "m": self.n_bins,
            "hidden": self.hidden,
            "dropout": self.dropout,
            "seed": self.seed,
        }

    # -- online phase ------------------------------------------------------
    def predict_proba(self, queries: np.ndarray) -> np.ndarray:
        """(n_q, m) bin probabilities; ValueError when the queries' dimension
        is not the data's or they hold NaN or infinite values."""
        return self.model.predict_proba(check_queries(queries, self._x.shape[1]))

    def probe_matrix(self, queries: np.ndarray) -> np.ndarray:
        """Bins ranked by assigned probability, most probable first (Alg. 2)."""
        return probe_order(self.predict_proba(queries))


def assign_bins_spark(
    spark: SparkSession, vec_df: DataFrame, config: dict, weights: list[np.ndarray]
) -> DataFrame:
    """Distributed partition inference (Algorithm 1 Step 3 / Algorithm 2 Step 1).

    ``vec_df`` is (id: long, vec: array<double>); the model config + weights
    are broadcast; executors rebuild the model once per partition and score
    their rows vectorized. Returns (id, bin, prob) where ``prob`` is the max
    bin probability (the model's confidence for that point).
    """
    bc = spark.sparkContext.broadcast((config, [np.asarray(w) for w in weights]))

    def score(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        cfg, w = bc.value
        model = build_model(cfg)
        model.set_weights(w)
        for pdf in batches:
            if not len(pdf):
                continue
            logits = model.forward(np.stack(pdf["vec"].to_numpy()), train=False)
            yield pd.DataFrame(
                {
                    "id": pdf["id"].to_numpy(),
                    # Same rule as MLP.predict_bin, so both paths agree on bins.
                    "bin": logits.argmax(axis=1).astype(np.int64),
                    "prob": softmax(logits).max(axis=1),
                }
            )

    return vec_df.mapInPandas(score, schema="id long, bin long, prob double")
