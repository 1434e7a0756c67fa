"""The offline phase (Algorithm 1) on Spark: the k'-NN matrix, partition
inference over the dataset and the bin → ids lookup table.

Each stage runs the numpy code of the single-process path on the executors,
so the two paths return the same ids and bins:

- :func:`knn_matrix_spark` distributes the blocks of rows that
  :func:`~repro.knn.exact.knn_matrix_numpy` loops over, each computed by
  :func:`~repro.knn.exact.knn_block` against the broadcast dataset;
- :func:`assign_bins_spark` broadcasts a fitted predictor (a USP model's
  ``predict_bin``, a K-means ``predict``) and applies it to each batch of
  (id, vec) rows;
- :func:`build_lookup_spark` keeps the (id, bin) table, partitioned by bin.

Serving (Algorithm 2) reads only the model and the lookup, and runs in numpy.
"""
from __future__ import annotations

from typing import Callable, Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.index.base import check_data, check_k
from repro.knn.exact import KNN_BLOCK, knn_block, screen


def vectors_df(spark: SparkSession, x: np.ndarray) -> DataFrame:
    """Wrap a numpy (n, d) matrix as a Spark DataFrame (id: long, vec: array<double>)."""
    return spark.createDataFrame(pd.DataFrame({"id": np.arange(len(x)), "vec": list(map(list, x))}))


def knn_matrix_spark(spark: SparkSession, data: np.ndarray, k: int) -> DataFrame:
    """Distributed k'-NN matrix build (Algorithm 1, Step 1).

    The dataset is broadcast once, with its scaled float32 copy
    (:func:`~repro.knn.exact.screen`) built on the driver; each executor
    takes blocks of ``KNN_BLOCK`` rows, the numpy build's blocks, and
    computes each with :func:`knn_block`. Returns a DataFrame (id: long,
    neighbors: array<long>) whose rows equal those of
    ``knn_matrix_numpy(data, k)``; ValueError in the same cases.
    """
    data = check_data(data)
    n = len(data)
    check_k(k, n)
    bc = spark.sparkContext.broadcast((data, screen(data)))
    n_blocks = -(-n // KNN_BLOCK)
    starts = spark.range(0, n, KNN_BLOCK, min(spark.sparkContext.defaultParallelism, n_blocks))

    def compute(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        x, scr = bc.value
        for pdf in batches:
            for lo in pdf["id"].tolist():
                hi = min(lo + KNN_BLOCK, n)
                neigh = knn_block(x, scr, lo, hi, k)
                yield pd.DataFrame({"id": np.arange(lo, hi), "neighbors": list(neigh)})

    return starts.mapInPandas(compute, schema="id long, neighbors array<long>")


def knn_matrix_spark_collect(spark: SparkSession, data: np.ndarray, k: int) -> np.ndarray:
    """Run the Spark build and materialize the (n, k) index matrix on the
    driver (the training loop indexes it per mini-batch, §4.2.2)."""
    pdf = knn_matrix_spark(spark, data, k).toPandas().sort_values("id")
    return np.stack(pdf["neighbors"].to_numpy()).astype(np.int64)


def assign_bins_spark(
    spark: SparkSession, vec_df: DataFrame, predict: Callable[[np.ndarray], np.ndarray]
) -> DataFrame:
    """Distributed partition inference (Algorithm 1, Step 3).

    ``vec_df`` is (id: long, vec: array<double>); ``predict`` maps an (n, d)
    block to n bin ids, e.g. ``usp.model.predict_bin`` or ``km.predict``. It
    is pickled and broadcast once with the object it is bound to, and each
    executor applies it to its batches. Returns (id: long, bin: long).
    """
    bc = spark.sparkContext.broadcast(predict)

    def score(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        fn = bc.value
        for pdf in batches:
            if len(pdf):
                bins = fn(np.stack(pdf["vec"].to_numpy())).astype(np.int64)
                yield pd.DataFrame({"id": pdf["id"].to_numpy(), "bin": bins})

    return vec_df.mapInPandas(score, schema="id long, bin long")


def build_lookup_spark(spark: SparkSession, assign_df: DataFrame) -> DataFrame:
    """Normalize an assignment DataFrame to the lookup-table schema (id, bin),
    repartitioned by bin so per-bin scans are partition-local."""
    return assign_df.select("id", "bin").repartition("bin")
