"""Exact (brute-force) k-NN: numpy reference and Spark-distributed build.

The Spark build is the distributed-dataflow version of the paper's k'-NN
matrix construction (§4.2.1): the dataset is a DataFrame of (id, vec) rows;
each executor block computes distances from its rows to the *broadcast*
dataset with vectorized numpy, keeping the top-k per row. At the scale
factors used here the full dataset broadcast is a few MB — the same pattern
an ANN index build over object-store shards uses (block × broadcast probe
side). Correctness is oracle-checked against a DuckDB SQL cross-join top-k
in the tests.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) squared Euclidean distances via the expansion
    ‖a‖² − 2a·b + ‖b‖². Floating-point error can leave tiny negatives;
    callers that need non-negative values clamp them."""
    return (a**2).sum(axis=1, keepdims=True) - 2.0 * a @ b.T + (b**2).sum(axis=1)


def _smallest_per_row(d2: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Column ids of the ``k`` smallest entries of each row of ``d2`` and
    those entries, in increasing order; ties keep their argpartition order."""
    idx = np.argpartition(d2, k - 1, axis=1)[:, :k]
    part = np.take_along_axis(d2, idx, axis=1)
    order = np.argsort(part, axis=1, kind="stable")
    return np.take_along_axis(idx, order, axis=1), np.take_along_axis(part, order, axis=1)


def topk_neighbors(
    queries: np.ndarray, data: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k nearest rows of ``data`` for each row of ``queries``.

    Returns ``(indices, distances)`` each of shape (n_queries, k), neighbors
    sorted by increasing Euclidean distance.
    """
    queries = np.asarray(queries, dtype=np.float64)
    data = np.asarray(data, dtype=np.float64)
    d2 = sqdist(queries, data)
    np.maximum(d2, 0.0, out=d2)
    idx, part = _smallest_per_row(d2, min(k, d2.shape[1]))
    return idx, np.sqrt(part)


def knn_matrix_numpy(data: np.ndarray, k: int, *, block: int = 256) -> np.ndarray:
    """k'-NN matrix (n, k) of neighbor *indices*, self excluded, blocked to
    bound peak memory — the driver-side reference implementation. A block
    of 256 rows holds 2 KB of distances per point of ``data`` (12 MB at
    n = 6000). The block does not change the result, except that a one-row
    block rounds differently and may swap exact duplicates."""
    n = len(data)
    out = np.empty((n, min(k, n - 1)), dtype=np.int64)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        d2 = sqdist(data[lo:hi], data)
        np.maximum(d2, 0.0, out=d2)
        d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        out[lo:hi] = _smallest_per_row(d2, out.shape[1])[0]
    return out


def knn_matrix_spark(
    spark: SparkSession, data: np.ndarray, k: int, *, n_blocks: int | None = None
) -> DataFrame:
    """Distributed k'-NN matrix build (Algorithm 1, Step 1).

    Rows of ``data`` are sharded across executors; the full dataset is
    broadcast once. Returns a DataFrame (id: long, neighbors: array<long>)
    where ``neighbors`` holds the k nearest other points, nearest first.
    """
    n = len(data)
    kk = min(k, n - 1)
    bc = spark.sparkContext.broadcast(np.asarray(data, dtype=np.float64))
    if n_blocks is None:
        n_blocks = max(1, min(spark.sparkContext.defaultParallelism, n // 256 or 1))
    ids = spark.range(0, n, 1, n_blocks)  # column "id"

    def compute(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        x = bc.value
        for pdf in batches:
            rows = pdf["id"].to_numpy()
            idx, _ = topk_neighbors(x[rows], x, kk + 1)
            # Drop the self column wherever it appears (duplicates can tie
            # with it or push it out of the top kk + 1), then keep the first
            # kk of what is left; every row keeps at least kk entries.
            keep = idx != rows[:, None]
            keep &= np.cumsum(keep, axis=1) <= kk
            neigh = idx[keep].reshape(len(rows), kk)
            yield pd.DataFrame({"id": rows, "neighbors": list(map(list, neigh))})

    return ids.mapInPandas(compute, schema="id long, neighbors array<long>")


def knn_matrix_spark_collect(
    spark: SparkSession, data: np.ndarray, k: int
) -> np.ndarray:
    """Run the Spark build and materialize the (n, k) index matrix on the
    driver (the training loop indexes it per mini-batch, §4.2.2)."""
    pdf = knn_matrix_spark(spark, data, k).toPandas().sort_values("id")
    return np.stack(pdf["neighbors"].to_numpy()).astype(np.int64)
