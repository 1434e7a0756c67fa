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
    ‖a‖² − 2a·b + ‖b‖², built in the one (len(a), len(b)) buffer the
    product returns. Floating-point error can leave tiny negatives;
    callers that need non-negative values clamp them.

    Bit-identical to ``(a**2).sum(1, keepdims=True) - 2.0 * a @ b.T +
    (b**2).sum(1)``: scaling by −2 is exact, and the product never takes the
    same buffer on both sides (for ``a is b`` BLAS would use ``syrk``, which
    rounds differently)."""
    d2 = (-2.0 * a) @ b.T
    d2 += (a**2).sum(axis=1, keepdims=True)
    d2 += (b**2).sum(axis=1)
    return d2


def _row_cut(d2: np.ndarray, k: int) -> np.ndarray:
    """(len(d2), 1) per-row cut at or above each row's k-th smallest entry.

    A row's columns form ``g`` groups by column index mod ``g``; the cut is
    the k-th smallest group minimum. k groups each hold an entry at or below
    it, so every one of the row's k smallest entries is at or below it too.
    At k = 10 and n = 6000 about 10.3 entries per row pass it."""
    n = d2.shape[1]
    g = min(n, max(k, 128))
    gmin = d2[:, :g].copy()
    for lo in range(g, n, g):
        # The last slice folds the n mod g tail columns into the first groups.
        cols = d2[:, lo : lo + g]
        np.minimum(gmin[:, : cols.shape[1]], cols, out=gmin[:, : cols.shape[1]])
    return np.partition(gmin, k - 1, axis=1)[:, [k - 1]]


def _smallest_per_row(d2: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Column ids of the ``k`` smallest entries of each row of ``d2`` and
    those entries, in increasing order; exact ties fall by column, as in a
    stable sort of the row. ``d2`` must hold no NaN. Only the entries at or
    below :func:`_row_cut` are sorted, by (row, value, column)."""
    # flatnonzero, not the far slower 2-D nonzero, on the sparse mask.
    rows, cols = np.divmod(np.flatnonzero(d2 <= _row_cut(d2, k)), d2.shape[1])
    vals = d2[rows, cols]
    order = np.lexsort((cols, vals, rows))
    starts = np.searchsorted(rows, np.arange(len(d2)))
    pick = order[starts[:, None] + np.arange(k)]
    return cols[pick], vals[pick]


def _check_finite(x: np.ndarray, name: str) -> None:
    if not np.isfinite(x).all():
        raise ValueError(f"{name} hold NaN or infinite values")


def topk_neighbors(
    queries: np.ndarray, data: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k nearest rows of ``data`` for each row of ``queries``.

    Returns ``(indices, distances)`` each of shape (n_queries, k), neighbors
    sorted by increasing Euclidean distance, exact ties by data row.
    ValueError when the queries or the data hold NaN or infinite values.
    """
    queries = np.asarray(queries, dtype=np.float64)
    data = np.asarray(data, dtype=np.float64)
    _check_finite(queries, "queries")
    _check_finite(data, "data")
    d2 = sqdist(queries, data)
    np.maximum(d2, 0.0, out=d2)
    idx, part = _smallest_per_row(d2, min(k, d2.shape[1]))
    return idx, np.sqrt(part)


def knn_matrix_numpy(data: np.ndarray, k: int, *, block: int = 256) -> np.ndarray:
    """k'-NN matrix (n, k) of neighbor *indices*, self excluded, nearest
    first and exact ties by index; ValueError when ``data`` holds NaN or
    infinite values. The single-process reference implementation, blocked to
    bound peak memory: a block of 256 rows holds one (256, n) float64
    distance buffer (12 MB at n = 6000) plus a (256, n) bool mask for the
    row cut. The block does not change the result, except that a one-row
    block rounds differently and may swap exact duplicates."""
    _check_finite(data, "data")
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
