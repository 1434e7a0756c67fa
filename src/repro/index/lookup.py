"""Spark lookup table + candidate retrieval (Algorithm 1 Step 3, Algorithm 2).

The lookup table is relational: a DataFrame (id, bin). Candidate retrieval is
a shuffle join between the per-query probed-bin DataFrame and the lookup
table (broadcast joins are disabled by the session fixture so the shuffle
path is exercised). Exact distances inside candidate sets run vectorized in
``applyInPandas`` per query group. Every step is oracle-checkable SQL.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.index.base import PartitionIndex
from repro.index.search import topk_within


def lookup_df_from_index(spark: SparkSession, index: PartitionIndex) -> DataFrame:
    """Materialize a fitted index's partition as the (id, bin) lookup table."""
    bins = index.data_bins()
    return spark.createDataFrame(
        pd.DataFrame({"id": np.arange(len(bins), dtype=np.int64), "bin": bins.astype(np.int64)})
    )


def build_lookup_spark(spark: SparkSession, assign_df: DataFrame) -> DataFrame:
    """Normalize an assignment DataFrame to the lookup-table schema (id, bin),
    repartitioned by bin so per-bin scans are partition-local."""
    return assign_df.select("id", "bin").repartition("bin")


def probes_df(spark: SparkSession, index: PartitionIndex, queries: np.ndarray, n_probes: int) -> DataFrame:
    """Per-query probed bins: (qid, bin, rank) for the top ``n_probes`` bins."""
    order = index.probe_matrix(queries)[:, :n_probes]
    n_q, n_cols = order.shape
    pdf = pd.DataFrame(
        {
            "qid": np.repeat(np.arange(n_q, dtype=np.int64), n_cols),
            "bin": order.ravel().astype(np.int64),
            "rank": np.tile(np.arange(n_cols, dtype=np.int64), n_q),
        }
    )
    return spark.createDataFrame(pdf)


def candidates_spark(probes: DataFrame, lookup: DataFrame) -> DataFrame:
    """C(q) via the lookup-table join: (qid, id) — one row per candidate."""
    return probes.join(lookup, on="bin").select("qid", "id")


def topk_in_candidates_spark(
    spark: SparkSession,
    cand_df: DataFrame,
    data: np.ndarray,
    queries: np.ndarray,
    k: int,
) -> DataFrame:
    """Exact top-k inside each candidate set (Algorithm 2 Step 3).

    ``data``/``queries`` are broadcast; each query group computes exact
    Euclidean distances to its candidates vectorized. Returns
    (qid, id, dist) of the k best candidates per query.
    """
    bc = spark.sparkContext.broadcast(
        (np.asarray(data, np.float64), np.asarray(queries, np.float64))
    )

    def topk(pdf: pd.DataFrame) -> pd.DataFrame:
        x, q = bc.value
        qid = int(pdf["qid"].iloc[0])
        ids = topk_within(q[qid], x, pdf["id"].to_numpy(), k)
        d = np.linalg.norm(x[ids] - q[qid], axis=1)
        return pd.DataFrame({"qid": qid, "id": ids, "dist": d})

    return cand_df.groupBy("qid").applyInPandas(topk, schema="qid long, id long, dist double")


def candidate_counts_spark(cand_df: DataFrame) -> DataFrame:
    """|C(q)| per query as a DataFrame (qid, n_candidates) — oracle-checkable."""
    return cand_df.groupBy("qid").agg(F.count("id").alias("n_candidates"))
