"""End-to-end offline phase (Algorithm 1) with every data-parallel stage on
Spark, cross-checked against the numpy path and the DuckDB oracle.

Flow: Spark k'-NN matrix → driver training → Spark partition inference →
lookup-table build → bin histogram in Spark SQL (oracle-checked).
"""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.partitioner import UnsupervisedSpacePartitioner
from repro.core.train import TrainConfig
from repro.knn.exact import knn_matrix_numpy
from repro.oracle import assert_equivalent
from repro.spark import (
    assign_bins_spark,
    build_lookup_spark,
    knn_matrix_spark_collect,
    vectors_df,
)
from repro.synth_data import sift_lite


@pytest.fixture(scope="module")
def pipeline(spark):
    """Train USP with the Spark k'-NN build and materialize Spark artifacts."""
    data, _ = sift_lite(n=1000, d=10, n_queries=80, n_components=10, seed=101)
    knn_idx = knn_matrix_spark_collect(spark, data, 10)
    usp = UnsupervisedSpacePartitioner(
        6, cfg=TrainConfig(m=6, eta=7.0, epochs=20, seed=0), seed=0
    ).fit(data, knn_idx=knn_idx)
    vdf = vectors_df(spark, data)
    lookup = build_lookup_spark(spark, assign_bins_spark(spark, vdf, usp.model.predict_bin)).cache()
    lookup.count()
    return data, knn_idx, usp, lookup


class TestEndToEnd:
    def test_spark_assignment_matches_fit(self, pipeline):
        """The Spark k'-NN matrix is the numpy one, and the Spark lookup holds
        the bins the numpy fit assigned."""
        data, knn_idx, usp, lookup = pipeline
        np.testing.assert_array_equal(knn_idx, knn_matrix_numpy(data, 10))
        pdf = lookup.toPandas().sort_values("id")
        np.testing.assert_array_equal(pdf["bin"].to_numpy(), usp.data_bins())

    def test_balanced_lookup_oracle(self, spark, pipeline):
        """Bin histogram via Spark SQL == DuckDB; no bin > 2.5× ideal."""
        data, _, usp, lookup = pipeline
        hist = lookup.groupBy("bin").agg(F.count("id").alias("n"))
        assert_equivalent(
            hist,
            "SELECT bin, count(id) AS n FROM lk GROUP BY bin",
            lk=lookup.toPandas(),
        )
        sizes = hist.toPandas()["n"]
        assert sizes.max() < 2.5 * len(data) / usp.n_bins
