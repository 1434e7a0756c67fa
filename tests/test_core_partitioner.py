"""USP partitioner tests: index contract, config handling, Spark inference
parity."""
import numpy as np
import pandas as pd
import pytest

from repro.core.hierarchy import build_model
from repro.core.partitioner import UnsupervisedSpacePartitioner
from repro.core.train import TrainConfig
from repro.nn.model import EVAL_ROWS
from repro.spark import assign_bins_spark, vectors_df
from repro.synth_data import sift_lite
from tests.conftest import float64_bins, near_ties


class TestFitContract:
    def test_data_bins_range(self, trained_usp, small_data):
        bins = trained_usp.data_bins()
        assert bins.shape == (len(small_data[0]),)
        assert bins.min() >= 0 and bins.max() < trained_usp.n_bins

    def test_balance(self, trained_usp, small_data):
        sizes = trained_usp.bin_sizes()
        ideal = len(small_data[0]) / trained_usp.n_bins
        assert sizes.max() < 2.5 * ideal
        assert (sizes > 0).all()

    def test_probe_matrix_is_permutation(self, trained_usp, small_data):
        _, queries = small_data
        pm = trained_usp.probe_matrix(queries[:20])
        for row in pm:
            assert sorted(row) == list(range(trained_usp.n_bins))

    def test_probe_order_matches_probs(self, trained_usp, small_data):
        _, queries = small_data
        probs = trained_usp.leaf_probs(queries[:5])
        pm = trained_usp.probe_matrix(queries[:5])
        for p, row in zip(probs, pm):
            assert p[row[0]] == p.max()
            assert (np.diff(p[row]) <= 1e-12).all()

    def test_unfitted_raises(self):
        p = UnsupervisedSpacePartitioner(4)
        with pytest.raises(RuntimeError):
            p.data_bins()

    def test_first_probe_bin_holds_neighbors(self, trained_usp, small_data, small_gt):
        """Searching the top-1 bin should already find a majority of 10-NNs
        (the partition is trained for exactly this)."""
        data, queries = small_data
        from repro.index.search import sweep_accuracy

        curve = sweep_accuracy(trained_usp, data, queries, small_gt, probe_counts=[1])
        assert curve["accuracy"].iloc[0] > 0.5


class TestBuildModel:
    def test_mlp_config(self):
        m = build_model("mlp", 6, 4, seed=0)
        assert m.predict_proba(np.zeros((2, 6))).shape == (2, 4)

    def test_logreg_config(self):
        m = build_model("logreg", 6, 2, seed=0)
        assert len(m.W) == 1

    def test_unknown_arch(self):
        with pytest.raises(ValueError):
            build_model("tree", 2, 2)

    def test_same_seed_same_model(self):
        x = np.random.default_rng(0).normal(size=(4, 5))
        np.testing.assert_allclose(
            build_model("mlp", 5, 3, seed=9).predict_proba(x),
            build_model("mlp", 5, 3, seed=9).predict_proba(x),
        )


class TestConfig:
    def test_given_cfg_not_changed(self):
        """One TrainConfig passed to partitioners of 8 and then 4 bins: each
        trains with its own m, and the caller's object keeps m = 8."""
        data, _ = sift_lite(n=300, d=6, n_queries=1, seed=3)
        cfg = TrainConfig(m=8, epochs=2)
        p8 = UnsupervisedSpacePartitioner(8, cfg=cfg)
        p4 = UnsupervisedSpacePartitioner(4, cfg=cfg)
        assert cfg.m == 8 and (p8.cfg.m, p4.cfg.m) == (8, 4)
        assert p8.fit(data).data_bins().max() < 8
        assert p4.fit(data).data_bins().max() < 4
        assert cfg.history == [] and len(p8.cfg.history) == 2

    def test_fewer_points_than_bins_rejected(self):
        data = np.random.default_rng(0).normal(size=(12, 4))
        with pytest.raises(ValueError, match=r"m=16 bins outside \[1, n=12\]"):
            UnsupervisedSpacePartitioner(16).fit(data)


class TestSparkInference:
    def test_matches_local(self, spark, trained_usp, small_data):
        """The broadcast ``predict_bin`` gives every row the bin it has in
        the numpy partition, with batches long enough for the eval forward's
        row blocks."""
        data, _ = small_data
        vdf = vectors_df(spark, data)
        batch_rows = vdf.mapInPandas(
            lambda batches: (pd.DataFrame({"rows": [len(b)]}) for b in batches), "rows long"
        ).toPandas()["rows"]
        assert batch_rows.max() > EVAL_ROWS
        out = (
            assign_bins_spark(spark, vdf, trained_usp.model.predict_bin)
            .toPandas()
            .sort_values("id")
        )
        np.testing.assert_array_equal(out["bin"].to_numpy(), trained_usp.data_bins())

    def test_one_row_batches(self, spark, trained_usp, small_data):
        """Batches of one row, whose float32 forward is a gemv, give every
        row its bin in the whole batch: data rows their ``data_bins()``, and
        rows where two float64 logits tie to the last bits theirs."""
        data, _ = small_data
        model = trained_usp.model
        rows = np.arange(0, len(data), 50)
        x = np.concatenate([data[rows], near_ties(model, data[:200], pairs=6)])
        key = "spark.sql.execution.arrow.maxRecordsPerBatch"
        before = spark.conf.get(key)
        spark.conf.set(key, "1")
        try:
            vdf = vectors_df(spark, x)
            batch_rows = vdf.mapInPandas(
                lambda batches: (pd.DataFrame({"rows": [len(b)]}) for b in batches), "rows long"
            ).toPandas()["rows"]
            out = assign_bins_spark(spark, vdf, model.predict_bin).toPandas().sort_values("id")
        finally:
            spark.conf.set(key, before)
        assert (batch_rows == 1).all()
        bins = out["bin"].to_numpy()
        np.testing.assert_array_equal(bins, float64_bins(model, x))
        np.testing.assert_array_equal(bins[:len(rows)], trained_usp.data_bins()[rows])

    def test_every_id_scored_once(self, spark, trained_usp, small_data):
        data, _ = small_data
        vdf = vectors_df(spark, data[:150])
        out = assign_bins_spark(spark, vdf, trained_usp.model.predict_bin).toPandas()
        assert sorted(out["id"]) == list(range(150))
        assert list(out.columns) == ["id", "bin"]
