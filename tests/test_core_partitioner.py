"""USP partitioner tests: index contract, Spark inference parity."""
import numpy as np
import pytest

from repro.core.partitioner import (
    UnsupervisedSpacePartitioner,
    assign_bins_spark,
    build_model,
)
from repro.synth_data import vectors_df


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
        probs = trained_usp.predict_proba(queries[:5])
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
        m = build_model({"arch": "mlp", "d": 6, "m": 4, "hidden": 8, "dropout": 0.1, "seed": 0})
        assert m.predict_proba(np.zeros((2, 6))).shape == (2, 4)

    def test_logreg_config(self):
        m = build_model({"arch": "logreg", "d": 6, "m": 2, "seed": 0})
        assert len(m.layers) == 1

    def test_unknown_arch(self):
        with pytest.raises(ValueError):
            build_model({"arch": "tree", "d": 2, "m": 2})

    def test_same_seed_same_model(self):
        cfg = {"arch": "mlp", "d": 5, "m": 3, "hidden": 8, "dropout": 0.0, "seed": 9}
        x = np.random.default_rng(0).normal(size=(4, 5))
        np.testing.assert_allclose(
            build_model(cfg).predict_proba(x), build_model(cfg).predict_proba(x)
        )


class TestSparkInference:
    def test_matches_local(self, spark, trained_usp, small_data):
        data, _ = small_data
        vdf = vectors_df(spark, data[:200])
        out = (
            assign_bins_spark(
                spark, vdf, trained_usp.config(), trained_usp.model.get_weights()
            )
            .toPandas()
            .sort_values("id")
        )
        local_bins = trained_usp.model.predict_bin(data[:200])
        local_probs = trained_usp.model.predict_proba(data[:200]).max(axis=1)
        np.testing.assert_array_equal(out["bin"].to_numpy(), local_bins)
        np.testing.assert_allclose(out["prob"].to_numpy(), local_probs, atol=1e-9)

    def test_every_id_scored_once(self, spark, trained_usp, small_data):
        data, _ = small_data
        vdf = vectors_df(spark, data[:150])
        out = assign_bins_spark(
            spark, vdf, trained_usp.config(), trained_usp.model.get_weights()
        ).toPandas()
        assert sorted(out["id"]) == list(range(150))
