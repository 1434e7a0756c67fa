"""Experiment-harness tests at test scale: each table runs, has the right
schema, and preserves the paper's qualitative ordering."""
import pathlib

import numpy as np
import pandas as pd
import pytest

from repro.experiments import figures, table2, table3, table4, table5
from repro.experiments.common import ground_truth, load_dataset, markdown_table
from repro.index.search import candidate_size_at_accuracy
from tests.conftest import record_knn_builds

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


class TestCommon:
    @pytest.mark.parametrize("name", ["sift", "mnist"])
    def test_load_dataset(self, name):
        data, queries = load_dataset(name, "test")
        assert data.ndim == 2 and queries.shape[1] == data.shape[1]

    def test_ground_truth_shape(self):
        data, queries = load_dataset("sift", "test")
        gt = ground_truth(data, queries, 10)
        assert gt.shape == (len(queries), 10)

    def test_markdown_table(self):
        df = pd.DataFrame({"a": [1, 2], "b": [0.5, 0.25]})
        md = markdown_table(df)
        assert md.startswith("| a | b |")
        assert "| 1 | 0.500 |" in md


class TestTable2:
    def test_schema(self):
        df = table2.run()
        assert list(df["method"]) == ["Neural LSH", "Ours", "K-Means"]
        assert {"paper_reported", "measured_d128", "measured_d32_sift_lite"} <= set(df.columns)

    def test_paper_ordering_preserved(self):
        """Neural LSH ≫ Ours ≫ K-means in parameter count, at both shapes."""
        df = table2.run().set_index("method")
        for col in ("measured_d128", "measured_d32_sift_lite"):
            assert df.loc["Neural LSH", col] > df.loc["Ours", col] > df.loc["K-Means", col]

    def test_close_to_paper_at_paper_shape(self):
        df = table2.run().set_index("method")
        for m in df.index:
            ratio = df.loc[m, "measured_d128"] / df.loc[m, "paper_reported"]
            assert 0.6 < ratio < 1.4


class TestTable3:
    def test_runs_and_orders(self):
        df = table3.run(scale="test", epochs=3)
        assert len(df) == 4
        assert {"dataset", "bins", "eta", "paper_minutes", "measured_seconds"} <= set(df.columns)
        assert (df["measured_seconds"] > 0).all()
        # 256-bin configs strictly slower than 16-bin on the same dataset.
        t = df.set_index(["dataset", "bins"])["measured_seconds"]
        assert t[("MNIST", 256)] > t[("MNIST", 16)]
        assert t[("SIFT", 256)] > t[("SIFT", 16)]

    def test_256_bins_build_one_full_knn_matrix(self, monkeypatch):
        """The three 16×16 hierarchies train their roots on the one k'-NN
        matrix the row times, as the 16-bin ensemble does."""
        n = len(load_dataset("sift", "test")[0])
        rows = record_knn_builds(monkeypatch)
        table3._train_config("SIFT", 256, "test", 10.0, 2)
        assert rows.count(n) == 1

    def test_eta_values_match_paper(self):
        df = table3.run.__module__  # cheap: check the constants
        from repro.experiments.table3 import PAPER

        assert [c["eta"] for c in PAPER] == [7.0, 30.0, 7.0, 10.0]


class TestTable4:
    @pytest.fixture(scope="class")
    def fig5(self):
        return figures.fig5("sift", 16, scale="test", epochs=3)

    @pytest.fixture(scope="class")
    def result(self, fig5):
        return table4.run(fig5)

    def test_curves_are_fig5_rows(self, fig5, result):
        _, curves, _ = result
        assert list(curves) == ["Ours", "Neural LSH", "K-means"]
        for name, c in curves.items():
            rows = fig5[fig5["method"] == name][["n_probes", "mean_candidates", "accuracy"]]
            assert c.equals(rows.reset_index(drop=True))

    def test_target_follows_bracket_rule(self, fig5, result):
        """The target is raised above every curve's one-probe accuracy and
        capped at the lowest accuracy every curve reaches."""
        _, curves, used = result
        floor = max(c["accuracy"].iloc[0] for c in curves.values())
        ceil = min(c["accuracy"].iloc[-1] for c in curves.values())
        assert used == min(max(0.85, floor + 1e-9), ceil)
        assert table4.run(fig5, target=0.0)[2] == min(floor + 1e-9, ceil)
        assert table4.run(fig5, target=2.0)[2] == ceil

    def test_decrease_is_one_minus_ratio(self, result):
        table, curves, used = result
        ours = candidate_size_at_accuracy(curves["Ours"], used)
        for row in table.itertuples():
            base = candidate_size_at_accuracy(curves[row.method], used)
            assert row.ours_candidates == ours and row.baseline_candidates == base
            assert row.measured_decrease == 1.0 - ours / base


def test_every_result_has_a_bench():
    """Each file in benchmarks/results/ is written by some bench, so deleting
    a bench cannot leave its results file behind."""
    sources = "".join(p.read_text() for p in BENCHMARKS.glob("bench_*.py"))
    orphans = [p.name for p in (BENCHMARKS / "results").iterdir() if p.name not in sources]
    assert not orphans


class TestTable5:
    @pytest.fixture(scope="class")
    def result(self):
        return table5.run(n=500, usp_epochs=200)

    def test_schema(self, result):
        assert {"dataset", "method", "ari", "paper_verdict"} == set(result.columns)
        assert len(result) == 12

    def test_kmeans_fails_nonconvex(self, result):
        r = result.set_index(["dataset", "method"])["ari"]
        assert r[("moons", "K-means")] < 0.5
        assert r[("circles", "K-means")] < 0.5

    def test_ours_recovers_nonconvex(self, result):
        r = result.set_index(["dataset", "method"])["ari"]
        assert r[("moons", "Ours")] > 0.9
        assert r[("circles", "Ours")] > 0.9

    def test_ours_matches_spectral_quality(self, result):
        """The paper's headline: our clustering ≈ spectral's on every toy set."""
        r = result.set_index(["dataset", "method"])["ari"]
        for ds in ("moons", "circles", "blobs4"):
            assert r[(ds, "Ours")] > r[(ds, "Spectral")] - 0.15

    def test_ours_beats_kmeans_everywhere(self, result):
        r = result.set_index(["dataset", "method"])["ari"]
        for ds in ("moons", "circles", "blobs4"):
            assert r[(ds, "Ours")] > r[(ds, "K-means")]
