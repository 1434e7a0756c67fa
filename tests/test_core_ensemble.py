"""Ensembling tests (Algorithms 3–4): weight updates, confidence routing,
and the boost in candidate-set quality."""
import numpy as np
import pytest

from repro.core.ensemble import (
    EnsemblePartitioner,
    separation_counts,
    train_ensemble,
    update_weights,
)
from repro.core.hierarchy import HierarchicalPartitioner
from repro.core.train import TrainConfig
from repro.index.search import sweep_accuracy


class TestWeightUpdate:
    def test_separation_counts_manual(self):
        bins = np.array([0, 0, 1, 1])
        knn = np.array([[1, 2], [0, 3], [3, 0], [2, 1]])
        # p0: nbrs 1(same),2(diff) → 1; p1: 0(same),3(diff) → 1;
        # p2: 3(same),0(diff) → 1; p3: 2(same),1(diff) → 1
        np.testing.assert_array_equal(separation_counts(bins, knn), [1, 1, 1, 1])

    def test_perfect_partition_gives_zero(self):
        bins = np.array([0, 0, 1, 1])
        knn = np.array([[1], [0], [3], [2]])
        np.testing.assert_array_equal(separation_counts(bins, knn), [0, 0, 0, 0])

    def test_update_multiplicative(self):
        bins = np.array([0, 1, 0, 1])
        knn = np.array([[1], [0], [3], [2]])  # every neighbor separated
        w = np.array([1.0, 2.0, 3.0, 4.0])
        out = update_weights(w, bins, knn)
        # counts all 1 → w unchanged up to mean-1 normalization
        np.testing.assert_allclose(out, w / w.mean())

    def test_all_zero_resets_uniform(self):
        bins = np.array([0, 0])
        knn = np.array([[1], [0]])
        out = update_weights(np.array([1.0, 1.0]), bins, knn)
        np.testing.assert_array_equal(out, [1.0, 1.0])

    def test_mean_one(self):
        rng = np.random.default_rng(0)
        bins = rng.integers(0, 4, 50)
        knn = rng.integers(0, 50, (50, 5))
        out = update_weights(np.ones(50), bins, knn)
        assert out.mean() == pytest.approx(1.0)


class TestEnsemble:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            EnsemblePartitioner([])

    def test_model_choice_shape(self, trained_ensemble, small_data):
        _, queries = small_data
        choice = trained_ensemble.model_choice(queries[:30])
        assert choice.shape == (30,)
        assert set(np.unique(choice)) <= set(range(len(trained_ensemble.models)))

    def test_models_differ(self, trained_ensemble, small_data):
        """Boosted second model must learn a different partition."""
        data, _ = small_data
        b0 = trained_ensemble.models[0].data_bins()
        b1 = trained_ensemble.models[1].data_bins()
        assert (b0 != b1).mean() > 0.05

    def test_candidate_ids_match_selected_model(self, trained_ensemble, small_data):
        data, queries = small_data
        q = queries[:10]
        choice = trained_ensemble.model_choice(q)
        cands = trained_ensemble.candidate_ids(q, 1)
        for i, c in enumerate(choice):
            model = trained_ensemble.models[c]
            top_bin = model.probe_matrix(q[i][None])[0][0]
            expect = np.nonzero(model.data_bins() == top_bin)[0]
            np.testing.assert_array_equal(np.sort(cands[i]), np.sort(expect))

    def test_ensemble_not_worse_than_first_model(
        self, trained_ensemble, small_data, small_gt
    ):
        """Confidence routing should match or beat the single base model at
        equal probe count (the §4.4.1 claim, small tolerance for noise)."""
        data, queries = small_data
        single = sweep_accuracy(
            trained_ensemble.models[0], data, queries, small_gt, probe_counts=[1]
        )["accuracy"].iloc[0]
        ens = sweep_accuracy(trained_ensemble, data, queries, small_gt, probe_counts=[1])[
            "accuracy"
        ].iloc[0]
        assert ens >= single - 0.02

    def test_probe_matrix_rows_are_permutations(self, trained_ensemble, small_data):
        _, queries = small_data
        pm = trained_ensemble.probe_matrix(queries[:5])
        for row in pm:
            assert sorted(row) == list(range(trained_ensemble.n_bins))


class TestUnequalLeafCounts:
    """Hierarchy members that ``min_split`` prunes to different leaf counts."""

    @pytest.fixture(scope="class")
    def ens(self, small_data):
        data, _ = small_data
        return EnsemblePartitioner([
            HierarchicalPartitioner(
                [4, 4], cfg_factory=lambda level, m: TrainConfig(m=m, eta=5.0, epochs=5),
                min_split=min_split, seed=seed,
            ).fit(data)
            for seed, min_split in ((1, 40), (2, 300))
        ])

    def test_n_bins_is_largest_leaf_count(self, ens):
        counts = [m.n_bins for m in ens.models]
        assert counts[0] != counts[1]
        assert ens.n_bins == max(counts)

    def test_probe_matrix_names_leaf_counts(self, ens, small_data):
        a, b = (m.n_bins for m in ens.models)
        with pytest.raises(ValueError, match=rf"\[{a}, {b}\]"):
            ens.probe_matrix(small_data[1][:3])

    def test_candidates_and_ranks_follow_selected_member(self, ens, small_data):
        data, queries = small_data
        q = queries[:20]
        choice = ens.model_choice(q)
        orders = [m.probe_matrix(q) for m in ens.models]
        ranks = ens.probe_ranks(q)
        for p in (1, 2, ens.n_bins):
            for i, (c, cand) in enumerate(zip(choice, ens.candidate_ids(q, p))):
                member = ens.models[c]
                expect = np.flatnonzero(np.isin(member.data_bins(), orders[c][i][:p]))
                np.testing.assert_array_equal(np.sort(cand), expect)
                np.testing.assert_array_equal(np.flatnonzero(ranks[i] < p), expect)
            if p == ens.n_bins:
                assert all(len(c) == len(data) for c in ens.candidate_ids(q, p))


class TestTrainEnsemble:
    def test_e_models(self, small_data, small_knn):
        data, _ = small_data
        ens = train_ensemble(data, m=4, e=2, knn_idx=small_knn)
        assert len(ens.models) == 2

    def test_spark_knn_path(self, spark):
        from repro.synth_data import sift_lite

        data, _ = sift_lite(n=300, d=8, n_queries=10, seed=9)
        ens = train_ensemble(data, m=4, e=1, spark=spark)
        assert len(ens.models) == 1
        assert ens.models[0].data_bins().shape == (300,)
