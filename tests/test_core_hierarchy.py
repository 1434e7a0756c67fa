"""Hierarchical-partitioning tests (§4.4.2): structure, probability products,
and the logreg binary-tree configuration used for Fig. 6."""
import numpy as np
import pytest

from repro.core.hierarchy import HierarchicalPartitioner
from repro.core.train import TrainConfig
from repro.synth_data import sift_lite


@pytest.fixture(scope="module")
def hier():
    data, queries = sift_lite(n=1200, d=10, n_queries=60, n_components=10, seed=21)
    h = HierarchicalPartitioner(
        [4, 4],
        cfg_factory=lambda level, m: TrainConfig(m=m, eta=5.0, epochs=15),
        min_split=40,
        seed=0,
    ).fit(data)
    return h, data, queries


class TestStructure:
    def test_leaf_count(self, hier):
        h, data, _ = hier
        assert 4 <= h.n_bins <= 16  # pruning may merge small nodes

    def test_data_bins_cover_all_leaves(self, hier):
        h, data, _ = hier
        bins = h.data_bins()
        assert set(np.unique(bins)) == set(range(h.n_bins))

    def test_every_point_assigned(self, hier):
        h, data, _ = hier
        assert h.data_bins().shape == (len(data),)


class TestLeafProbs:
    def test_rows_sum_to_one(self, hier):
        """Products of per-level distributions over all leaves sum to 1."""
        h, _, queries = hier
        lp = h.leaf_probs(queries[:20])
        np.testing.assert_allclose(lp.sum(axis=1), 1.0, atol=1e-9)

    def test_probe_matrix_permutation(self, hier):
        h, _, queries = hier
        pm = h.probe_matrix(queries[:10])
        for row in pm:
            assert sorted(row) == list(range(h.n_bins))

    def test_probe_scores_is_leaf_probs(self, hier):
        h, _, queries = hier
        np.testing.assert_array_equal(h.probe_scores(queries[:10]), h.leaf_probs(queries[:10]))

    def test_assignment_consistent_with_leaf_probs(self, hier):
        """Data-point routing (argmax per level) should usually agree with the
        argmax of the product distribution."""
        h, data, _ = hier
        lp_argmax = h.leaf_probs(data[:300]).argmax(axis=1)
        agree = (lp_argmax == h.data_bins()[:300]).mean()
        assert agree > 0.8


class TestBinaryLogregTree:
    def test_depth3_tree(self):
        data, _ = sift_lite(n=600, d=8, n_queries=10, n_components=8, seed=22)
        h = HierarchicalPartitioner(
            [2, 2, 2], arch="logreg",
            cfg_factory=lambda level, m: TrainConfig(m=m, eta=3.0, epochs=10),
            min_split=20, seed=1,
        ).fit(data)
        assert 2 <= h.n_bins <= 8
        sizes = np.bincount(h.data_bins(), minlength=h.n_bins)
        assert (sizes > 0).all()

    def test_small_dataset_prunes_to_single_leaf(self):
        data = np.random.default_rng(0).normal(size=(10, 4))
        h = HierarchicalPartitioner([4], k_prime=5, min_split=64).fit(data)
        assert h.n_bins == 1
        assert (h.data_bins() == 0).all()

    def test_hierarchical_ensemble(self):
        """EnsemblePartitioner composes with hierarchical members (Fig. 5c/d
        'Ours' config): confidence routing + per-model lookup tables."""
        from repro.core.ensemble import EnsemblePartitioner

        data, queries = sift_lite(n=500, d=8, n_queries=20, n_components=8, seed=24)
        members = [
            HierarchicalPartitioner(
                [2, 2], cfg_factory=lambda level, m: TrainConfig(m=m, eta=3.0, epochs=8),
                min_split=32, seed=s,
            ).fit(data)
            for s in (0, 1)
        ]
        ens = EnsemblePartitioner(members)
        cands = ens.candidate_ids(queries, 1)
        assert len(cands) == 20
        choice = ens.model_choice(queries)
        for c, cand in zip(choice, cands):
            assert len(cand) > 0
            assert set(cand) <= set(range(500))

    def test_search_quality_reasonable(self):
        from repro.index.search import sweep_accuracy
        from repro.knn.exact import topk_neighbors

        data, queries = sift_lite(n=800, d=8, n_queries=50, n_components=8, seed=23)
        gt, _ = topk_neighbors(queries, data, 10)
        h = HierarchicalPartitioner(
            [2, 2], cfg_factory=lambda level, m: TrainConfig(m=m, eta=3.0, epochs=15), seed=2
        ).fit(data)
        curve = sweep_accuracy(h, data, queries, gt, probe_counts=[h.n_bins])
        assert curve["accuracy"].iloc[0] == 1.0  # all bins probed → exact
