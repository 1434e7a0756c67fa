"""Boosted Search Forest tests: spectral hyperplane quality, boosting
weights produce diverse trees, union candidate sets, and forest scoring
against the per-tree ranking it replaced (``per_tree_probe_ranks``): the
per-point ranks the candidate sets define (``candidate_ranks``) equal it."""
import numpy as np
import pytest

from repro.baselines.boosted_forest import (
    BoostedSearchForest,
    similarity_preserving_hyperplane,
)
from repro.index import tree
from repro.index.base import bin_ranks, members_by_bin, probe_order
from repro.knn.exact import knn_matrix_numpy
from repro.synth_data import sift_lite
from tests.conftest import candidate_ranks, record_knn_builds


def per_tree_probe_ranks(forest, q):
    """One ``leaf_probs`` and one ranking per tree through the tree's own
    plan, then the minimum rank over the trees."""
    return np.minimum.reduce([
        bin_ranks(probe_order(tree.leaf_probs(root.plan, q)[0]))[:, bins]
        for root, bins in zip(forest.trees, forest.tree_bins)
    ])


@pytest.fixture(scope="module")
def data():
    d, q = sift_lite(n=600, d=8, n_queries=40, n_components=8, seed=81)
    return d, q


class TestHyperplane:
    def test_cuts_fewer_pairs_than_random(self, data):
        d, _ = data
        knn = knn_matrix_numpy(d, 6)
        rng = np.random.default_rng(0)
        w, t = similarity_preserving_hyperplane(d, knn, np.ones(len(d)), rng)
        left = (d @ w - t) < 0
        cut = (left[:, None] != left[knn]).sum()
        cuts_rand = []
        for _ in range(10):
            r = rng.normal(size=d.shape[1])
            r /= np.linalg.norm(r)
            lr = (d @ r - np.median(d @ r)) < 0
            cuts_rand.append((lr[:, None] != lr[knn]).sum())
        assert cut <= np.median(cuts_rand)

    def test_unit_norm(self, data):
        d, _ = data
        knn = knn_matrix_numpy(d, 6)
        w, _ = similarity_preserving_hyperplane(
            d, knn, np.ones(len(d)), np.random.default_rng(1)
        )
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-9)


class TestForest:
    @pytest.fixture(scope="class")
    def forest(self, data):
        d, _ = data
        return BoostedSearchForest(3, n_trees=2, seed=0).fit(d)

    @pytest.fixture(scope="class")
    def forests(self, forest, data, duplicates):
        """(forest, data, queries) on clustered and duplicate-heavy data."""
        dup_forest = BoostedSearchForest(3, n_trees=2, seed=0).fit(duplicates[0])
        return [(forest, *data), (dup_forest, *duplicates)]

    def test_one_full_data_knn_build(self, data, monkeypatch):
        """The boosting's k'-NN matrix is every tree's root matrix: one fit
        of three trees builds the full-data matrix once."""
        d, _ = data
        rows = record_knn_builds(monkeypatch)
        BoostedSearchForest(3, n_trees=3, seed=0).fit(d)
        assert rows.count(len(d)) == 1
        assert len(rows) > 1  # the nodes below the roots build their own

    def test_tree_count(self, forest):
        assert len(forest.trees) == 2
        assert len(forest.tree_bins) == 2

    def test_trees_differ(self, forest):
        """Boosting must produce complementary partitions."""
        assert (forest.tree_bins[0] != forest.tree_bins[1]).mean() > 0.05

    def test_candidates_union_grows(self, forest, data):
        _, q = data
        c1 = forest.candidate_ids(q[:5], 2)
        c2 = forest.candidate_ids(q[:5], 6)
        for a, b in zip(c1, c2):
            assert set(a) <= set(b)

    def test_probe_matrix_first_tree(self, forest, data):
        _, q = data
        pm = forest.probe_matrix(q[:5])
        for row in pm:
            assert sorted(row) == list(range(forest.tree_n_bins[0]))

    def test_full_probe_covers_everything(self, forests):
        for forest, d, q in forests:
            cands = forest.candidate_ids(q[:3], forest.n_bins)
            for c in cands:
                assert len(c) == len(d)

    def test_members_partition_points(self, forests):
        for forest, d, _ in forests:
            for bins, nb in zip(forest.tree_bins, forest.tree_n_bins):
                ids = np.sort(np.concatenate(members_by_bin(bins, nb)))
                np.testing.assert_array_equal(ids, np.arange(len(d)))

    def test_probe_ranks_equal_per_tree(self, forests, small_indexes, small_data):
        """On clustered data, duplicate-heavy data (whose trees prune to
        unequal leaf counts) and the three-tree forest of the shared
        fixtures; for 1, 16 and all queries."""
        cases = forests + [(small_indexes["bsf"], *small_data)]
        assert len(set(cases[1][0].tree_n_bins)) > 1
        for forest, _, q in cases:
            for block in (q[:1], q[:16], q):
                assert np.array_equal(candidate_ranks(forest, block),
                                      per_tree_probe_ranks(forest, block))
