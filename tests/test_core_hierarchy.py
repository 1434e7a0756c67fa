"""Hierarchical-partitioning tests (§4.4.2): structure, probability products,
and the logreg binary-tree configuration used for Fig. 6."""
import numpy as np
import pytest

from repro.core import hierarchy
from repro.core.hierarchy import HierarchicalPartitioner
from repro.core.partitioner import UnsupervisedSpacePartitioner
from repro.core.train import TrainConfig
from repro.index.search import topk_within
from repro.knn.exact import knn_matrix_numpy, topk_neighbors
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

    def test_small_nodes_become_leaves(self):
        """Below the root, a node of fewer than max(2, m) points is a leaf even
        when ``min_split`` would split it, so an empty or one-point child does
        not fail mid-fit. The leaves cover every point once, and probing
        every bin is exact k-NN."""
        rng = np.random.default_rng(0)
        x, queries = rng.normal(size=(60, 4)), rng.normal(size=(12, 4))
        h = HierarchicalPartitioner([8, 8], min_split=0, seed=0).fit(x)
        assert any(child.leaf_id is not None for child in h.root.children)
        assert np.array_equal(np.sort(np.concatenate(h.bin_members())), np.arange(len(x)))
        truth = topk_neighbors(queries, x, 5)[0]
        for q, c, want in zip(queries, h.candidate_ids(queries, h.n_bins), truth):
            assert np.array_equal(topk_within(q, x, c, 5), want)

    def test_zero_weight_nodes_become_leaves(self):
        """Below the root, a node whose points all have weight 0 (Algorithm 3's
        ``update_weights`` makes zeros) is a leaf instead of failing mid-fit;
        the leaves still cover every point, and probing every bin is exact."""
        rng = np.random.default_rng(0)
        x, queries = rng.normal(size=(60, 4)), rng.normal(size=(12, 4))
        w = np.zeros(len(x))
        w[:10] = 1.0
        h = HierarchicalPartitioner([8, 2], min_split=0, seed=0).fit(x, weights=w)
        assign = h.root.model.predict_bin(x)
        assert any(child.leaf_id is not None and (assign == b).sum() >= 2
                   and w[assign == b].sum() == 0
                   for b, child in enumerate(h.root.children))
        assert np.array_equal(np.sort(np.concatenate(h.bin_members())), np.arange(len(x)))
        truth = topk_neighbors(queries, x, 5)[0]
        for q, c, want in zip(queries, h.candidate_ids(queries, h.n_bins), truth):
            assert np.array_equal(topk_within(q, x, c, 5), want)

    def test_root_of_too_few_points_raises(self):
        x = np.random.default_rng(1).normal(size=(5, 4))
        with pytest.raises(ValueError, match="cannot train"):
            HierarchicalPartitioner([8, 8], k_prime=3, min_split=0).fit(x)

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


def _tree(levels=(4, 4), seed=0, min_split=40):
    return HierarchicalPartitioner(
        list(levels), cfg_factory=lambda level, m: TrainConfig(m=m, eta=5.0, epochs=3),
        min_split=min_split, seed=seed)


def _assert_same_index(a, b, queries):
    np.testing.assert_array_equal(a.data_bins(), b.data_bins())
    np.testing.assert_array_equal(a.leaf_probs(queries), b.leaf_probs(queries))


class TestOneFit:
    """Flat models, given k'-NN matrices and Algorithm 3's weights all go
    through the hierarchy's one fit."""

    @pytest.fixture(scope="class")
    def data(self):
        return sift_lite(n=600, d=8, n_queries=30, n_components=8, seed=25)

    def test_flat_is_one_level_hierarchy(self, data):
        """A flat USP is the hierarchy ``[m]`` that splits any node, whose
        root seed is the flat model's seed."""
        x, queries = data
        cfg = TrainConfig(m=4, eta=5.0, epochs=3)
        flat = UnsupervisedSpacePartitioner(4, cfg=cfg, seed=3).fit(x)
        # A hierarchy seeds its root with seed + 31·n mod 104729.
        tree = HierarchicalPartitioner([4], cfg_factory=lambda level, m: TrainConfig(
            m=m, eta=5.0, epochs=3), min_split=0, seed=3 - 31 * len(x) % 104729).fit(x)
        assert flat.n_bins == tree.n_bins == 4
        _assert_same_index(flat, tree, queries)

    def test_given_knn_is_the_roots(self, data, monkeypatch):
        """A given k'-NN matrix replaces the root's build, and nothing else."""
        x, queries = data
        built = _tree().fit(x)
        rows = []
        monkeypatch.setattr(hierarchy, "knn_matrix_numpy",
                            lambda sub, k: rows.append(len(sub)) or knn_matrix_numpy(sub, k))
        given = _tree().fit(x, knn_idx=knn_matrix_numpy(x, 10))
        assert rows and len(x) not in rows
        _assert_same_index(built, given, queries)

    def test_unit_weights_are_no_weights(self, data):
        x, queries = data
        _assert_same_index(_tree().fit(x), _tree().fit(x, weights=np.ones(len(x))), queries)

    def test_every_node_trains_on_its_points_weights(self, data, monkeypatch):
        x, _ = data
        w = np.random.default_rng(0).uniform(0.5, 2.0, size=len(x))
        row_id = {row.tobytes(): i for i, row in enumerate(x)}
        calls = []

        def spy(model, sub, knn, cfg, weights=None):
            idx = np.array([row_id[row.tobytes()] for row in sub])
            calls.append(np.array_equal(weights, w[idx]))
            return train(model, sub, knn, cfg, weights)

        train = hierarchy.train_usp_model
        monkeypatch.setattr(hierarchy, "train_usp_model", spy)
        h = _tree().fit(x, weights=w)
        internal = 1 + sum(len(c.children) > 0 for c in h.root.children)
        assert len(calls) == internal > 1 and all(calls)
