"""Partition-tree tests: all four split rules, structure, multiprobe."""
import numpy as np
import pytest

from repro.baselines.trees import (
    BinaryPartitionTree,
    SPLIT_RULES,
    learned_kd_split,
    pca_split,
    rp_split,
    two_means_split,
)
from repro.knn.exact import knn_matrix_numpy
from repro.synth_data import sift_lite

RULES = sorted(SPLIT_RULES)
# Each rule on clustered data (ids "rp", ...) and on the duplicate-heavy
# ``duplicates`` fixture (ids "rp-duplicates", ...).
RULE_DATA = [pytest.param(r, "data", id=r) for r in RULES] + [
    pytest.param(r, "duplicates", id=f"{r}-duplicates") for r in RULES
]


@pytest.fixture(scope="module")
def data():
    d, q = sift_lite(n=800, d=8, n_queries=50, n_components=8, seed=71)
    return d, q


class TestSplitRules:
    @pytest.mark.parametrize("rule_fn", [rp_split, pca_split, two_means_split])
    def test_roughly_median_split(self, rule_fn, data):
        d, _ = data
        rng = np.random.default_rng(0)
        w, t = rule_fn(d, rng)
        frac_left = ((d @ w - t) < 0).mean()
        assert 0.2 < frac_left < 0.8

    def test_pca_maximizes_variance(self, data):
        d, _ = data
        rng = np.random.default_rng(1)
        w, _ = pca_split(d, rng)
        var_pca = (d @ w).var()
        for _ in range(10):
            r = rng.normal(size=d.shape[1])
            r /= np.linalg.norm(r)
            assert var_pca >= (d @ r).var() * 0.99

    def test_learned_kd_axis_aligned(self, data):
        d, _ = data
        rng = np.random.default_rng(2)
        sub_knn = knn_matrix_numpy(d, 5)
        w, t = learned_kd_split(d, rng, sub_knn=sub_knn)
        assert (w != 0).sum() == 1

    def test_learned_kd_cuts_fewer_pairs_than_worst_quantile(self, data):
        """The learned threshold should cut no more k-NN pairs than the worst
        candidate threshold it considered."""
        d, _ = data
        rng = np.random.default_rng(3)
        sub_knn = knn_matrix_numpy(d, 5)
        w, t = learned_kd_split(d, rng, sub_knn=sub_knn)
        axis = int(np.nonzero(w)[0][0])
        proj = d[:, axis]

        def pairs_cut(th):
            left = proj < th
            return (left[:, None] != left[sub_knn]).sum()

        worst = max(pairs_cut(q) for q in np.quantile(proj, [0.3, 0.5, 0.7]))
        assert pairs_cut(t) <= worst

    def test_two_means_midpoint(self, data):
        d, _ = data
        rng = np.random.default_rng(4)
        w, t = two_means_split(d, rng)
        assert np.linalg.norm(w) == pytest.approx(1.0)


class TestBinaryPartitionTree:
    @pytest.mark.parametrize("rule,dataset", RULE_DATA)
    def test_fit_contract(self, rule, dataset, request):
        d, q = request.getfixturevalue(dataset)
        tree = BinaryPartitionTree(rule, 3, seed=0).fit(d)
        assert 2 <= tree.n_bins <= 8
        bins = tree.data_bins()
        assert set(np.unique(bins)) == set(range(tree.n_bins))
        pm = tree.probe_matrix(q[:5])
        for row in pm:
            assert sorted(row) == list(range(tree.n_bins))

    @pytest.mark.parametrize("rule,dataset", RULE_DATA)
    def test_leaf_probs_sum_one(self, rule, dataset, request):
        d, q = request.getfixturevalue(dataset)
        tree = BinaryPartitionTree(rule, 3, seed=1).fit(d)
        np.testing.assert_allclose(tree.leaf_probs(q[:10]).sum(axis=1), 1.0, atol=1e-9)

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            BinaryPartitionTree("magic", 3)

    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_depth_controls_leaves(self, depth, data):
        d, _ = data
        tree = BinaryPartitionTree("rp", depth, seed=2).fit(d)
        assert tree.n_bins <= 2**depth

    def test_min_split_prunes(self):
        d = np.random.default_rng(5).normal(size=(30, 4))
        tree = BinaryPartitionTree("rp", 6, seed=0).fit(d)
        assert tree.n_bins < 2**6

    @pytest.mark.parametrize("rule,dataset", RULE_DATA)
    def test_search_exact_with_all_probes(self, rule, dataset, request):
        from repro.index.search import sweep_accuracy
        from repro.knn.exact import topk_neighbors

        d, q = request.getfixturevalue(dataset)
        gt, _ = topk_neighbors(q, d, 10)
        tree = BinaryPartitionTree(rule, 3, seed=3).fit(d)
        curve = sweep_accuracy(tree, d, q, gt, probe_counts=[tree.n_bins])
        assert curve["accuracy"].iloc[0] == 1.0

    def test_deterministic(self, data):
        d, _ = data
        b1 = BinaryPartitionTree("rp", 3, seed=9).fit(d).data_bins()
        b2 = BinaryPartitionTree("rp", 3, seed=9).fit(d).data_bins()
        np.testing.assert_array_equal(b1, b2)
