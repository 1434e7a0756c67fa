"""KaHIP-substitute tests: balance, cut quality, refinement, components."""
import numpy as np
import pytest

from repro.baselines.graph_partition import (
    balanced_graph_partition,
    connected_components,
    edge_cut,
    knn_graph_adjacency,
)
from repro.knn.exact import knn_matrix_numpy
from repro.synth_data import circles, sift_lite


@pytest.fixture(scope="module")
def graph():
    data, _ = sift_lite(n=600, d=8, n_queries=10, n_components=8, seed=51)
    knn = knn_matrix_numpy(data, 8)
    return data, knn


class TestAdjacency:
    def test_symmetric(self, graph):
        _, knn = graph
        adj = knn_graph_adjacency(knn)
        for i in range(0, 600, 37):
            for j in adj[i]:
                assert i in adj[j]

    def test_includes_knn_edges(self, graph):
        _, knn = graph
        adj = knn_graph_adjacency(knn)
        for i in range(0, 600, 53):
            assert set(knn[i]) <= set(adj[i])

    def test_no_self_loops_needed(self, graph):
        _, knn = graph
        adj = knn_graph_adjacency(knn)
        # self may appear only if i ∈ knn[i], which knn_matrix_numpy excludes
        for i in range(0, 600, 41):
            assert i not in knn[i]


class TestBalancedPartition:
    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_balance_cap(self, graph, m):
        _, knn = graph
        labels = balanced_graph_partition(knn, m, eps=0.1, seed=0)
        sizes = np.bincount(labels, minlength=m)
        cap = int(np.ceil(600 / m) * 1.1) + 1
        assert sizes.max() <= cap
        assert (sizes > 0).all()

    def test_all_assigned(self, graph):
        _, knn = graph
        labels = balanced_graph_partition(knn, 4, seed=1)
        assert (labels >= 0).all() and labels.shape == (600,)

    def test_cut_better_than_random(self, graph):
        _, knn = graph
        adj = knn_graph_adjacency(knn)
        labels = balanced_graph_partition(knn, 4, seed=2)
        rng = np.random.default_rng(0)
        rand = rng.integers(0, 4, 600)
        assert edge_cut(adj, labels) < 0.6 * edge_cut(adj, rand)

    def test_deterministic(self, graph):
        _, knn = graph
        l1 = balanced_graph_partition(knn, 4, seed=3)
        l2 = balanced_graph_partition(knn, 4, seed=3)
        np.testing.assert_array_equal(l1, l2)

    @pytest.mark.parametrize("m", [0, -1, 11])
    def test_rejects_m_outside_1_n(self, m):
        """More blocks than vertices would seed one vertex twice and leave
        blocks empty; they fail instead."""
        knn = knn_matrix_numpy(np.random.default_rng(0).normal(size=(10, 3)), 3)
        with pytest.raises(ValueError, match=f"m={m} blocks outside \\[1, n=10\\]"):
            balanced_graph_partition(knn, m)

    def test_one_vertex_per_block_at_m_n(self):
        knn = knn_matrix_numpy(np.random.default_rng(0).normal(size=(10, 3)), 3)
        assert sorted(balanced_graph_partition(knn, 10)) == list(range(10))

    def test_respects_components(self):
        """On circles (two disconnected rings, equal sizes) the 2-way
        balanced partition should align with the rings (near-zero cut)."""
        x, y = circles(n=400, seed=7)
        knn = knn_matrix_numpy(x, 8)
        labels = balanced_graph_partition(knn, 2, seed=0)
        adj = knn_graph_adjacency(knn)
        assert edge_cut(adj, labels) <= edge_cut(adj, y) + 20


class TestConnectedComponents:
    def test_circles_two_components(self):
        x, y = circles(n=300, seed=8)
        comp = connected_components(knn_matrix_numpy(x, 8))
        assert comp.max() + 1 == 2
        # components == rings up to relabel
        assert len(np.unique(comp[y == 0])) == 1
        assert len(np.unique(comp[y == 1])) == 1

    def test_single_component(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(200, 3))
        comp = connected_components(knn_matrix_numpy(x, 10))
        assert comp.max() + 1 == 1

    def test_labels_contiguous(self):
        x, _ = circles(n=100, seed=10)
        comp = connected_components(knn_matrix_numpy(x, 5))
        assert set(np.unique(comp)) == set(range(comp.max() + 1))
