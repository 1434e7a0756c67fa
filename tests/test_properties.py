"""Property-based tests (hypothesis) for the numeric kernels."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cluster.metrics import adjusted_rand_index
from repro.core.train import sinkhorn_balance
from repro.knn.exact import topk_neighbors
from repro.nn.layers import softmax

finite = st.floats(-50, 50, allow_nan=False, allow_infinity=False)


class TestSoftmaxProperties:
    @given(arrays(np.float64, (4, 5), elements=finite))
    @settings(max_examples=50, deadline=None)
    def test_simplex(self, z):
        p = softmax(z)
        assert np.all(p >= 0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)

    @given(arrays(np.float64, (3, 4), elements=finite), st.floats(-100, 100))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, z, c):
        np.testing.assert_allclose(softmax(z), softmax(z + c), atol=1e-9)


class TestSinkhornProperties:
    @given(arrays(np.float64, (8, 3), elements=st.floats(0.01, 10)))
    @settings(max_examples=50, deadline=None)
    def test_rows_normalized(self, t):
        out = sinkhorn_balance(t)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(out >= 0)

    @given(arrays(np.float64, (12, 4), elements=st.floats(0.01, 10)))
    @settings(max_examples=30, deadline=None)
    def test_columns_converge_to_uniform(self, t):
        out = sinkhorn_balance(t, iters=200)
        np.testing.assert_allclose(out.sum(axis=0), 3.0, rtol=0.02)


class TestTopkProperties:
    @given(st.integers(5, 40), st.integers(2, 6), st.integers(1, 5), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_distances_sorted_and_minimal(self, n, d, k, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(n, d))
        q = rng.normal(size=(1, d))
        idx, dist = topk_neighbors(q, data, k)
        assert (np.diff(dist[0]) >= -1e-12).all()
        # The k-th returned distance is ≤ every excluded point's distance.
        all_d = np.linalg.norm(data - q[0], axis=1)
        excluded = np.setdiff1d(np.arange(n), idx[0])
        if len(excluded):
            assert dist[0][-1] <= all_d[excluded].min() + 1e-9


class TestMetricProperties:
    labels = arrays(np.int64, 30, elements=st.integers(0, 4))

    @given(labels)
    @settings(max_examples=50, deadline=None)
    def test_ari_self_is_one(self, y):
        assert adjusted_rand_index(y, y) == 1.0

    @given(labels, labels)
    @settings(max_examples=50, deadline=None)
    def test_ari_symmetric(self, a, b):
        assert adjusted_rand_index(a, b) == adjusted_rand_index(b, a)

    @given(labels, st.permutations(list(range(5))))
    @settings(max_examples=30, deadline=None)
    def test_ari_relabel_invariant(self, y, perm):
        remap = np.array(perm)[y]
        assert adjusted_rand_index(y, remap) == 1.0
