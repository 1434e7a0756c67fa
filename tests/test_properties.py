"""Property-based tests (hypothesis) for the numeric kernels."""
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cluster.metrics import adjusted_rand_index
from repro.core.train import sinkhorn_balance
from repro.index.search import topk_within
from repro.knn.exact import knn_matrix_numpy, shortlist_scores, topk_neighbors
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


def _shortlist(rows: np.ndarray, query: np.ndarray, k: int) -> np.ndarray:
    """Whether each row passes ``topk_within``'s cut for its k nearest."""
    score, margin = shortlist_scores(rows, query)
    return score <= np.partition(score, k - 1)[k - 1] + margin


class TestTopkWithinProperties:
    """``topk_within`` against the stable-sort oracle where the dot-product
    shortlist is hardest to certify: exact copies, copies 1e-8 or one ulp
    apart, and data far from the origin, where the expansion loses digits."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 30),
           st.integers(1, 16), st.integers(1, 15), st.sampled_from([0.0, 1e4, 1e8]),
           st.sampled_from(["none", "1e-8", "ulp"]), st.integers(0, 120), st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_equals_stable_sort(self, topk_oracle, seed, n_base, n_copies, d, k, offset,
                                jitter, width, b):
        rng = np.random.default_rng(seed)
        data = np.repeat(rng.normal(size=(n_base, d)), n_copies, axis=0) + offset
        if jitter == "1e-8":
            data += 1e-8 * rng.normal(size=data.shape)
        elif jitter == "ulp":
            data = np.where(rng.random(data.shape) < 0.5, np.nextafter(data, np.inf), data)
        # Half the queries sit on a data point, half next to one.
        q = data[rng.integers(0, len(data), b)]
        q = q + (rng.random(b) < 0.5)[:, None] * 1e-3 * rng.normal(size=(b, d))
        # Rows of random length (0 for an all-padding row, often below k),
        # ids drawn with repeats, padded with -1.
        lengths = rng.integers(0, width + 1, b)
        cand = np.full((b, width), -1, dtype=np.int64)
        for i, n in enumerate(lengths):
            cand[i, :n] = rng.integers(0, len(data), n)
        block = topk_within(q, data, cand, k)
        assert block.shape == (b, k)
        for i, n in enumerate(lengths):
            want = topk_oracle(q[i], data, cand[i], k)
            np.testing.assert_array_equal(block[i, :len(want)], want)
            assert (block[i, len(want):] == -1).all()
            np.testing.assert_array_equal(topk_within(q[i], data, cand[i, :n], k), want)
            np.testing.assert_array_equal(topk_within(q[i], data, cand[i], k), want)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 10))
    @settings(max_examples=30, deadline=None)
    def test_duplicates_fixture(self, duplicates, topk_oracle, seed, k):
        data, queries = duplicates
        rng = np.random.default_rng(seed)
        cand = np.stack([rng.permutation(len(data))[:60] for _ in queries])
        block = topk_within(queries, data, cand, k)
        for q, c, got in zip(queries, cand, block):
            want = topk_oracle(q, data, c, k)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(topk_within(q, data, c, k), want)

    def test_offset_widens_the_shortlist_to_every_row(self, topk_oracle):
        """At 1e8 from the origin the margin outgrows every score gap, so
        each row gets the difference form; near the origin few do."""
        rng = np.random.default_rng(8)
        base = rng.normal(size=(200, 8))
        q = base[5] + 1e-3 * rng.normal(size=8)
        cand = rng.permutation(200)
        assert _shortlist(base[cand], q, 10).sum() < 20
        far = base + 1e8
        assert _shortlist(far[cand], q + 1e8, 10).all()
        np.testing.assert_array_equal(topk_within(q + 1e8, far, cand, 10),
                                      topk_oracle(q + 1e8, far, cand, 10))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.sampled_from([0.0, 1e4, 1e8]))
    @settings(max_examples=30, deadline=None)
    def test_margin_covers_the_expansion_error(self, seed, d, offset):
        """|score − (‖x‖² − 2x·q)| in exact rational arithmetic stays within
        the margin."""
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(6, d)) + offset
        q = rng.normal(size=d) + offset
        score, margin = shortlist_scores(rows, q)
        for x, s in zip(rows, score):
            exact = sum(Fraction(v) * Fraction(v) - 2 * Fraction(v) * Fraction(w)
                        for v, w in zip(x, q))
            assert abs(Fraction(s) - exact) <= Fraction(margin)


def _near_copies(seed: int, n_base: int, n_copies: int, d: int, offset: float,
                 jitter: str) -> np.ndarray:
    """``n_base`` points repeated ``n_copies`` times and moved ``offset``
    from the origin, then left exact, jittered by 1e-8 or moved one ulp."""
    rng = np.random.default_rng(seed)
    data = np.repeat(rng.normal(size=(n_base, d)), n_copies, axis=0) + offset
    if jitter == "1e-8":
        data += 1e-8 * rng.normal(size=data.shape)
    elif jitter == "ulp":
        data = np.where(rng.random(data.shape) < 0.5, np.nextafter(data, np.inf), data)
    return data


def _stable_knn(queries: np.ndarray, data: np.ndarray, k: int, exclude_self: bool):
    """Oracle of the one exact rule: ids and distances of the first k of a
    stable sort of ``data`` by difference-form distance, ties by index; with
    ``exclude_self`` query i is data row i and skips it."""
    dist = np.stack([np.sqrt(((data - q) ** 2).sum(axis=1)) for q in queries])
    if exclude_self:
        np.fill_diagonal(dist, np.inf)
    idx = np.argsort(dist, axis=1, kind="stable")[:, :k]
    return idx, np.take_along_axis(dist, idx, axis=1)


class TestExactKnnProperties:
    """``knn_matrix_numpy`` and ``topk_neighbors`` against the stable-sort
    oracle on the inputs of ``TestTopkWithinProperties``, where the
    expansion cannot order copies: every block size gives the oracle's
    matrix, and the ground truth's ids and distances equal it bit for bit."""

    jitters = st.sampled_from(["none", "1e-8", "ulp"])
    offsets = st.sampled_from([0.0, 1e4, 1e8])

    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 30),
           st.integers(1, 16), st.integers(1, 15), offsets, jitters)
    @settings(max_examples=100, deadline=None)
    def test_knn_matrix_equals_stable_sort(self, seed, n_base, n_copies, d, k, offset,
                                           jitter):
        data = _near_copies(seed, n_base, n_copies, d, offset, jitter)
        n = len(data)
        k = min(k, n - 1)
        want = _stable_knn(data, data, k, exclude_self=True)[0]
        for block in (1, 7, 256, n):
            np.testing.assert_array_equal(knn_matrix_numpy(data, k, block=block), want)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 30),
           st.integers(1, 16), st.integers(1, 15), offsets, jitters, st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_topk_neighbors_equals_stable_sort(self, seed, n_base, n_copies, d, k, offset,
                                               jitter, b):
        data = _near_copies(seed, n_base, n_copies, d, offset, jitter)
        # Half the queries sit on a data point, half next to one.
        rng = np.random.default_rng(seed + 1)
        q = data[rng.integers(0, len(data), b)]
        q = q + (rng.random(b) < 0.5)[:, None] * 1e-3 * rng.normal(size=(b, d))
        idx, dist = topk_neighbors(q, data, k)
        want_idx, want_dist = _stable_knn(q, data, k, exclude_self=False)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(dist, want_dist)

    def test_copies_fixture(self, copies):
        """60 points × 100 exact copies: every row's top 10 is a tie."""
        data, queries = copies
        want = _stable_knn(data, data, 10, exclude_self=True)[0]
        for block in (1, 7, 256, len(data)):
            np.testing.assert_array_equal(knn_matrix_numpy(data, 10, block=block), want)
        idx, dist = topk_neighbors(queries, data, 10)
        want_idx, want_dist = _stable_knn(queries, data, 10, exclude_self=False)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(dist, want_dist)


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
