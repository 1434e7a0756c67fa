"""Cross-polytope LSH tests."""
import numpy as np
import pytest

from repro.baselines.lsh import CrossPolytopeLSH
from repro.synth_data import sift_lite


@pytest.fixture(scope="module")
def data():
    d, _ = sift_lite(n=500, d=10, n_queries=10, n_components=6, seed=41)
    return d


class TestCrossPolytopeLSH:
    def test_rotation_orthogonal(self, data):
        lsh = CrossPolytopeLSH(8, seed=0).fit(data)
        q = lsh.rotation
        np.testing.assert_allclose(q @ q.T, np.eye(q.shape[0]), atol=1e-10)

    def test_odd_m_rejected(self):
        with pytest.raises(ValueError):
            CrossPolytopeLSH(7)

    def test_m_too_large_rejected(self, data):
        with pytest.raises(ValueError):
            CrossPolytopeLSH(2 * data.shape[1] + 2).fit(data)

    def test_bins_in_range(self, data):
        lsh = CrossPolytopeLSH(12, seed=1).fit(data)
        bins = lsh.data_bins()
        assert bins.min() >= 0 and bins.max() < 12

    def test_probe_matrix_permutation(self, data):
        lsh = CrossPolytopeLSH(8, seed=2).fit(data)
        pm = lsh.probe_matrix(data[:6])
        for row in pm:
            assert sorted(row) == list(range(8))

    def test_first_probe_is_hash_bin(self, data):
        lsh = CrossPolytopeLSH(8, seed=3).fit(data)
        pm = lsh.probe_matrix(data[:20])
        np.testing.assert_array_equal(pm[:, 0], lsh.data_bins()[:20])

    def test_sign_buckets_opposite(self, data):
        """A point and its negation hash to paired ± buckets."""
        lsh = CrossPolytopeLSH(8, seed=4).fit(data)
        b_pos = lsh.probe_scores(data[:10]).argmax(axis=1)
        b_neg = lsh.probe_scores(-data[:10]).argmax(axis=1)
        np.testing.assert_array_equal(b_pos ^ 1, b_neg)  # 2j ↔ 2j+1

    def test_deterministic(self, data):
        b1 = CrossPolytopeLSH(8, seed=5).fit(data).data_bins()
        b2 = CrossPolytopeLSH(8, seed=5).fit(data).data_bins()
        np.testing.assert_array_equal(b1, b2)

    def test_data_oblivious(self, data):
        """Hash of a point does not depend on the rest of the dataset."""
        lsh1 = CrossPolytopeLSH(8, seed=6).fit(data)
        lsh2 = CrossPolytopeLSH(8, seed=6).fit(data[:100])
        np.testing.assert_array_equal(lsh1.data_bins()[:100], lsh2.data_bins())
