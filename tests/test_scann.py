"""ScaNN-side substrate tests: anisotropic PQ, HNSW, IVF (a K-means
partition searched exactly inside its candidate sets), pipelines."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines.kmeans import KMeansPartitioner
from repro.index.search import topk_within
from repro.knn.exact import topk_neighbors
from repro.knn.metrics import knn_accuracy
from repro.scann.avq import AnisotropicPQ
from repro.scann.hnsw import HNSW
from repro.scann.pipelines import (
    ScannPipeline,
    recall_time_curve,
    speedup_at_recall,
    time_at_recall,
)
from repro.synth_data import sift_lite


@pytest.fixture(scope="module")
def data():
    d, q = sift_lite(n=2000, d=16, n_queries=100, n_components=16, seed=91)
    return d, q


@pytest.fixture(scope="module")
def gt(data):
    d, q = data
    idx, _ = topk_neighbors(q, d, 10)
    return idx


class TestAnisotropicPQ:
    def test_codes_shape_and_range(self, data):
        d, _ = data
        pq = AnisotropicPQ(4, 16, seed=0).fit(d)
        assert pq.codes.shape == (len(d), 4)
        assert pq.codes.max() < 16

    def test_more_centers_better_reconstruction(self, data):
        d, _ = data
        errs = []
        for nc in (8, 64):
            pq = AnisotropicPQ(4, nc, h_par=1.0, seed=0).fit(d)
            errs.append(np.linalg.norm(pq.reconstruction() - d))
        assert errs[1] < errs[0]

    def test_isotropic_update_is_mean(self):
        """With h_par == h_perp the closed-form center update must equal the
        plain k-means centroid (cluster mean)."""
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(50, 4))
        pq = AnisotropicPQ(1, 2, h_par=1.0, h_perp=1.0, n_iter=0, seed=0)
        assign = np.r_[np.zeros(25, int), np.ones(25, int)]
        cb = pq._update_centers(xs, assign, np.zeros((2, 4)))
        np.testing.assert_allclose(cb[0], xs[:25].mean(axis=0), atol=1e-9)
        np.testing.assert_allclose(cb[1], xs[25:].mean(axis=0), atol=1e-9)

    def test_anisotropic_center_optimal(self):
        """The solved center must beat small perturbations under the
        anisotropic loss ℓ(x, c) = (x−c)ᵀ M_x (x−c)."""
        rng = np.random.default_rng(1)
        xs = rng.normal(2.0, 1.0, size=(40, 3))
        pq = AnisotropicPQ(1, 1, h_par=4.0, h_perp=1.0, n_iter=0, seed=0)
        c = pq._update_centers(xs, np.zeros(40, int), np.zeros((1, 3)))[0]

        def loss(cc):
            n2 = (xs**2).sum(axis=1)
            r = xs - cc
            rpar = (r * xs).sum(axis=1) ** 2 / n2
            return (1.0 * ((r**2).sum(axis=1) - rpar) + 4.0 * rpar).sum()

        base = loss(c)
        for _ in range(8):
            assert base <= loss(c + rng.normal(0, 0.05, 3)) + 1e-9

    def test_adc_correlates_with_exact(self, data):
        d, q = data
        pq = AnisotropicPQ(4, 64, seed=0).fit(d)
        approx = pq.adc_distances(q[0])
        exact = ((d - q[0]) ** 2).sum(axis=1)
        assert np.corrcoef(approx, exact)[0, 1] > 0.95

    def test_search_high_recall_with_rerank(self, data, gt):
        d, q = data
        pq = AnisotropicPQ(4, 64, seed=0).fit(d)
        ret = np.stack([pq.search(qq, 10, rerank=200) for qq in q])
        assert knn_accuracy(ret, gt) > 0.9

    def test_subset_search_stays_in_subset(self, data):
        d, q = data
        pq = AnisotropicPQ(4, 16, seed=0).fit(d)
        subset = np.arange(100, 300)
        ret = pq.search(q[0], 10, subset=subset)
        assert set(ret) <= set(subset)

    def test_empty_subset(self, data):
        d, q = data
        pq = AnisotropicPQ(4, 16, seed=0).fit(d)
        assert len(pq.search(q[0], 10, subset=np.empty(0, int))) == 0

    def test_more_than_256_centers_rejected(self):
        # Codes are uint8: centre 299 would wrap onto codeword 43.
        with pytest.raises(ValueError, match="256"):
            AnisotropicPQ(4, 300)


class TestHNSW:
    @pytest.fixture(scope="class")
    def index(self, data):
        d, _ = data
        return HNSW(M=8, ef_construction=64, seed=0).fit(d)

    def test_high_ef_high_recall(self, index, data, gt):
        _, q = data
        ret = np.stack([index.search(qq, 10, ef=128) for qq in q])
        assert knn_accuracy(ret, gt) > 0.85

    def test_recall_improves_with_ef(self, index, data, gt):
        _, q = data
        accs = []
        for ef in (10, 120):
            ret = np.stack([index.search(qq, 10, ef=ef) for qq in q])
            accs.append(knn_accuracy(ret, gt))
        assert accs[1] > accs[0]

    def test_layer0_contains_all(self, index, data):
        d, _ = data
        assert len(index.graphs[0]) == len(d)

    def test_returns_k(self, index, data):
        _, q = data
        assert len(index.search(q[0], 10, ef=50)) == 10


class TestIVF:
    """FAISS IVF-Flat as Fig. 7 runs it: K-means cells probed nearest
    centroid first, then exact top-k inside the candidate set."""

    @pytest.fixture(scope="class")
    def index(self, data):
        d, _ = data
        return KMeansPartitioner(16, n_iter=25, seed=0).fit(d)

    @staticmethod
    def search(index, d, q, nprobe):
        return np.stack([topk_within(qq, d, c, 10)
                         for qq, c in zip(q, index.candidate_ids(q, nprobe))])

    def test_lists_partition(self, index, data):
        d, _ = data
        ids = np.sort(np.concatenate(index.bin_members()))
        np.testing.assert_array_equal(ids, np.arange(len(d)))

    def test_full_probe_exact(self, index, data, gt):
        d, q = data
        assert knn_accuracy(self.search(index, d, q, 16), gt) == 1.0

    def test_recall_improves_with_nprobe(self, index, data, gt):
        d, q = data
        accs = [knn_accuracy(self.search(index, d, q, nprobe), gt) for nprobe in (1, 8)]
        assert accs[1] >= accs[0]


class TestPipelines:
    def test_partitioned_pipeline_recall(self, data, gt):
        d, q = data
        km = KMeansPartitioner(8, seed=0).fit(d)
        pipe = ScannPipeline(AnisotropicPQ(4, 64, seed=0), km).fit(d)
        ret = pipe.batch_search(q, 10, n_probes=4, rerank=200)
        assert knn_accuracy(ret, gt) > 0.85

    def test_vanilla_pipeline(self, data, gt):
        d, q = data
        pipe = ScannPipeline(AnisotropicPQ(4, 64, seed=0)).fit(d)
        ret = pipe.batch_search(q, 10, rerank=200)
        assert knn_accuracy(ret, gt) > 0.85

    def test_recall_time_curve_shape(self, data, gt):
        d, q = data
        pipe = ScannPipeline(AnisotropicPQ(4, 32, seed=0)).fit(d)
        curve = recall_time_curve(
            lambda qs, k, p: pipe.batch_search(qs, k, rerank=p), [20, 100], q[:30], gt[:30]
        )
        assert list(curve.columns) == ["param", "recall", "ms_per_query"]
        assert curve["recall"].iloc[1] >= curve["recall"].iloc[0]

    def test_batch_search_matches_per_query(self, data, gt):
        """A block of queries gets the answers each query gets alone, and
        each answer is the PQ search inside the query's candidate set."""
        d, q = data
        km = KMeansPartitioner(8, seed=0).fit(d)
        pipe = ScannPipeline(AnisotropicPQ(4, 32, seed=0), km).fit(d)
        qq = q[:20]
        batch = pipe.batch_search(qq, 10, n_probes=2, rerank=80)
        for i, (one, cand) in enumerate(zip(qq, km.candidate_ids(qq, 2))):
            np.testing.assert_array_equal(
                batch[i], pipe.batch_search(one[None], 10, n_probes=2, rerank=80)[0])
            np.testing.assert_array_equal(batch[i], pipe.pq.search(one, 10, subset=cand, rerank=80))

    def test_batch_search_vanilla(self, data, gt):
        d, q = data
        pipe = ScannPipeline(AnisotropicPQ(4, 32, seed=0)).fit(d)
        batch = pipe.batch_search(q[:10], 10, rerank=80)
        assert batch.shape == (10, 10)
        np.testing.assert_array_equal(batch[0], pipe.pq.search(q[0], 10, rerank=80))

    def test_batched_pipeline_curve(self, data, gt):
        d, q = data
        km = KMeansPartitioner(8, seed=0).fit(d)
        pipe = ScannPipeline(AnisotropicPQ(4, 32, seed=0), km).fit(d)

        def fn(qs, k, p):
            # Re-rank budget grows with probes so recall is monotone.
            return pipe.batch_search(qs, k, n_probes=p, rerank=80 * p)

        curve = recall_time_curve(fn, [1, 4], q[:40], gt[:40])
        assert len(curve) == 2
        assert curve["recall"].iloc[1] >= curve["recall"].iloc[0]

    def test_curve_pads_ragged_rows(self, data, gt):
        """Rows shorter than k count as misses; a row of the first 5 true
        neighbours scores 0.5 at k = 10."""
        _, q = data
        curve = recall_time_curve(lambda qs, k, p: [g[:p] for g in gt[: len(qs)]],
                                  [5, 10], q, gt)
        assert curve["recall"].tolist() == [0.5, 1.0]

    def test_time_at_recall_interp(self):
        c = pd.DataFrame({"param": [1, 2], "recall": [0.5, 1.0], "ms_per_query": [1.0, 3.0]})
        assert time_at_recall(c, 0.75) == pytest.approx(2.0)
        assert time_at_recall(c, 0.5) == 1.0
        assert time_at_recall(c, 1.1) is None

    def test_speedup_at_recall(self):
        fast = pd.DataFrame({"param": [1], "recall": [0.9], "ms_per_query": [1.0]})
        slow = pd.DataFrame({"param": [1], "recall": [0.9], "ms_per_query": [1.4]})
        assert speedup_at_recall(fast, slow, 0.9) == pytest.approx(0.4)
