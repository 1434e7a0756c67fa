"""ScaNN-side substrate tests: anisotropic PQ, HNSW, IVF (a K-means
partition searched exactly inside its candidate sets), pipelines, and the
block search against the per-query loop it replaced."""
from functools import reduce

import numpy as np
import pandas as pd
import pytest

from repro.baselines.kmeans import KMeansPartitioner
from repro.core.hierarchy import HierarchicalPartitioner
from repro.core.train import TrainConfig
from repro.index.search import topk_within
from repro.knn.exact import sqdist, topk_neighbors
from repro.knn.metrics import knn_accuracy
from repro.scann import avq
from repro.scann.avq import AnisotropicPQ
from repro.scann.hnsw import HNSW
from repro.scann.pipelines import (
    TIMED_REPEATS,
    ScannPipeline,
    run_pipeline_sweep,
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
        cb = pq._update_centers(xs, inverse_sq(xs), assign, np.zeros((2, 4)))
        np.testing.assert_allclose(cb[0], xs[:25].mean(axis=0), atol=1e-9)
        np.testing.assert_allclose(cb[1], xs[25:].mean(axis=0), atol=1e-9)

    def test_anisotropic_center_optimal(self):
        """The solved center must beat small perturbations under the
        anisotropic loss ℓ(x, c) = (x−c)ᵀ M_x (x−c)."""
        rng = np.random.default_rng(1)
        xs = rng.normal(2.0, 1.0, size=(40, 3))
        pq = AnisotropicPQ(1, 1, h_par=4.0, h_perp=1.0, n_iter=0, seed=0)
        c = pq._update_centers(xs, inverse_sq(xs), np.zeros(40, int), np.zeros((1, 3)))[0]

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
        ret = pq.search(q, 10, rerank=200)
        assert knn_accuracy(ret, gt) > 0.9

    def test_subset_search_stays_in_subset(self, data):
        d, q = data
        pq = AnisotropicPQ(4, 16, seed=0).fit(d)
        subset = np.arange(100, 300)
        ret = pq.search(q[:1], 10, subset=[subset])[0]
        assert set(ret) <= set(subset)

    def test_empty_subset(self, data):
        d, q = data
        pq = AnisotropicPQ(4, 16, seed=0).fit(d)
        assert (pq.search(q[:1], 10, subset=[np.empty(0, int)]) == -1).all()

    def test_more_than_256_centers_rejected(self):
        # Codes are uint8: centre 299 would wrap onto codeword 43.
        with pytest.raises(ValueError, match="256"):
            AnisotropicPQ(4, 300)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_fit_rejects_non_finite(self, data, bad):
        d = data[0][:100].copy()
        d[5, 2] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            AnisotropicPQ(4, 16, seed=0).fit(d)

    def test_fit_rejects_one_dimensional(self, data):
        with pytest.raises(ValueError, match="expected \\(n, d\\)"):
            AnisotropicPQ(4, 16, seed=0).fit(data[0][:, 0])


    @pytest.mark.parametrize("kwargs", [
        {"n_sub": 0}, {"n_sub": -1}, {"n_centers": 0}, {"n_centers": -4},
        {"h_par": 0.0}, {"h_par": -1.0}, {"h_perp": 0.0}, {"h_perp": -1.0},
        {"h_par": np.nan},
    ])
    def test_bad_arguments_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AnisotropicPQ(**kwargs)

    def test_more_subspaces_than_dimensions_rejected(self, data):
        with pytest.raises(ValueError, match="n_sub=8 > d=4"):
            AnisotropicPQ(8, 16, seed=0).fit(data[0][:, :4])


def reference_fit(pq: AnisotropicPQ, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray, int]:
    """The fit as it was before its rows were grouped: the loss rebuilt from
    scratch every assignment, and per centre two boolean masks, an
    ``np.eye`` and its own ``solve``. Returns codebooks, codes and the
    number of empty clusters the updates met."""
    n, d = x.shape
    rng = np.random.default_rng(pq.seed)
    edges = np.linspace(0, d, pq.n_sub + 1).astype(int)
    dh = pq.h_par - pq.h_perp
    empty = 0

    def assign(xs, cb):
        norms = np.linalg.norm(xs, axis=1, keepdims=True) + 1e-12
        proj = norms - (xs / norms) @ cb.T
        d2 = np.maximum(sqdist(xs, cb), 0.0)
        return (pq.h_perp * d2 + dh * proj**2).argmin(axis=1)

    def update(xs, a, cb):
        nonlocal empty
        norms2 = (xs**2).sum(axis=1) + 1e-12
        out = cb.copy()
        for j in range(len(cb)):
            pts = xs[a == j]
            if not len(pts):
                empty += 1
                continue
            outer = (pts / norms2[a == j][:, None]).T @ pts
            m = pq.h_perp * len(pts) * np.eye(xs.shape[1]) + dh * outer
            out[j] = np.linalg.solve(m, pq.h_par * pts.sum(axis=0))
        return out

    codebooks, codes = [], np.empty((n, pq.n_sub), dtype=np.uint8)
    for s in range(pq.n_sub):
        xs = x[:, edges[s]:edges[s + 1]]
        cb = xs[rng.choice(n, size=min(pq.n_centers, n), replace=False)]
        a = assign(xs, cb)
        for _ in range(pq.n_iter):
            cb = update(xs, a, cb)
            new = assign(xs, cb)
            done = (new == a).all()
            a = new
            if done:
                break
        codebooks.append(cb)
        codes[:, s] = a
    return codebooks, codes, empty


class TestGroupedFitBitIdentity:
    """The grouped fit (one stable argsort, one stacked solve) must give
    exactly the codebooks and codes of the per-centre reference."""

    def check(self, pq, x):
        codebooks, codes, empty = reference_fit(pq, x)
        pq.fit(x)
        assert np.array_equal(pq.codes, codes)
        assert len(pq.codebooks) == len(codebooks)
        for got, want in zip(pq.codebooks, codebooks):
            assert np.array_equal(got, want)
        return empty

    @pytest.mark.parametrize("h_par,h_perp", [(4.0, 1.0), (1.0, 1.0)])
    @pytest.mark.parametrize("n_sub,n_centers", [(4, 64), (4, 16), (3, 8)])
    def test_matches_reference(self, data, n_sub, n_centers, h_par, h_perp):
        pq = AnisotropicPQ(n_sub, n_centers, h_par=h_par, h_perp=h_perp, seed=3)
        self.check(pq, data[0])

    def test_uneven_subspaces(self, data):
        # d = 15 over 4 subspaces: widths 3, 4, 4, 4.
        self.check(AnisotropicPQ(4, 16, seed=4), data[0][:, :15])

    def test_empty_clusters(self):
        # 12 distinct points, each repeated: some initial centres coincide,
        # and a tied argmin leaves the later copy's cluster empty.
        rng = np.random.default_rng(5)
        x = np.repeat(rng.normal(size=(12, 6)), 25, axis=0)
        assert self.check(AnisotropicPQ(2, 16, seed=5), x) > 0

    @pytest.mark.parametrize("h_par", [4.0, 1.0, 0.25])
    def test_update_with_empty_clusters(self, data, h_par):
        xs = data[0][:, 4:8]
        a = np.random.default_rng(6).integers(0, 12, len(xs)) * 2   # odd ids empty
        cb = np.random.default_rng(7).normal(size=(24, 4))
        pq = AnisotropicPQ(1, 24, h_par=h_par, h_perp=1.0)
        got = pq._update_centers(xs, inverse_sq(xs), a, cb)
        want = cb.copy()
        norms2 = (xs**2).sum(axis=1) + 1e-12
        for j in range(0, 24, 2):
            pts = xs[a == j]
            outer = (pts / norms2[a == j][:, None]).T @ pts
            m = len(pts) * np.eye(4) + (h_par - 1.0) * outer
            want[j] = np.linalg.solve(m, h_par * pts.sum(axis=0))
        assert np.array_equal(got, want)
        assert np.array_equal(got[1::2], cb[1::2])


def inverse_sq(xs: np.ndarray) -> np.ndarray:
    """The rows x/‖x‖² that ``_update_centers`` takes with the subvectors."""
    return xs / ((xs**2).sum(axis=1) + 1e-12)[:, None]


def whole_assign(pq, xs, cb, norms, xhat):
    """The assignment as one pass over all rows: the full (n, k) loss, then
    its argmin as int64."""
    loss = sqdist(xs, cb)
    np.maximum(loss, 0.0, out=loss)
    loss *= pq.h_perp
    proj = xhat @ cb.T
    np.subtract(norms, proj, out=proj)
    np.square(proj, out=proj)
    proj *= pq.h_par - pq.h_perp
    loss += proj
    return loss.argmin(axis=1)


def regathered_update(pq, xs, assign, cb):
    """The centre update that gathers the rows by a stable argsort of int64
    codes and computes x/‖x‖² from the gathered rows on every call."""
    d = xs.shape[1]
    order = np.argsort(assign, kind="stable")
    pts = xs[order]
    scaled = pts / ((pts**2).sum(axis=1) + 1e-12)[:, None]
    counts = np.bincount(assign, minlength=len(cb))
    full = np.flatnonzero(counts)
    ends = np.cumsum(counts)[full]
    outer = np.empty((len(full), d, d))
    sums = np.empty((len(full), d))
    for i, (lo, hi) in enumerate(zip((ends - counts[full]).tolist(), ends.tolist())):
        outer[i] = scaled[lo:hi].T @ pts[lo:hi]
        sums[i] = pts[lo:hi].sum(axis=0)
    a = (pq.h_perp * counts[full])[:, None, None] * np.eye(d) + (pq.h_par - pq.h_perp) * outer
    out = cb.copy()
    out[full] = np.linalg.solve(a, pq.h_par * sums[:, :, None])[:, :, 0]
    return out


def whole_fit(pq: AnisotropicPQ, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The Lloyd loop of ``AnisotropicPQ.fit`` on :func:`whole_assign` and
    :func:`regathered_update`: codebooks and codes."""
    n, d = x.shape
    rng = np.random.default_rng(pq.seed)
    edges = np.linspace(0, d, pq.n_sub + 1).astype(int)
    codebooks, codes = [], np.empty((n, pq.n_sub), dtype=np.uint8)
    for s in range(pq.n_sub):
        xs = x[:, edges[s]:edges[s + 1]]
        norms = np.linalg.norm(xs, axis=1, keepdims=True) + 1e-12
        xhat = xs / norms
        cb = xs[rng.choice(n, size=min(pq.n_centers, n), replace=False)]
        a = whole_assign(pq, xs, cb, norms, xhat)
        for _ in range(pq.n_iter):
            cb = regathered_update(pq, xs, a, cb)
            new = whole_assign(pq, xs, cb, norms, xhat)
            done = (new == a).all()
            a = new
            if done:
                break
        codebooks.append(cb)
        codes[:, s] = a
    return codebooks, codes


class TestRowBlockedFit:
    """The fit in row blocks of ``ASSIGN_ENTRIES`` loss entries, on uint8
    codes and x/‖x‖² computed once per subspace, gives exactly the codes and
    codebooks of the one-pass assignment and the regathering update."""

    @staticmethod
    def rows(n_centers: int) -> int:
        return max(2, avq.ASSIGN_ENTRIES // n_centers)

    def check(self, pq, x):
        codebooks, codes = whole_fit(pq, x)
        pq.fit(x)
        assert pq.codes.dtype == np.uint8 and np.array_equal(pq.codes, codes)
        for got, want in zip(pq.codebooks, codebooks, strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_centers", [1, 64, 256])
    @pytest.mark.parametrize("where", ["below", "equal", "one over", "not a multiple"])
    def test_matches_whole_fit(self, n_centers, where):
        """n below one block, exactly one, one row over (the last block
        takes it: no one-row gemv) and not a multiple of the block, with
        unequal subspace widths (d = 15 over 4: 3, 4, 4, 4)."""
        rows = self.rows(n_centers)
        n = {"below": rows - 3, "equal": rows, "one over": rows + 1,
             "not a multiple": 2 * rows + rows // 3}[where]
        x = sift_lite(n=n, d=15, n_queries=1, n_components=8, seed=n_centers)[0]
        self.check(AnisotropicPQ(4, n_centers, seed=1), x)

    @pytest.mark.parametrize("n_centers", [16, 256])
    def test_isotropic_matches_whole_fit(self, n_centers):
        """h∥ = h⊥: the parallel term is multiplied by zero."""
        x = sift_lite(n=3 * self.rows(n_centers) + 7, d=15, n_queries=1, n_components=8,
                      seed=7)[0]
        self.check(AnisotropicPQ(4, n_centers, h_par=2.0, h_perp=2.0, seed=2), x)

    @pytest.mark.parametrize("n, rows", [(2000, 2), (1999, 2), (1999, 3), (2000, 999),
                                         (2000, 1999), (2000, 2000), (2000, 4000)])
    def test_assign_blocks_equal_one_pass(self, data, monkeypatch, n, rows):
        """Every block size, down to 2 rows, assigns as the one pass does,
        and no block is one row: a one-row tail joins the block before it."""
        xs = data[0][:n, 4:8]
        norms = np.linalg.norm(xs, axis=1, keepdims=True) + 1e-12
        xhat = xs / norms
        cb = np.random.default_rng(8).normal(size=(64, 4))
        pq = AnisotropicPQ(1, 64)
        want = whole_assign(pq, xs, cb, norms, xhat)
        blocks = []
        monkeypatch.setattr(avq, "ASSIGN_ENTRIES", 64 * rows)
        monkeypatch.setattr(avq, "sqdist", lambda a, b: blocks.append(len(a)) or sqdist(a, b))
        assert np.array_equal(pq._aniso_assign(xs, cb, norms, xhat), want)
        assert sum(blocks) == n and min(blocks) >= 2
        assert max(blocks) in (min(rows, n), rows + 1)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_fit_rejects_non_finite(self, data, bad):
        d = data[0][:50].copy()
        d[5, 2] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            HNSW(M=4, ef_construction=8).fit(d)

    def test_search_rejects_bad_query(self, index, data):
        _, q = data
        with pytest.raises(ValueError, match="dimension"):
            index.search(q[0, :-1], 10)
        for bad in (np.nan, np.inf, -np.inf):
            qq = q[0].copy()
            qq[3] = bad
            with pytest.raises(ValueError, match="NaN or infinite"):
                index.search(qq, 10)


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
        curve = run_pipeline_sweep(
            {"vanilla": (lambda qs, k, p: pipe.batch_search(qs, k, rerank=p), [20, 100])},
            q[:30], gt[:30])
        assert list(curve.columns) == ["method", "param", "recall", "ms_per_query"]
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
            np.testing.assert_array_equal(
                batch[i], pipe.pq.search(one[None], 10, subset=[cand], rerank=80)[0])

    def test_batch_search_vanilla(self, data, gt):
        d, q = data
        pipe = ScannPipeline(AnisotropicPQ(4, 32, seed=0)).fit(d)
        batch = pipe.batch_search(q[:10], 10, rerank=80)
        assert batch.shape == (10, 10)
        np.testing.assert_array_equal(batch[0], pipe.pq.search(q[:1], 10, rerank=80)[0])

    def test_batched_pipeline_curve(self, data, gt):
        d, q = data
        km = KMeansPartitioner(8, seed=0).fit(d)
        pipe = ScannPipeline(AnisotropicPQ(4, 32, seed=0), km).fit(d)

        def fn(qs, k, p):
            # Re-rank budget grows with probes so recall is monotone.
            return pipe.batch_search(qs, k, n_probes=p, rerank=80 * p)

        curve = run_pipeline_sweep({"k-means": (fn, [1, 4])}, q[:40], gt[:40])
        assert len(curve) == 2
        assert curve["recall"].iloc[1] >= curve["recall"].iloc[0]

    def test_curve_pads_ragged_rows(self, data, gt):
        """Rows shorter than k count as misses; a row of the first 5 true
        neighbours scores 0.5 at k = 10."""
        _, q = data
        curve = run_pipeline_sweep(
            {"truth": (lambda qs, k, p: [g[:p] for g in gt[: len(qs)]], [5, 10])}, q, gt)
        assert curve["recall"].tolist() == [0.5, 1.0]

    def test_sweep_interleaves_timed_rounds(self, data, gt):
        """Warm-ups first, then TIMED_REPEATS rounds that each time one
        full-block call per (method, param), in the same order."""
        _, q = data
        calls = []

        def method(name):
            def fn(qs, k, p):
                calls.append((name, p, len(qs)))
                return gt[: len(qs)]
            return fn

        out = run_pipeline_sweep({"a": (method("a"), [1, 2]), "b": (method("b"), [3])}, q, gt)
        cells = [("a", 1), ("a", 2), ("b", 3)]
        assert [(n, p) for n, p, _ in calls] == cells * (1 + TIMED_REPEATS)
        assert all(m < len(q) for *_, m in calls[:3]) and all(m == len(q) for *_, m in calls[3:])
        assert out[["method", "param"]].values.tolist() == [list(c) for c in cells]
        assert list(out.columns) == ["method", "param", "recall", "ms_per_query"]
        assert (out["recall"] == 1.0).all()

    def test_time_at_recall_interp(self):
        c = pd.DataFrame({"param": [1, 2], "recall": [0.5, 1.0], "ms_per_query": [1.0, 3.0]})
        assert time_at_recall(c, 0.75) == pytest.approx(2.0)
        assert time_at_recall(c, 0.5) == 1.0
        assert time_at_recall(c, 1.1) is None

    def test_speedup_at_recall(self):
        fast = pd.DataFrame({"param": [1], "recall": [0.9], "ms_per_query": [1.0]})
        slow = pd.DataFrame({"param": [1], "recall": [0.9], "ms_per_query": [1.4]})
        assert speedup_at_recall(fast, slow, 0.9) == pytest.approx(0.4)


def left_to_right(terms):
    """``terms[0] + terms[1] + ...``, added in that order."""
    return reduce(np.add, terms)


def oracle_search(pq, query, k, subset, rerank):
    """One query as the per-query loop searched it: a lookup table per
    subspace, its coordinates' squared differences added left to right, the
    ADC distances of the rows ``subset`` (every row when None), an
    argpartition shortlist of the max(rerank, k) nearest, then exact top-k
    inside it by ``np.linalg.norm``, argpartition and a stable argsort."""
    ids = np.arange(len(pq.codes)) if subset is None else np.asarray(subset)
    if len(ids) == 0:
        return np.empty(0, dtype=np.int64)
    approx = np.zeros(len(ids))
    for s, (lo, hi) in enumerate(pq._bounds):
        table = left_to_right(((pq.codebooks[s] - query[lo:hi]) ** 2).T)
        approx += table[pq.codes[ids, s]]
    r = min(max(rerank, k), len(ids))
    short = ids[np.argpartition(approx, r - 1)[:r]] if r < len(ids) else ids
    d = np.linalg.norm(pq._x[short] - query, axis=1)
    kk = min(k, len(short))
    top = np.argpartition(d, kk - 1)[:kk] if kk < len(short) else np.arange(len(short))
    return short[top[np.argsort(d[top], kind="stable")]]


def oracle_batch(pipe, queries, k, *, n_probes=1, rerank=100):
    """``ScannPipeline.batch_search`` as a loop of ``oracle_search``."""
    subsets = ([None] * len(queries) if pipe.partitioner is None
               else pipe.partitioner.candidate_ids(queries, n_probes))
    out = np.full((len(queries), k), -1, dtype=np.int64)
    for i, (q, c) in enumerate(zip(queries, subsets)):
        res = oracle_search(pipe.pq, q, k, c, rerank)
        out[i, : len(res)] = res
    return out


class FixedCandidates:
    """A partitioner that hands query i the i-th of the given candidate sets."""

    def __init__(self, sets):
        self.sets = sets

    def bin_members(self):
        return []

    def candidate_ids(self, queries, n_probes):
        return self.sets[: len(queries)]


class TestBlockSearch:
    """``batch_search`` runs one ADC scan and one re-rank per block; its
    answers must equal the per-query loop's exactly."""

    @pytest.fixture(scope="class")
    def pq(self, data):
        return AnisotropicPQ(4, 32, seed=0).fit(data[0])

    @pytest.fixture()
    def pieces(self, pq, monkeypatch):
        """Records (queries, longest candidate list) for every
        ``adc_distances`` call on ``pq``."""
        calls = []
        adc = pq.adc_distances

        def recorded(queries, subset=None, owner=None):
            sizes = [len(subset)] if owner is None else np.bincount(owner)
            calls.append((len(np.atleast_2d(queries)), max(sizes, default=0)))
            return adc(queries, subset, owner)

        monkeypatch.setattr(pq, "adc_distances", recorded)
        return calls

    @pytest.mark.parametrize("partitioned", [True, False], ids=["kmeans", "vanilla"])
    def test_pipelines_match_oracle(self, data, pq, partitioned):
        d, q = data
        part = KMeansPartitioner(8, seed=0).fit(d) if partitioned else None
        pipe = ScannPipeline(pq, part)
        for n_probes, rerank in ((1, 40), (3, 150), (8, 5)):
            np.testing.assert_array_equal(
                pipe.batch_search(q, 10, n_probes=n_probes, rerank=rerank),
                oracle_batch(pipe, q, 10, n_probes=n_probes, rerank=rerank))

    def test_ragged_candidate_sets(self, data, pq):
        """Empty C, |C| below k and below rerank, and rerank >= n, in one block."""
        d, q = data
        rng = np.random.default_rng(3)
        sets = [np.empty(0, dtype=np.int64), rng.choice(len(d), 4, replace=False),
                rng.choice(len(d), 60, replace=False), np.arange(len(d)),
                np.empty(0, dtype=np.int64), rng.choice(len(d), 900, replace=False)]
        pipe = ScannPipeline(pq, FixedCandidates(sets))
        qq = q[: len(sets)]
        for rerank in (100, len(d), 3 * len(d)):
            got = pipe.batch_search(qq, 10, rerank=rerank)
            np.testing.assert_array_equal(got, oracle_batch(pipe, qq, 10, rerank=rerank))
        assert (got[0] == -1).all() and (got[1, 4:] == -1).all() and (got[1, :4] >= 0).all()

    @pytest.mark.parametrize("budget", [300, 1000, 5000])
    def test_block_cut_at_row_budget(self, data, pq, pieces, monkeypatch, budget):
        """A block crossing the budget is cut into pieces of at most
        ``ROW_BUDGET`` padded rows; a query holding more rows than the budget
        runs alone. Both give the per-query answers."""
        d, q = data
        monkeypatch.setattr(avq, "ROW_BUDGET", budget)
        km = KMeansPartitioner(8, seed=0).fit(d)
        for pipe, probes in ((ScannPipeline(pq, km), 2), (ScannPipeline(pq, km), 8),
                             (ScannPipeline(pq), 1)):
            pieces.clear()
            got = pipe.batch_search(q, 10, n_probes=probes, rerank=120)
            np.testing.assert_array_equal(got, oracle_batch(pipe, q, 10, n_probes=probes,
                                                            rerank=120))
            assert sum(n for n, _ in pieces) == len(q) and len(pieces) > 1
            assert all(n * widest <= budget or n == 1 for n, widest in pieces)
        if budget < len(d):  # vanilla: every query holds all rows and runs alone
            assert pieces == [(1, len(d))] * len(q)

    def test_default_budget_cuts_vanilla_block(self, data, pq, pieces):
        d, q = data
        pipe = ScannPipeline(pq)
        np.testing.assert_array_equal(pipe.batch_search(q, 10, rerank=50),
                                      oracle_batch(pipe, q, 10, rerank=50))
        per = avq.ROW_BUDGET // len(d)
        assert [n for n, _ in pieces] == [per] * (len(q) // per) + [len(q) % per] * (len(q) % per > 0)

    def test_block_adc_is_per_query_adc(self, data, pq):
        d, q = data
        rng = np.random.default_rng(5)
        sets = [rng.choice(len(d), n, replace=False) for n in (50, 0, 700, 3)]
        ids = np.concatenate(sets)
        owner = np.repeat(np.arange(len(sets)), [len(c) for c in sets])
        block = pq.adc_distances(q[: len(sets)], ids, owner)
        np.testing.assert_array_equal(
            block, np.concatenate([pq.adc_distances(qq, c) for qq, c in zip(q, sets)]))


class TestLookupTables:
    """The block's lookup tables, built in one broadcast per subspace width,
    add each subspace's coordinates left to right, bit for bit: at every
    width below 8, where numpy's ``.sum`` adds left to right too, from 8 on,
    where it adds in eight lanes, and past 128, where it sums halves apart.

    Layouts: "equal" has four subspaces of one width, "interleaved" widths
    w, w + 1, w, w + 1 and "one-wider" w, w, w, w + 1. Each runs a 5-query
    block against 16 centres and, suffixed "1x1", one query against one
    centre. One-wider's last width holds one subspace, and its (w + 1, 1, b,
    n_centers) block is where ``.sum(axis=0)`` stops adding left to right.
    The reference is a left-to-right ``np.add`` fold."""

    @pytest.mark.parametrize("width", list(range(1, 21)) + [130, 300])
    @pytest.mark.parametrize("extra,n_centers,n_q", [
        (0, 16, 5), (2, 16, 5), (1, 16, 5), (0, 1, 1), (2, 1, 1), (1, 1, 1),
    ], ids=["equal", "interleaved", "one-wider", "equal-1x1", "interleaved-1x1",
            "one-wider-1x1"])
    def test_tables_equal_numpy_sum(self, width, extra, n_centers, n_q):
        d = 4 * width + extra
        rng = np.random.default_rng(width)
        scale = np.exp(rng.normal(0.0, 2.0, size=d))   # coordinates of unequal size
        x, q = rng.normal(size=(60, d)) * scale, rng.normal(size=(n_q, d)) * scale
        pq = AnisotropicPQ(4, n_centers, n_iter=1, seed=width).fit(x)
        assert len({hi - lo for lo, hi in pq._bounds}) == 1 + (extra > 0)
        want = np.stack([left_to_right(np.moveaxis((cb - q[:, None, lo:hi]) ** 2, -1, 0))
                         for cb, (lo, hi) in zip(pq.codebooks, pq._bounds)])
        np.testing.assert_array_equal(pq._tables(q), want)
        adc = np.zeros(len(x))
        for s, table in enumerate(want[:, -1]):
            adc += table[pq.codes[:, s]]
        np.testing.assert_array_equal(pq.adc_distances(q[-1]), adc)

    def test_hierarchy_pipeline_matches_oracle(self):
        """perfbench's hier64 shape at test scale: d = 32 (subspaces 8 wide),
        an 8×8 hierarchy, AnisotropicPQ(4, 64), 16-query blocks, 4 probes,
        re-rank 160, whose ADC values tie heavily inside a leaf. Tables
        summed in numpy's pairwise order gave these answers too, so the test
        above is what pins the left-to-right order."""
        x, q = sift_lite(n=3000, d=32, n_queries=64, n_components=60, seed=8)
        h = HierarchicalPartitioner(
            [8, 8], cfg_factory=lambda level, m: TrainConfig(m=m, epochs=2), seed=0).fit(x)
        pipe = ScannPipeline(AnisotropicPQ(4, 64, seed=0), h).fit(x)
        for lo in range(0, len(q), 16):
            block = q[lo:lo + 16]
            np.testing.assert_array_equal(
                pipe.batch_search(block, 10, n_probes=4, rerank=160),
                oracle_batch(pipe, block, 10, n_probes=4, rerank=160))


class TestTopkWithinBlock:
    def test_block_rows_equal_one_query_form(self, data, topk_oracle):
        """Row by row, the block form equals the one-query form on the row's
        candidates and the stable-sort oracle; padded rows, an all-padding
        row and rows shorter than k included."""
        d, q = data
        rng = np.random.default_rng(6)
        lengths = [0, 3, 10, 57, 200, 200, 1]
        cand = np.full((len(lengths), max(lengths)), -1, dtype=np.int64)
        for i, n in enumerate(lengths):
            cand[i, :n] = rng.choice(len(d), n, replace=False)
        qq = q[: len(lengths)]
        block = topk_within(qq, d, cand, 10)
        assert block.shape == (len(lengths), 10) and block.dtype == np.int64
        for i, n in enumerate(lengths):
            one = topk_within(qq[i], d, cand[i, :n], 10)
            np.testing.assert_array_equal(one, topk_oracle(qq[i], d, cand[i], 10))
            np.testing.assert_array_equal(block[i, : len(one)], one)
            assert len(one) == min(n, 10) and (block[i, len(one):] == -1).all()
            np.testing.assert_array_equal(topk_within(qq[i], d, cand[i], 10), one)

    def test_no_candidate_columns(self, data):
        d, q = data
        got = topk_within(q[:3], d, np.empty((3, 0), dtype=np.int64), 5)
        assert got.shape == (3, 5) and (got == -1).all()

    def test_exact_ties_fall_by_candidate_position(self, copies, topk_oracle):
        """60 points × 100 copies, (16, 900) random candidates, the last rows
        padded: each row equals the stable-sort oracle."""
        d, q = copies
        rng = np.random.default_rng(4)
        cand = np.stack([rng.choice(len(d), 900, replace=False) for _ in range(16)])
        cand[12:, 700:] = -1
        block = topk_within(q[:16], d, cand, 10)
        for i in range(16):
            np.testing.assert_array_equal(block[i], topk_oracle(q[i], d, cand[i], 10))


class TestQueryValidation:
    @pytest.fixture(scope="class")
    def pipe(self, data):
        d, _ = data
        return ScannPipeline(AnisotropicPQ(4, 16, seed=0), KMeansPartitioner(4, seed=0).fit(d)).fit(d)

    def test_checked_without_partitioner(self, pipe, data):
        """With no partitioner, ``AnisotropicPQ.search`` checks the queries."""
        _, q = data
        alone = ScannPipeline(pipe.pq)
        with pytest.raises(ValueError, match="dimension"):
            alone.batch_search(q[:4, :-1], 10)
        qq = q[:4].copy()
        qq[1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            alone.batch_search(qq, 10)

    def test_dimension_mismatch_rejected(self, pipe, data):
        _, q = data
        with pytest.raises(ValueError, match="dimension"):
            pipe.batch_search(q[:4, :-1], 10)
        with pytest.raises(ValueError, match="dimension"):
            pipe.pq.search(np.c_[q[:4], np.zeros(4)], 10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, pipe, data, bad):
        _, q = data
        qq = q[:4].copy()
        qq[2, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            pipe.batch_search(qq, 10)
        with pytest.raises(ValueError, match="finite"):
            pipe.pq.search(qq, 10)
