"""Ensembling tests (Algorithms 3–4): weight updates, confidence routing,
and the boost in candidate-set quality.

``grouped_route`` is the routing the ensemble used to run: one
``leaf_probs`` per member, queries grouped by selected member, one probe
order per group. The one-selection routing over the forest's scores must
give exactly its member choice, probe matrix, candidates and the per-point
probe ranks those candidates define (``candidate_ranks``)."""
import copy

import numpy as np
import pytest

from repro.core.ensemble import (
    EnsemblePartitioner,
    separation_counts,
    train_ensemble,
    update_weights,
)
from repro.core.hierarchy import HierarchicalPartitioner
from repro.core.train import TrainConfig
from repro.index.base import bin_ranks, gather, probe_order
from repro.index.search import sweep_accuracy
from repro.nn.model import MLP
from tests.conftest import candidate_ranks


def grouped_route(ens, q):
    """(choice, [(member, its row ids, their probe orders)])."""
    probs = [m.leaf_probs(q) for m in ens.models]
    choice = np.stack([p.max(axis=1) for p in probs]).argmax(axis=0)
    routed = []
    for c in np.unique(choice):
        rows = np.flatnonzero(choice == c)
        routed.append((c, rows, probe_order(probs[c][rows])))
    return choice, routed


def grouped_probe_matrix(ens, q):
    choice, routed = grouped_route(ens, q)
    out = np.empty((len(choice), ens.n_bins), dtype=np.int64)
    for _, rows, order in routed:
        out[rows] = order
    return out


def grouped_candidate_ids(ens, q, n_probes):
    choice, routed = grouped_route(ens, q)
    out = [None] * len(choice)
    for c, rows, order in routed:
        for i, cand in zip(rows, gather(ens.models[c].bin_members(), order[:, :n_probes])):
            out[i] = cand
    return out


def grouped_probe_ranks(ens, q):
    choice, routed = grouped_route(ens, q)
    out = np.empty((len(choice), len(ens.data_bins())), dtype=np.int64)
    for c, rows, order in routed:
        out[rows] = bin_ranks(order)[:, ens.models[c].data_bins()]
    return out


def assert_routes_like_oracle(ens, q):
    assert np.array_equal(ens.model_choice(q), grouped_route(ens, q)[0])
    if len({m.n_bins for m in ens.models}) == 1:
        assert np.array_equal(ens.probe_matrix(q), grouped_probe_matrix(ens, q))
    for p in (1, 2, ens.n_bins):
        got, want = ens.candidate_ids(q, p), grouped_candidate_ids(ens, q, p)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    assert np.array_equal(candidate_ranks(ens, q), grouped_probe_ranks(ens, q))


class TestWeightUpdate:
    def test_separation_counts_manual(self):
        bins = np.array([0, 0, 1, 1])
        knn = np.array([[1, 2], [0, 3], [3, 0], [2, 1]])
        # p0: nbrs 1(same),2(diff) → 1; p1: 0(same),3(diff) → 1;
        # p2: 3(same),0(diff) → 1; p3: 2(same),1(diff) → 1
        np.testing.assert_array_equal(separation_counts(bins, knn), [1, 1, 1, 1])

    def test_perfect_partition_gives_zero(self):
        bins = np.array([0, 0, 1, 1])
        knn = np.array([[1], [0], [3], [2]])
        np.testing.assert_array_equal(separation_counts(bins, knn), [0, 0, 0, 0])

    def test_update_multiplicative(self):
        bins = np.array([0, 1, 0, 1])
        knn = np.array([[1], [0], [3], [2]])  # every neighbor separated
        w = np.array([1.0, 2.0, 3.0, 4.0])
        out = update_weights(w, bins, knn)
        # counts all 1 → w unchanged up to mean-1 normalization
        np.testing.assert_allclose(out, w / w.mean())

    def test_all_zero_resets_uniform(self):
        bins = np.array([0, 0])
        knn = np.array([[1], [0]])
        out = update_weights(np.array([1.0, 1.0]), bins, knn)
        np.testing.assert_array_equal(out, [1.0, 1.0])

    def test_mean_one(self):
        rng = np.random.default_rng(0)
        bins = rng.integers(0, 4, 50)
        knn = rng.integers(0, 50, (50, 5))
        out = update_weights(np.ones(50), bins, knn)
        assert out.mean() == pytest.approx(1.0)


class TestEnsemble:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            EnsemblePartitioner([])

    def test_model_choice_shape(self, trained_ensemble, small_data):
        _, queries = small_data
        choice = trained_ensemble.model_choice(queries[:30])
        assert choice.shape == (30,)
        assert set(np.unique(choice)) <= set(range(len(trained_ensemble.models)))

    def test_models_differ(self, trained_ensemble, small_data):
        """Boosted second model must learn a different partition."""
        data, _ = small_data
        b0 = trained_ensemble.models[0].data_bins()
        b1 = trained_ensemble.models[1].data_bins()
        assert (b0 != b1).mean() > 0.05

    def test_candidate_ids_match_selected_model(self, trained_ensemble, small_data):
        data, queries = small_data
        q = queries[:10]
        choice = trained_ensemble.model_choice(q)
        cands = trained_ensemble.candidate_ids(q, 1)
        for i, c in enumerate(choice):
            model = trained_ensemble.models[c]
            top_bin = model.probe_matrix(q[i][None])[0][0]
            expect = np.nonzero(model.data_bins() == top_bin)[0]
            np.testing.assert_array_equal(np.sort(cands[i]), np.sort(expect))

    def test_ensemble_not_worse_than_first_model(
        self, trained_ensemble, small_data, small_gt
    ):
        """Confidence routing should match or beat the single base model at
        equal probe count (the §4.4.1 claim, small tolerance for noise)."""
        data, queries = small_data
        single = sweep_accuracy(
            trained_ensemble.models[0], data, queries, small_gt, probe_counts=[1]
        )["accuracy"].iloc[0]
        ens = sweep_accuracy(trained_ensemble, data, queries, small_gt, probe_counts=[1])[
            "accuracy"
        ].iloc[0]
        assert ens >= single - 0.02

    def test_probe_matrix_rows_are_permutations(self, trained_ensemble, small_data):
        _, queries = small_data
        pm = trained_ensemble.probe_matrix(queries[:5])
        for row in pm:
            assert sorted(row) == list(range(trained_ensemble.n_bins))


class TestUnequalLeafCounts:
    """Hierarchy members that ``min_split`` prunes to different leaf counts."""

    @pytest.fixture
    def ens(self, unequal_ensemble):
        return unequal_ensemble

    def test_n_bins_is_largest_leaf_count(self, ens):
        counts = [m.n_bins for m in ens.models]
        assert counts[0] != counts[1]
        assert ens.n_bins == max(counts)

    def test_probe_matrix_names_leaf_counts(self, ens, small_data):
        a, b = (m.n_bins for m in ens.models)
        with pytest.raises(ValueError, match=rf"\[{a}, {b}\]"):
            ens.probe_matrix(small_data[1][:3])

    def test_candidates_and_ranks_follow_selected_member(self, ens, small_data):
        data, queries = small_data
        q = queries[:20]
        choice = ens.model_choice(q)
        orders = [m.probe_matrix(q) for m in ens.models]
        ranks = candidate_ranks(ens, q)
        for p in (1, 2, ens.n_bins):
            for i, (c, cand) in enumerate(zip(choice, ens.candidate_ids(q, p))):
                member = ens.models[c]
                expect = np.flatnonzero(np.isin(member.data_bins(), orders[c][i][:p]))
                np.testing.assert_array_equal(np.sort(cand), expect)
                np.testing.assert_array_equal(np.flatnonzero(ranks[i] < p), expect)
            if p == ens.n_bins:
                assert all(len(c) == len(data) for c in ens.candidate_ids(q, p))


class TestRoutingOracle:
    """One forest scoring and one probe order per request, against the
    per-member grouped routing, on blocks of 1, 16 and all queries."""

    @pytest.fixture(params=["ensemble", "ensemble-of-hierarchies", "unequal", "flat-unequal",
                            "mixed"])
    def ens(self, request, ensembles):
        return ensembles[request.param]

    def test_equal_to_grouped_route(self, ens, small_data):
        _, queries = small_data
        assert set(ens.model_choice(queries)) == set(range(len(ens.models)))
        for q in (queries[:1], queries[:16], queries):
            assert_routes_like_oracle(ens, q)

    def test_flat_members_scored_by_one_stack(self, ensembles, small_data, monkeypatch):
        """A request makes one stacked router call per depth and fan-out:
        flat members of one bin count share one call at depth 0, and the
        routers of both hierarchies share one per depth. Each call is
        recorded by the number of routers it stacks."""
        calls = []
        forward = MLP.stacked_proba
        monkeypatch.setattr(MLP, "stacked_proba",
                            lambda self, x: calls.append(len(self.W[0])) or forward(self, x))
        for name, want in (("ensemble", [3]), ("flat-unequal", [1, 1]), ("mixed", [1, 1, 4]),
                           ("ensemble-of-hierarchies", [2, 8])):
            calls.clear()
            ensembles[name].candidate_ids(small_data[1][:1], 2)
            assert calls == want, name

    def test_refit_member_reroutes(self, small_indexes, small_data, small_knn):
        """A refit replaces a member's model; the stack is rebuilt from it."""
        data, queries = small_data
        ens = copy.deepcopy(small_indexes["ensemble"])
        before = ens._probs(queries)
        member = ens.models[1]
        member.seed = member.cfg.seed = 12345
        member.fit(data, knn_idx=small_knn)
        after = ens._probs(queries)
        assert np.array_equal(after[1], member.leaf_probs(queries))
        assert not np.array_equal(after[1], before[1])
        assert np.array_equal(after[[0, 2]], before[[0, 2]])
        assert not np.array_equal(ens.model_choice(queries), grouped_route(
            small_indexes["ensemble"], queries)[0])
        assert_routes_like_oracle(ens, queries)


class TestQueryValidation:
    """A wrong query dimension and NaN/inf fail on the flat USP index, the
    flat ensemble's stacked path, K-means, CP-LSH and flat Neural LSH."""

    @pytest.fixture(params=["usp", "ensemble", "kmeans", "cp-lsh", "neural-lsh"])
    def index(self, request, small_indexes):
        return small_indexes[request.param]

    @staticmethod
    def assert_rejected(index, q, match):
        for call in (index.probe_scores, index.probe_matrix,
                     lambda q: candidate_ranks(index, q), lambda q: index.candidate_ids(q, 2)):
            with pytest.raises(ValueError, match=match):
                call(q)

    def test_rejects_query_dimension(self, index, small_data):
        q = small_data[1][:16]
        self.assert_rejected(index, q[:, :-1], "routes dimension 12")
        self.assert_rejected(index, np.hstack([q, q[:, :1]]), "routes dimension 12")
        self.assert_rejected(index, q[0], "routes dimension 12")

    def test_rejects_non_finite_queries(self, index, small_data):
        for bad in (np.nan, np.inf, -np.inf):
            q = small_data[1][:16].copy()
            q[3, 2] = bad
            self.assert_rejected(index, q, "NaN or infinite")


class TestTrainEnsemble:
    def test_e_models(self, small_data, small_knn):
        data, _ = small_data
        ens = train_ensemble(data, m=4, e=2, knn_idx=small_knn)
        assert len(ens.models) == 2

    def test_given_cfg_reaches_every_member(self, small_data, small_knn):
        """Each member trains with the caller's hyper-parameters, its own m
        and seed; the caller's TrainConfig keeps its m, seed and history."""
        data, _ = small_data
        cfg = TrainConfig(m=8, eta=3.5, epochs=1, seed=5)
        ens = train_ensemble(data, m=4, e=2, cfg=cfg, knn_idx=small_knn, seed=7)
        for j, member in enumerate(ens.models):
            assert member.cfg.eta == 3.5
            assert (member.cfg.m, member.cfg.epochs, member.cfg.seed) == (4, 1, 7 + 1000 * j)
            assert len(member.cfg.history) == 1
        assert (cfg.m, cfg.seed, cfg.history) == (8, 5, [])

    def test_hierarchy_members_train_on_boosted_weights(self, small_indexes, small_data,
                                                        small_knn):
        """Algorithm 3 over hierarchies: member 0 is the unweighted hierarchy
        of seed 1, and member 1 the hierarchy of seed 1001 fitted on the
        weights that member 0's leaf bins update, not an independent one."""
        data, queries = small_data
        first, second = small_indexes["ensemble-of-hierarchies"].models

        def fit(seed, weights):
            return HierarchicalPartitioner(
                [4, 4], cfg_factory=lambda level, m: TrainConfig(m=m, eta=5.0, epochs=5),
                seed=seed).fit(data, knn_idx=small_knn, weights=weights)

        w = update_weights(np.ones(len(data)), first.data_bins(), small_knn)
        for member, refit in ((first, fit(1, None)), (second, fit(1001, w))):
            assert np.array_equal(member.data_bins(), refit.data_bins())
            assert np.array_equal(member.leaf_probs(queries), refit.leaf_probs(queries))
        assert not np.array_equal(second.data_bins(), fit(1001, None).data_bins())

    def test_spark_knn_path(self, spark):
        """Training on the Spark k'-NN matrix gives the members the numpy
        build gives them: the two matrices are equal."""
        from repro.spark import knn_matrix_spark_collect
        from repro.synth_data import sift_lite

        data, _ = sift_lite(n=300, d=8, n_queries=10, seed=9)
        ens = train_ensemble(data, m=4, e=1, knn_idx=knn_matrix_spark_collect(spark, data, 10))
        assert len(ens.models) == 1
        np.testing.assert_array_equal(
            ens.models[0].data_bins(), train_ensemble(data, m=4, e=1).models[0].data_bins())

    def test_fewer_points_than_bins_rejected(self):
        data = np.random.default_rng(0).normal(size=(12, 4))
        with pytest.raises(ValueError, match=r"m=16 bins outside \[1, n=12\]"):
            train_ensemble(data, m=16, e=2)
