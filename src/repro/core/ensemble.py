"""Ensembling (§4.4.1, Algorithms 3–4).

Models are trained sequentially; after model j, each point's weight is
multiplied by the number of its k' neighbors that model j separated from it
(Eq. 14's weight update), so later models specialize on "difficult" points.
At query time every model scores the query; the candidate set of the model
with the highest confidence (max bin probability) is used (Algorithm 4).
Each member is a tree (a flat USP model is a one-depth tree), so the
ensemble is a forest: one :func:`~repro.index.tree.leaf_probs` call over
the members' roots scores every member one depth at a time, from a plan
cached until a refit replaces a member's root. Each query's probe scores
are then one selection out of the (members, n_q, n_bins) scores, whichever
member serves it.
"""
from __future__ import annotations

import numpy as np

from repro.core.partitioner import UnsupervisedSpacePartitioner
from repro.core.train import TrainConfig
from repro.index import tree
from repro.index.base import PartitionIndex, bin_ranks, check_data, check_knn, probe_order
from repro.knn.exact import knn_matrix_numpy


def separation_counts(data_bins: np.ndarray, knn_idx: np.ndarray) -> np.ndarray:
    """Per point: |{p ∈ N_k'(q_i) : R(p) ≠ R(q_i)}| — the Alg. 3 weight term."""
    return (data_bins[knn_idx] != data_bins[:, None]).sum(axis=1).astype(np.float64)


def update_weights(
    weights: np.ndarray, data_bins: np.ndarray, knn_idx: np.ndarray
) -> np.ndarray:
    """Multiplicative AdaBoost-style update, renormalized to mean 1.

    The paper's update is ``w_i ← count_i · w_i``; the loss argmin is
    invariant to the overall weight scale, so we renormalize for numerical
    stability and fall back to uniform if every point is perfectly placed.
    """
    w = weights * separation_counts(data_bins, knn_idx)
    if w.sum() <= 0:
        return np.ones_like(weights)
    return w * (len(w) / w.sum())


class EnsemblePartitioner(PartitionIndex):
    """An ensemble of complementary USP partitions with confidence routing.

    Members are tree indexes (USP models, hierarchies, anything with a
    ``root``) over points of one dimension. They may have different bin
    counts (hierarchies pruned to different leaf counts); ``n_bins`` is the
    largest, so probing that many bins searches every point whichever member
    a query is routed to.
    """

    _plan: tree.Plan | None = None  # of the members' roots, recompiled when one changes

    def __init__(self, models: list[PartitionIndex]):
        if not models:
            raise ValueError("empty ensemble")
        self.models = models
        for m in models:  # the lookup tables are built offline, not by the first query
            m.bin_members()

    # Read from the members on every call, so refitting them refits the ensemble.
    @property
    def n_bins(self) -> int:
        return max(m.n_bins for m in self.models)

    def data_bins(self) -> np.ndarray:
        """The first member's partition, as the representative one."""
        return self.models[0].data_bins()

    def bin_members(self) -> list[np.ndarray]:
        """The first member's lookup table, the one of :meth:`data_bins`."""
        return self.models[0].bin_members()

    def _probs(self, queries: np.ndarray) -> np.ndarray:
        """(members, n_q, n_bins): every member's bin probabilities. A member
        with fewer bins is padded with -1, which ranks after every real bin
        and is never the max."""
        roots = tuple(m.root for m in self.models)
        if self._plan is None or self._plan.roots != roots:  # nodes compare by identity
            self._plan = tree.compile_plan(roots)
        return tree.leaf_probs(self._plan, queries)

    def _route(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Algorithm 4 over one (members, n_q, n_bins) score array: the
        selected member per query, the one with the highest max-bin
        probability, and each query's row of that member's scores (its
        padded bins at -1)."""
        probs = self._probs(queries)
        choice = probs.max(axis=2).argmax(axis=0)
        return choice, probs[choice, np.arange(len(choice))]

    def model_choice(self, queries: np.ndarray) -> np.ndarray:
        return self._route(queries)[0]

    def probe_scores(self, queries: np.ndarray) -> np.ndarray:
        """Bin probabilities of the *selected* (most confident) model per query."""
        return self._route(queries)[1]

    def probe_matrix(self, queries: np.ndarray) -> np.ndarray:
        """The order of :meth:`probe_scores`; ValueError when the members'
        bin counts differ."""
        counts = [m.n_bins for m in self.models]
        if len(set(counts)) > 1:
            raise ValueError(
                f"ensemble members have unequal bin counts {counts}: there is no "
                "common probe matrix; use candidate_ids"
            )
        return super().probe_matrix(queries)

    def candidate_ids(self, queries: np.ndarray, n_probes: int) -> list[np.ndarray]:
        """The points of each query's top ``n_probes`` bins in its selected
        member's lookup, in probe order. The member's padded bins rank last,
        so a row cut at its own bin count drops exactly them."""
        choice, scores = self._route(queries)
        empty = np.empty(0, dtype=np.int64)
        out = []
        for c, row in zip(choice, probe_order(scores)):
            member = self.models[c]
            lookup = member.bin_members()
            out.append(np.concatenate([lookup[b] for b in row[:min(n_probes, member.n_bins)]]
                                      or [empty]))
        return out

    def probe_joins(self, queries: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bin sizes and truth-id ranks in the selected member's probe order,
        over its own bins; a padded bin holds no points."""
        choice, scores = self._route(queries)
        order = probe_order(scores)
        sizes = np.zeros((len(self.models), self.n_bins), dtype=np.int64)
        truth_bins = np.empty_like(truth)
        for c, m in enumerate(self.models):
            sizes[c, :m.n_bins] = m.bin_sizes()
            rows = choice == c
            truth_bins[rows] = m.data_bins()[truth[rows]]
        return (sizes[choice[:, None], order],
                np.take_along_axis(bin_ranks(order), truth_bins, axis=1))


def train_ensemble(
    x: np.ndarray,
    *,
    m: int,
    e: int = 3,
    k_prime: int = 10,
    cfg: TrainConfig | None = None,
    seed: int = 0,
    knn_idx: np.ndarray | None = None,
) -> EnsemblePartitioner:
    """Algorithm 3: sequentially train ``e`` USP models with boosted weights,
    on ``knn_idx`` when given (e.g. the Spark build's) and on
    ``knn_matrix_numpy(x, k_prime)`` otherwise. Member ``j`` trains with
    seed ``seed + 1000·j``. ValueError when ``e < 1``."""
    if e < 1:
        raise ValueError(f"e={e}: an ensemble needs at least one model")
    x = check_data(x)
    knn_idx = knn_matrix_numpy(x, k_prime) if knn_idx is None else check_knn(knn_idx, len(x))
    weights = np.ones(len(x))
    models = []
    for j in range(e):
        p = UnsupervisedSpacePartitioner(m, k_prime=k_prime, cfg=cfg, seed=seed + 1000 * j)
        p.fit(x, knn_idx=knn_idx, weights=weights)
        models.append(p)
        if j + 1 < e:
            weights = update_weights(weights, p.data_bins(), knn_idx)
    return EnsemblePartitioner(models)
