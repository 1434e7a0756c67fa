"""Ensembling (§4.4.1, Algorithms 3–4).

Models are trained sequentially; after model j, each point's weight is
multiplied by the number of its k' neighbors that model j separated from it
(Eq. 14's weight update), so later models specialize on "difficult" points.
At query time every model scores the query; the candidate set of the model
with the highest confidence (max bin probability) is used (Algorithm 4).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from repro.core.partitioner import UnsupervisedSpacePartitioner
from repro.core.train import TrainConfig
from repro.index.base import PartitionIndex, bin_ranks, gather, probe_order
from repro.knn.exact import knn_matrix_numpy, knn_matrix_spark_collect


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

    Members are USP models or hierarchies (anything with ``predict_proba``).
    They may have different bin counts (hierarchies pruned to different leaf
    counts); ``n_bins`` is the largest, so probing that many bins searches
    every point whichever member a query is routed to.
    """

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

    def _route(self, queries: np.ndarray) -> tuple[np.ndarray, list[tuple]]:
        """Algorithm 4 with one ``predict_proba`` per member. Returns the
        selected member per query and, for each member that serves some
        queries, ``(member, their row ids, their probe orders)``."""
        probs = [m.predict_proba(queries) for m in self.models]
        choice = np.stack([p.max(axis=1) for p in probs]).argmax(axis=0)
        routed = []
        for c in np.unique(choice):
            rows = np.flatnonzero(choice == c)
            routed.append((c, rows, probe_order(probs[c][rows])))
        return choice, routed

    def model_choice(self, queries: np.ndarray) -> np.ndarray:
        return self._route(queries)[0]

    def probe_matrix(self, queries: np.ndarray) -> np.ndarray:
        """Probe order of the *selected* (most confident) model per query."""
        counts = [m.n_bins for m in self.models]
        if len(set(counts)) > 1:
            raise ValueError(
                f"ensemble members have unequal bin counts {counts}: there is no "
                "common probe matrix; use candidate_ids or probe_ranks"
            )
        choice, routed = self._route(queries)
        out = np.empty((len(choice), self.n_bins), dtype=np.int64)
        for _, rows, order in routed:
            out[rows] = order
        return out

    def candidate_ids(self, queries: np.ndarray, n_probes: int) -> list[np.ndarray]:
        choice, routed = self._route(queries)
        out: list[np.ndarray] = [None] * len(choice)
        for c, rows, order in routed:
            for i, cand in zip(rows, gather(self.models[c].bin_members(), order[:, :n_probes])):
                out[i] = cand
        return out

    def probe_ranks(self, queries: np.ndarray) -> np.ndarray:
        """Ranks in the selected member's probe order, over its own bins."""
        choice, routed = self._route(queries)
        out = np.empty((len(choice), len(self.data_bins())), dtype=np.int64)
        for c, rows, order in routed:
            out[rows] = bin_ranks(order)[:, self.models[c].data_bins()]
        return out


def train_ensemble(
    x: np.ndarray,
    *,
    m: int,
    e: int = 3,
    k_prime: int = 10,
    cfg: TrainConfig | None = None,
    arch: str = "mlp",
    hidden: int = 128,
    seed: int = 0,
    spark: SparkSession | None = None,
    knn_idx: np.ndarray | None = None,
) -> EnsemblePartitioner:
    """Algorithm 3: sequentially train ``e`` USP models with boosted weights."""
    x = np.asarray(x, dtype=np.float64)
    if knn_idx is None:
        if spark is not None:
            knn_idx = knn_matrix_spark_collect(spark, x, k_prime)
        else:
            knn_idx = knn_matrix_numpy(x, k_prime)
    weights = np.ones(len(x))
    models = []
    for j in range(e):
        base = cfg or TrainConfig(m=m)
        cfg_j = TrainConfig(
            m=m, eta=base.eta, epochs=base.epochs, batch_frac=base.batch_frac,
            min_batch=base.min_batch, lr=base.lr, seed=seed + 1000 * j,
        )
        p = UnsupervisedSpacePartitioner(
            m, arch=arch, hidden=hidden, k_prime=k_prime, cfg=cfg_j, seed=seed + 1000 * j
        )
        p.fit(x, knn_idx=knn_idx, weights=weights)
        models.append(p)
        if j + 1 < e:
            weights = update_weights(weights, p.data_bins(), knn_idx)
    return EnsemblePartitioner(models)
