"""The benchmark's workloads over the ``repro`` USP index.

Each workload has a build ("write") phase, ``setup``, that turns the raw
vectors into a servable index, and a serve ("read") phase made of fixed
requests, ``serve(r)``. ``sweep`` runs the accuracy-vs-|C| sweep (Fig. 5 /
Table 4) on the workload's partition index, and ``checks`` runs the
correctness gate outside any timing.

- ``ens16-online``: 3-model ensemble of 16 bins, one query per request,
  per-query routing plus exact top-k inside C.
- ``hier64-scann-batch``: 8x8 hierarchy feeding anisotropic PQ, 16 queries
  per request through ``ScannPipeline.batch_search``.

Inputs come only from ``sift_lite(seed=<workload seed>)``; ground truth is
the benchmark's own blocked brute-force search, independent of ``repro``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core.ensemble import train_ensemble
from repro.core.hierarchy import HierarchicalPartitioner
from repro.core.train import TrainConfig
from repro.index.search import sweep_accuracy, topk_within
from repro.scann.avq import AnisotropicPQ
from repro.scann.pipelines import ScannPipeline
from repro.synth_data import sift_lite

K = 10          # neighbours returned per query (recall@10)
K_PRIME = 10    # k' of the k'-NN matrix the USP loss trains on
D = 32


@dataclass(frozen=True)
class Scale:
    n: int
    n_components: int
    epochs: int
    setup_reps: int      # set-ups per run; setup_s is their median
    round_s: dict        # workload -> nominal seconds of one serve pass + sweep
    sweep_queries: int
    exact_queries: int   # sample for the probe-all-bins exactness check
    recall_floor: float  # the correctness gate on recall_at_10
    requests: dict       # workload -> (distinct requests, queries per request)


# round_s is a constant, measured once on a 4-core Xeon VM, so the number of
# rounds a run makes follows from --seconds alone and not from the speed of
# the code under test.
BENCH = Scale(
    n=6000, n_components=200, epochs=5, setup_reps=3,
    round_s={"ens16-online": 0.9, "hier64-scann-batch": 0.7}, sweep_queries=64,
    exact_queries=32, recall_floor=0.9,
    requests={"ens16-online": (1000, 1), "hier64-scann-batch": (250, 16)},
)
SMOKE = Scale(
    n=1500, n_components=20, epochs=1, setup_reps=1,
    round_s={"ens16-online": 0.1, "hier64-scann-batch": 0.1}, sweep_queries=16,
    exact_queries=8, recall_floor=0.5,
    requests={"ens16-online": (200, 1), "hier64-scann-batch": (20, 16)},
)


def exact_knn(queries: np.ndarray, data: np.ndarray, k: int, block: int = 256) -> np.ndarray:
    """Brute-force top-k ids, ``block`` queries at a time. A dot-product
    expansion shortlists 3k rows; their distances are then recomputed from
    direct differences, as ``exact_within`` does, and sorted."""
    out = np.empty((len(queries), k), dtype=np.int64)
    sq = (data ** 2).sum(axis=1)
    for lo in range(0, len(queries), block):
        q = queries[lo:lo + block]
        d2 = sq - 2.0 * q @ data.T
        short = np.argpartition(d2, 3 * k, axis=1)[:, :3 * k]
        for i, (qi, cand) in enumerate(zip(q, short)):
            out[lo + i] = exact_within(qi, data, cand, k)
    return out


def exact_within(query: np.ndarray, data: np.ndarray, cand: np.ndarray, k: int) -> np.ndarray:
    """Brute-force top-k ids among ``cand``, nearest first."""
    d = np.sqrt(((data[cand] - query) ** 2).sum(axis=1))
    return cand[np.argsort(d, kind="stable")[:k]]


class Workload:
    """Data, ground truth and the phases shared by every workload."""

    name = ""

    def __init__(self, scale: Scale, seed: int):
        self.scale = scale
        n_req, batch = scale.requests[self.name]
        self.x, q = sift_lite(n=scale.n, d=D, n_queries=n_req * batch,
                              n_components=scale.n_components, seed=seed)
        gt = exact_knn(q, self.x, K)
        self.queries = q.reshape(n_req, batch, D)
        self.gt = gt.reshape(n_req, batch, K)
        self.sweep_q, self.sweep_gt = q[:scale.sweep_queries], gt[:scale.sweep_queries]
        self.exact_q, self.exact_gt = q[:scale.exact_queries], gt[:scale.exact_queries]
        self.partition = None      # the PartitionIndex the sweep and checks use

    # -- phases ----------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def serve(self, r: int) -> np.ndarray:
        """Run request ``r``; returns (queries, <=K) neighbour ids."""
        raise NotImplementedError

    def sweep(self) -> pd.DataFrame:
        return sweep_accuracy(self.partition, self.x, self.sweep_q, self.sweep_gt, k=K,
                              probe_counts=list(range(1, min(16, self.partition.n_bins) + 1)))

    # -- untimed evaluation ----------------------------------------------
    def candidates(self, r: int) -> list[np.ndarray]:
        """Rows request ``r`` examines per query (C, or the ADC-scanned rows)."""
        raise NotImplementedError

    def expected(self, r: int, got: np.ndarray, cands: list[np.ndarray]) -> bool:
        """Whether ``got`` (rows padded with -1) is the right answer for
        request ``r`` given its candidate sets: the exact top-K within C."""
        for q, c, ids in zip(self.queries[r], cands, got):
            if not np.array_equal(ids[ids >= 0], exact_within(q, self.x, c, K)):
                return False
        return True

    def checks(self) -> dict[str, bool]:
        idx = self.partition
        cands = idx.candidate_ids(self.exact_q, idx.n_bins)
        return {"probe_all_bins_exact": all(
            set(exact_within(q, self.x, c, K)) == set(g)
            for q, c, g in zip(self.exact_q, cands, self.exact_gt))}

    def health(self) -> dict:
        """``bins``: one bin-size summary per partition; ``models``: final
        (U, S) per trained model; ``member_share``: queries served per
        ensemble member."""
        raise NotImplementedError


def _bin_health(sizes: np.ndarray) -> dict:
    return {
        "bin_sizes": sizes.tolist(),
        "empty_bins": int((sizes == 0).sum()),
        "max_ideal_load": float(sizes.max() / (sizes.sum() / len(sizes))),
    }


def _final_us(history: list) -> dict:
    u, s = history[-1] if history else (float("nan"), float("nan"))
    return {"final_u": float(u), "final_s": float(s)}


class Ens16Online(Workload):
    name = "ens16-online"
    N_PROBES = 2

    def setup(self) -> None:
        self.index = train_ensemble(self.x, m=16, e=3, k_prime=K_PRIME,
                                    cfg=TrainConfig(m=16, epochs=self.scale.epochs), seed=0)
        self.partition = self.index

    def serve(self, r: int) -> np.ndarray:
        q = self.queries[r]
        c = self.index.candidate_ids(q, self.N_PROBES)[0]
        return topk_within(q[0], self.x, c, K)[None]

    def candidates(self, r: int) -> list[np.ndarray]:
        return self.index.candidate_ids(self.queries[r], self.N_PROBES)

    def health(self) -> dict:
        choice = self.index.model_choice(self.queries.reshape(-1, D))
        share = np.bincount(choice, minlength=len(self.index.models)) / len(choice)
        return {"bins": [_bin_health(m.bin_sizes()) for m in self.index.models],
                "models": [_final_us(m.cfg.history) for m in self.index.models],
                "member_share": share.tolist()}


class Hier64ScannBatch(Workload):
    name = "hier64-scann-batch"
    N_PROBES = 4
    RERANK = 160

    def setup(self) -> None:
        self.cfgs = []

        def cfg_factory(level: int, m: int) -> TrainConfig:
            self.cfgs.append(TrainConfig(m=m, epochs=self.scale.epochs))
            return self.cfgs[-1]

        h = HierarchicalPartitioner([8, 8], k_prime=K_PRIME, cfg_factory=cfg_factory, seed=0)
        h.fit(self.x)
        self.pipe = ScannPipeline(AnisotropicPQ(4, 64, seed=0), h).fit(self.x)
        self.partition = h

    def serve(self, r: int) -> np.ndarray:
        return self.pipe.batch_search(self.queries[r], K, n_probes=self.N_PROBES,
                                      rerank=self.RERANK)

    def candidates(self, r: int) -> list[np.ndarray]:
        return self.partition.candidate_ids(self.queries[r], self.N_PROBES)

    def expected(self, r: int, got: np.ndarray, cands: list[np.ndarray]) -> bool:
        """ADC plus re-rank is approximate, so the answer must be the exact
        top-K of the shortlist: the min(max(RERANK, K), |C|) rows of C
        nearest by ADC distance. ADC distances are recomputed here as the
        squared distance to each row's decoded vector; rows within rounding
        of the shortlist's cut-off may fall on either side of it."""
        decoded = self.pipe.pq.reconstruction()
        for q, c, ids in zip(self.queries[r], cands, got):
            ids = ids[ids >= 0]
            adc = ((decoded[c] - q) ** 2).sum(axis=1)
            n_short = min(max(self.RERANK, K), len(c))
            cut = np.partition(adc, n_short - 1)[n_short - 1]
            tol = 1e-9 * max(cut, 1.0)
            d = np.sqrt(((self.x[ids] - q) ** 2).sum(axis=1))
            surely_ranked = c[(adc < cut - tol) & ~np.isin(c, ids)]
            if (len(ids) != min(K, len(c)) or len(set(ids.tolist())) != len(ids)
                    or not np.isin(ids, c[adc <= cut + tol]).all() or (np.diff(d) < 0).any()
                    or (np.sqrt(((self.x[surely_ranked] - q) ** 2).sum(axis=1)) < d[-1]).any()):
                return False
        return True

    def checks(self) -> dict[str, bool]:
        out = super().checks()
        got = self.pipe.batch_search(self.exact_q, K, n_probes=self.partition.n_bins,
                                     rerank=len(self.x))
        out["scann_probe_all_rerank_all_exact"] = all(
            set(a.tolist()) == set(g.tolist()) for a, g in zip(got, self.exact_gt))
        return out

    def health(self) -> dict:
        return {"bins": [_bin_health(self.partition.bin_sizes())],
                "models": [_final_us(c.history) for c in self.cfgs],
                "member_share": [1.0]}


WORKLOADS = {w.name: w for w in (Ens16Online, Hier64ScannBatch)}
