"""§5.4.3 pipelines: partition-then-ScaNN and the non-learning ANNS baselines.

``ScannPipeline`` composes a space partitioner (USP, K-means, or none) with
the anisotropic-PQ sketch: the partitioner produces a candidate set for
each query of a block, and ScaNN's ADC scan + exact re-rank search inside
them, once for the whole block (``AnisotropicPQ.search``, as ScaNN and FAISS
scan a query batch). ``run_pipeline_sweep`` turns named
``search(queries, k, param)`` functions into (param, recall, ms/query)
curves, timing them in interleaved rounds, and ``speedup_at_recall``
interpolates the relative query-time saving
at a fixed recall — the paper's "40% speedup over K-means+ScaNN" claim.
"""
from __future__ import annotations

import time
from typing import Callable

import numpy as np
import pandas as pd

from repro.index.base import PartitionIndex
from repro.index.search import cost_at_quality
from repro.knn.metrics import knn_accuracy
from repro.scann.avq import AnisotropicPQ

# Timed rounds in ``run_pipeline_sweep``, each one call per (method, param);
# the fastest call of each is reported.
TIMED_REPEATS = 3


class ScannPipeline:
    """partition → candidate set → ScaNN (ADC + exact re-rank)."""

    def __init__(self, pq: AnisotropicPQ, partitioner: PartitionIndex | None = None):
        self.pq = pq
        self.partitioner = partitioner

    def fit(self, x: np.ndarray) -> "ScannPipeline":
        self.pq.fit(x)
        if self.partitioner is not None:  # build the lookup table offline
            self.partitioner.bin_members()
        return self

    def batch_search(
        self, queries: np.ndarray, k: int, *, n_probes: int = 1, rerank: int = 100
    ) -> np.ndarray:
        """The online phase for a block of queries: one ``candidate_ids``
        call for the block (how a serving system amortizes model
        inference), then one ``AnisotropicPQ.search`` over the block's
        candidate sets, or over every row when there is no partitioner.
        Returns (n_q, k) ids padded with -1. ValueError when the queries'
        dimension differs from the data's or a value is not finite, from
        the partitioner's ``candidate_ids`` or from ``AnisotropicPQ.search``,
        which both check the queries."""
        subsets = (None if self.partitioner is None
                   else self.partitioner.candidate_ids(queries, n_probes))
        return self.pq.search(queries, k, subset=subsets, rerank=rerank)


def time_at_recall(curve: pd.DataFrame, target: float) -> float | None:
    """Interpolated ms/query at which the curve reaches ``target`` recall."""
    return cost_at_quality(curve, "ms_per_query", "recall", target)


def speedup_at_recall(fast: pd.DataFrame, slow: pd.DataFrame, target: float) -> float | None:
    """Relative speedup (slow_time / fast_time − 1) at the target recall."""
    tf = time_at_recall(fast, target)
    ts = time_at_recall(slow, target)
    if tf is None or ts is None or tf <= 0:
        return None
    return ts / tf - 1.0


def run_pipeline_sweep(
    pipelines: dict[str, tuple[Callable, list]],
    queries: np.ndarray,
    gt_idx: np.ndarray,
    *,
    k: int = 10,
) -> pd.DataFrame:
    """Sweep several named methods; returns long-format rows
    (method, param, recall, ms_per_query) — the Fig. 7 data. Recall is the
    paper's Eq. 1.

    Each ``search_fn(queries, k, param)`` takes the whole query block and
    returns one id row per query; rows shorter than ``k`` are padded with
    -1. Every (method, param) first makes a short untimed warm-up call, so
    first-touch costs (codebook tables, cache fill) don't land on a timed
    call. Then each of ``TIMED_REPEATS`` rounds times one call per
    (method, param), and the fastest call counts: a shared host only ever
    adds time, and interleaving the rounds makes its drift hit every method
    alike.
    """
    cells = [(name, fn, p) for name, (fn, params) in pipelines.items() for p in params]
    for _, fn, p in cells:
        fn(queries[: min(20, len(queries))], k, p)
    best = [np.inf] * len(cells)
    results = [None] * len(cells)
    for _ in range(TIMED_REPEATS):
        for i, (_, fn, p) in enumerate(cells):
            t0 = time.perf_counter()
            results[i] = fn(queries, k, p)
            best[i] = min(best[i], time.perf_counter() - t0)
    rows = []
    for (name, _, p), result, t in zip(cells, results, best):
        returned = np.full((len(queries), k), -1, dtype=np.int64)
        for i, res in enumerate(result):
            res = res[:k]
            returned[i, : len(res)] = res
        rows.append({"method": name, "param": p, "ms_per_query": t * 1000.0 / len(queries),
                     "recall": knn_accuracy(returned, gt_idx[:, :k])})
    return pd.DataFrame(rows, columns=["method", "param", "recall", "ms_per_query"])
