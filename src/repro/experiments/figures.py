"""Figure-shaped sweeps (Figs. 5–7) recorded as row data in EXPERIMENTS.md.

- fig5: USP(3-ensemble) vs Neural LSH vs K-means vs cross-polytope LSH,
  accuracy vs |C|, m = 16 and 256 (256 via hierarchical 16×16).
- fig6: logistic-regression binary trees — USP-LR tree vs Regression LSH,
  2-means, PCA, RP, learned-KD trees, Boosted Search Forest.
- fig7: USP+ScaNN vs K-means+ScaNN vs vanilla ScaNN vs HNSW vs IVF(FAISS),
  recall vs time; the ~40% speedup claim reads off these curves.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.baselines.boosted_forest import BoostedSearchForest
from repro.baselines.kmeans import KMeansPartitioner
from repro.baselines.lsh import CrossPolytopeLSH
from repro.baselines.neural_lsh import NeuralLSHPartitioner, RegressionLSHTree
from repro.baselines.trees import BinaryPartitionTree
from repro.core.ensemble import train_ensemble
from repro.core.hierarchy import HierarchicalPartitioner
from repro.core.train import TrainConfig
from repro.experiments.common import ground_truth, load_dataset
from repro.index.search import sweep_accuracy, topk_within
from repro.knn.exact import knn_matrix_numpy
from repro.scann.avq import AnisotropicPQ
from repro.scann.hnsw import HNSW
from repro.scann.pipelines import ScannPipeline, run_pipeline_sweep


def _sweep_all(indexes: dict, data, queries, gt, probe_counts) -> pd.DataFrame:
    frames = []
    for name, idx in indexes.items():
        c = sweep_accuracy(idx, data, queries, gt, k=10,
                           probe_counts=[p for p in probe_counts if p <= idx.n_bins])
        c.insert(0, "method", name)
        frames.append(c)
    return pd.concat(frames, ignore_index=True)


def fig5(
    dataset: str, bins: int, *, scale: str = "bench", epochs: int = 30,
    eta: float = 7.0, e: int = 3, seed: int = 0,
) -> pd.DataFrame:
    """Space-partitioning comparison (Fig. 5 panels)."""
    data, queries = load_dataset(dataset, scale)
    gt = ground_truth(data, queries, 10)
    knn_idx = knn_matrix_numpy(data, 10)
    # 256 bins via hierarchical 16×16 (§5.4.1): an Algorithm-3 ensemble of
    # e hierarchies with confidence routing, as in Fig. 5c/5d.
    side = int(round(np.sqrt(bins)))
    indexes: dict = {"Ours": train_ensemble(
        data, m=bins if bins <= 16 else [side, side], e=e,
        cfg=TrainConfig(eta=eta, epochs=epochs), knn_idx=knn_idx, seed=seed)}
    probe_counts = (list(range(1, bins + 1)) if bins <= 16
                    else [1, 2, 4, 8, 16, 32, 64, 128, 256])
    indexes["Neural LSH"] = NeuralLSHPartitioner(
        bins, hidden=512, epochs=epochs, seed=seed
    ).fit(data, knn_idx=knn_idx)
    indexes["K-means"] = KMeansPartitioner(bins, seed=seed).fit(data)
    d = data.shape[1]
    if bins <= 2 * d:
        indexes["CP-LSH"] = CrossPolytopeLSH(bins if bins % 2 == 0 else bins - 1, seed=seed).fit(data)
    out = _sweep_all(indexes, data, queries, gt, probe_counts)
    out.insert(0, "dataset", dataset)
    out.insert(1, "bins", bins)
    return out


def fig6(
    dataset: str = "sift", *, depth: int = 8, scale: str = "bench",
    epochs: int = 20, eta: float = 7.0, seed: int = 0,
) -> pd.DataFrame:
    """Tree-based (hyperplane) comparison with logistic-regression models."""
    data, queries = load_dataset(dataset, scale)
    gt = ground_truth(data, queries, 10)
    knn_idx = knn_matrix_numpy(data, 10)
    indexes = {
        "Ours (LR tree)": HierarchicalPartitioner(
            [2] * depth, arch="logreg",
            cfg_factory=lambda level, m: TrainConfig(m=m, eta=eta, epochs=epochs),
            min_split=32, seed=seed,
        ).fit(data, knn_idx=knn_idx),
        "Regression LSH": RegressionLSHTree(depth, epochs=epochs, seed=seed).fit(
            data, knn_idx=knn_idx),
        "2-means tree": BinaryPartitionTree("two_means", depth, seed=seed).fit(data),
        "PCA tree": BinaryPartitionTree("pca", depth, seed=seed).fit(data),
        "RP tree": BinaryPartitionTree("rp", depth, seed=seed).fit(data),
        "Learned KD-tree": BinaryPartitionTree("learned_kd", depth, seed=seed).fit(data),
        "Boosted forest": BoostedSearchForest(depth, n_trees=3, seed=seed).fit(data),
    }
    probe_counts = [1, 2, 4, 8, 16, 32, 64, 128, 256]
    out = _sweep_all(indexes, data, queries, gt, probe_counts)
    out.insert(0, "dataset", dataset)
    return out


def fig7(
    dataset: str = "sift", *, scale: str = "bench", m: int = 64,
    epochs: int = 30, eta: float = 7.0, seed: int = 0,
    pq_centers: int = 64, rerank_per_probe: int = 40,
) -> pd.DataFrame:
    """Non-learning ANNS comparison: recall-vs-time curves (Fig. 7).

    The partitioned pipelines trade recall for time by probing more bins;
    the exact-re-rank budget grows with the probe count (``rerank_per_probe``
    × probes) so the partition quality — not a fixed re-rank cap — limits
    recall, matching how ScaNN's leaves_to_search/reorder knobs co-scale.
    """
    data, queries = load_dataset(dataset, scale)
    gt = ground_truth(data, queries, 10)
    n_sub = max(2, data.shape[1] // 8)

    # m=64 via hierarchical 8×8 keeps per-bin candidate lists small enough
    # that low probe counts sit below saturation (as in the paper's figures).
    side = int(round(np.sqrt(m)))
    usp = HierarchicalPartitioner(
        [side, side],
        cfg_factory=lambda level, mm: TrainConfig(m=mm, eta=eta, epochs=epochs),
        seed=seed,
    ).fit(data)
    km = KMeansPartitioner(m, seed=seed).fit(data)

    usp_pipe = ScannPipeline(AnisotropicPQ(n_sub, pq_centers, seed=seed), usp).fit(data)
    km_pipe = ScannPipeline(AnisotropicPQ(n_sub, pq_centers, seed=seed), km).fit(data)
    van_pipe = ScannPipeline(AnisotropicPQ(n_sub, pq_centers, seed=seed)).fit(data)
    hnsw = HNSW(M=8, ef_construction=64, seed=seed).fit(data)
    # FAISS IVF-Flat: a K-means coarse quantizer whose cells are probed
    # nearest centroid first and scanned exactly.
    ivf = KMeansPartitioner(m, n_iter=25, seed=seed).fit(data)

    probes = [1, 2, 3, 4, 6, 8, 12, 16, 24]

    def _pipeline(pipe):
        return lambda qs, k, p: pipe.batch_search(qs, k, n_probes=p, rerank=rerank_per_probe * p)

    def _ivf(qs, k, p):
        return [topk_within(q, data, c, k) for q, c in zip(qs, ivf.candidate_ids(qs, p))]

    pipelines = {
        "USP + ScaNN": (_pipeline(usp_pipe), probes),
        "K-means + ScaNN": (_pipeline(km_pipe), probes),
        "Vanilla ScaNN": (lambda qs, k, p: van_pipe.batch_search(qs, k, rerank=p),
                          [50, 100, 200, 400, 800, 1600]),
        # A graph walk per query; HNSW has no batched search.
        "HNSW": (lambda qs, k, p: [hnsw.search(q, k, ef=p) for q in qs], [10, 20, 40, 80, 160]),
        "FAISS (IVF)": (_ivf, probes),
    }
    out = run_pipeline_sweep(pipelines, queries, gt, k=10)
    out.insert(0, "dataset", dataset)
    return out
