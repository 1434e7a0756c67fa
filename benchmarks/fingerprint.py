"""Print a sha256 per artefact of each ``perfbench`` workload at the given
seeds, so two commits can be checked for bit identity with one diff:

    python3 benchmarks/fingerprint.py --seeds 5-7 > change.txt
    (cd ../parent && python3 benchmarks/fingerprint.py --seeds 5-7) > parent.txt
    diff parent.txt change.txt

Each workload is built once per seed through ``perfbench/workloads.py``,
with one BLAS thread as ``perfbench/run.py`` runs it. One line per
artefact, ``<workload> <seed> <artefact> <sha256>``:

- ``models``: every trained model's parameters and BatchNorm running stats,
  tree by tree, node by node depth-first;
- ``histories``: every training's per-epoch (U, S) history;
- ``data_bins``: each partition's bin per data point;
- ``leaf_probs``: each partition's leaf probabilities of the first 512
  request queries;
- ``pq_codes``, ``pq_codebooks``: the anisotropic PQ's codes and codebooks
  (hier64 only);
- ``answers``: every served answer, request by request.

Then one line per tree index of Figs. 5–6 at each seed,
``trees <seed> <index> <sha256>``: Neural LSH, Regression LSH, the
logistic-regression USP tree, Boosted Search Forest, the four hyperplane
trees and a two-member Algorithm-3 ensemble of 4×4 USP hierarchies
(``train_ensemble(m=[4, 4], e=2)``), each fitted with that seed on
``sift_lite`` data of that seed at the experiments' test scale (3,000×16,
200 queries; ``--smoke`` does not change it). The digest covers the trees'
routers node by node depth-first, each tree's data bins, the leaf
probabilities and ``probe_joins`` of every query.

Run from the repository root; ``--smoke`` builds the workloads at test scale.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
N_QUERIES = 512


def _digest(arrays) -> str:
    """sha256 over each array's dtype, shape and bytes, in order."""
    import numpy as np

    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


# The arrays of each router type, by type name.
ROUTER_ARRAYS = {"MLP": ("W", "b", "gamma", "beta", "mean", "var"),
                 "Hyperplane": ("w", "t", "scale")}
TREE_EPOCHS = 3  # few, to keep the tree lines fast; any count checks bit identity


def _models(node):
    """The router arrays of a tree's internal nodes, depth-first: an MLP's
    parameters and BatchNorm running stats, a hyperplane's w, t and scale."""
    if node.leaf_id is not None:
        return
    for name in ROUTER_ARRAYS[type(node.model).__name__]:
        a = getattr(node.model, name)
        yield from a if isinstance(a, list) else [a]
    for child in node.children:
        yield from _models(child)


def fingerprints(workloads, name: str, seed: int, scale) -> dict[str, str]:
    """``{artefact: sha256}`` of workload ``name`` built once at ``seed``."""
    import numpy as np

    wl = workloads.WORKLOADS[name](scale, seed)
    wl.setup()
    partitions = getattr(wl.partition, "models", [wl.partition])
    configs = getattr(wl, "cfgs", None) or [p.cfg for p in partitions]
    queries = wl.queries.reshape(-1, wl.queries.shape[-1])[:N_QUERIES]
    out = {
        "models": _digest(a for p in partitions for a in _models(p.root)),
        "histories": _digest(np.asarray(c.history, dtype=np.float64) for c in configs),
        "data_bins": _digest(p.data_bins() for p in partitions),
        "leaf_probs": _digest(p.leaf_probs(queries) for p in partitions),
    }
    if hasattr(wl, "pipe"):
        out["pq_codes"] = _digest([wl.pipe.pq.codes])
        out["pq_codebooks"] = _digest(wl.pipe.pq.codebooks)
    out["answers"] = _digest(wl.serve(r) for r in range(len(wl.queries)))
    return out


def tree_fingerprints(seed: int) -> dict[str, str]:
    """``{index: sha256}`` of each tree index of Figs. 5–6 fitted at ``seed``;
    an ensemble's trees are its members'."""
    import numpy as np

    from repro.baselines.boosted_forest import BoostedSearchForest
    from repro.baselines.neural_lsh import NeuralLSHPartitioner, RegressionLSHTree
    from repro.baselines.trees import SPLIT_RULES, BinaryPartitionTree
    from repro.core.ensemble import train_ensemble
    from repro.core.hierarchy import HierarchicalPartitioner
    from repro.core.train import TrainConfig
    from repro.experiments.common import _SCALES, ground_truth
    from repro.index import tree
    from repro.synth_data import sift_lite

    data, queries = sift_lite(**_SCALES["sift"]["test"], seed=seed)
    truth = ground_truth(data, queries, 10)
    fits = {
        "neural-lsh": lambda: NeuralLSHPartitioner(16, epochs=TREE_EPOCHS, seed=seed).fit(data),
        "regression-lsh": lambda: RegressionLSHTree(8, epochs=TREE_EPOCHS, seed=seed).fit(data),
        "usp-lr-tree": lambda: HierarchicalPartitioner(
            [2] * 8, arch="logreg", min_split=32, seed=seed,
            cfg_factory=lambda level, m: TrainConfig(m=m, epochs=TREE_EPOCHS)).fit(data),
        "bsf": lambda: BoostedSearchForest(8, n_trees=3, seed=seed).fit(data),
        **{f"tree-{r}": (lambda r=r: BinaryPartitionTree(r, 8, seed=seed).fit(data))
           for r in sorted(SPLIT_RULES)},
        "usp-hierarchy-ensemble": lambda: train_ensemble(
            data, m=[4, 4], e=2, cfg=TrainConfig(epochs=TREE_EPOCHS), seed=seed),
    }
    out = {}
    for name, fit in fits.items():
        index = fit()
        members = getattr(index, "models", [index])
        roots = getattr(index, "trees", None) or [m.root for m in members]
        bins = getattr(index, "tree_bins", None) or [m.data_bins() for m in members]
        leaf_probs = tree.leaf_probs(tree.compile_plan(roots), queries)
        out[name] = _digest([*(a for root in roots for a in _models(root)), *bins,
                             leaf_probs, *index.probe_joins(queries, truth)])
    return out


def parse_seeds(text: str) -> list[int]:
    """``"5-7"`` → [5, 6, 7]; ``"5,9"`` → [5, 9]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="e.g. 5-7 or 5,9")
    ap.add_argument("--smoke", action="store_true", help="build at test scale")
    args = ap.parse_args(argv)
    # Before numpy starts (this module imports it only inside functions).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    scale = workloads.SMOKE if args.smoke else workloads.BENCH
    for name in workloads.WORKLOADS:
        for seed in parse_seeds(args.seeds):
            for artefact, digest in fingerprints(workloads, name, seed, scale).items():
                print(f"{name} {seed} {artefact} {digest}", flush=True)
    for seed in parse_seeds(args.seeds):
        for index, digest in tree_fingerprints(seed).items():
            print(f"trees {seed} {index} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
