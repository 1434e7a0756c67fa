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

Run from the repository root; ``--smoke`` builds at test scale.
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


def _models(node):
    """The MLP arrays of a tree's internal nodes, depth-first."""
    if node.leaf_id is not None:
        return
    mlp = node.model
    for name in ("W", "b", "gamma", "beta", "mean", "var"):
        yield from getattr(mlp, name)
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
