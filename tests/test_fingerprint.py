"""The bit-identity fingerprint script: two fresh processes building the
perfbench workloads and the tree indexes of Figs. 5–6 at test scale print
the same digests, one per artefact and one per tree index, and another seed
changes them."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARTEFACTS = {
    "ens16-online": ["models", "histories", "data_bins", "leaf_probs", "answers"],
    "hier64-scann-batch": ["models", "histories", "data_bins", "leaf_probs", "pq_codes",
                           "pq_codebooks", "answers"],
}
TREES = ["neural-lsh", "regression-lsh", "usp-lr-tree", "bsf", "tree-learned_kd", "tree-pca",
         "tree-rp", "tree-two_means", "usp-hierarchy-ensemble"]


def fingerprint(seeds: str) -> list[list[str]]:
    proc = subprocess.run([sys.executable, "benchmarks/fingerprint.py", "--seeds", seeds,
                           "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return [line.split() for line in proc.stdout.splitlines()]


def test_digests_repeat_and_follow_the_seed():
    first, second, other = fingerprint("1"), fingerprint("1"), fingerprint("2")
    assert first == second
    assert [(w, s, a) for w, s, a, _ in first] == [
        (w, "1", a) for w, names in ARTEFACTS.items() for a in names] + [
        ("trees", "1", index) for index in TREES]
    assert all(len(digest) == 64 for *_, digest in first)
    assert all(a[3] != b[3] for a, b in zip(first, other, strict=True))
