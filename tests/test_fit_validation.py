"""Bad training data fails loudly in every index's fit: data that is not
(n, d), holds NaN or infinite values or squared norms that overflow, a given
k'-NN matrix of the wrong shape, with k' outside (0, n), or with ids outside
[0, n), a k' outside (0, n) for the matrix the fit builds, a K-means k
outside [1, n], and a tree's fan-out below 1 or, at the root, above n. A bad architecture fails
before any k'-NN work. A query on an index that was never fitted fails
with one RuntimeError, "index not fitted". Per-point weights that are not
n finite, non-negative values with a positive sum fail before any k'-NN
build, as does an ensemble of fewer than one model."""
import numpy as np
import pytest

from repro.baselines.boosted_forest import BoostedSearchForest
from repro.baselines.kmeans import KMeans, KMeansPartitioner
from repro.baselines.lsh import CrossPolytopeLSH
from repro.baselines.neural_lsh import NeuralLSHPartitioner, RegressionLSHTree
from repro.baselines.trees import SPLIT_RULES, BinaryPartitionTree
from repro.core.ensemble import train_ensemble
from repro.core.hierarchy import HierarchicalPartitioner
from repro.core.partitioner import UnsupervisedSpacePartitioner
from repro.core.train import TrainConfig
from repro.knn.exact import knn_matrix_numpy
from repro.core.ensemble import EnsemblePartitioner
from repro.nn.model import mlp_partitioner
from repro.scann.avq import AnisotropicPQ
from tests.conftest import candidate_ranks

CFG = TrainConfig(m=4, epochs=1)

# name -> fit(x, knn_idx=None), for every index type
FITS = {
    "usp": lambda x, **kw: UnsupervisedSpacePartitioner(4, cfg=CFG).fit(x, **kw),
    "ensemble": lambda x, **kw: train_ensemble(x, m=4, e=2, cfg=CFG, **kw),
    "neural-lsh": lambda x, **kw: NeuralLSHPartitioner(4, hidden=8, epochs=1).fit(x, **kw),
    "hierarchy": lambda x, **kw: HierarchicalPartitioner(
        [2, 2], cfg_factory=lambda level, m: TrainConfig(m=m, epochs=1)).fit(x, **kw),
    "kmeans": lambda x: KMeansPartitioner(4).fit(x),
    "cp-lsh": lambda x: CrossPolytopeLSH(4).fit(x),
    "regression-lsh": lambda x, **kw: RegressionLSHTree(2, epochs=1).fit(x, **kw),
    "bsf": lambda x: BoostedSearchForest(2, n_trees=2).fit(x),
    **{f"tree-{r}": (lambda x, r=r: BinaryPartitionTree(r, 2).fit(x)) for r in sorted(SPLIT_RULES)},
}
KNN_FITS = ["usp", "ensemble", "neural-lsh", "hierarchy", "regression-lsh"]

# name -> a new, unfitted index, for every index type that fits itself
UNFITTED = {
    "usp": lambda: UnsupervisedSpacePartitioner(4, cfg=CFG),
    "neural-lsh": lambda: NeuralLSHPartitioner(4, hidden=8, epochs=1),
    "hierarchy": lambda: HierarchicalPartitioner([2, 2]),
    "kmeans": lambda: KMeansPartitioner(4),
    "cp-lsh": lambda: CrossPolytopeLSH(4),
    "regression-lsh": lambda: RegressionLSHTree(2, epochs=1),
    "bsf": lambda: BoostedSearchForest(2, n_trees=2),
    **{f"tree-{r}": (lambda r=r: BinaryPartitionTree(r, 2)) for r in sorted(SPLIT_RULES)},
}


def _no_knn_build(*args, **kwargs):
    raise AssertionError("k'-NN matrix built before the arguments were checked")


@pytest.fixture(scope="module")
def data():
    return np.random.default_rng(0).normal(size=(200, 6))


@pytest.mark.parametrize("name", sorted(FITS))
def test_fit_rejects_bad_data(name, data):
    fit = FITS[name]
    fit(data)  # the good data fits
    for bad in (np.nan, np.inf, -np.inf):
        x = data.copy()
        x[7, 3] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            fit(x)
    with pytest.raises(ValueError, match="expected \\(n, d\\)"):
        fit(data[:, 0])


@pytest.mark.parametrize("name", KNN_FITS)
def test_fit_rejects_bad_knn(name, data):
    fit, n = FITS[name], len(data)
    knn = knn_matrix_numpy(data, 5)
    fit(data, knn_idx=knn)
    for bad in (knn[:-1], knn[:, :0], knn[:, 0], np.zeros((n, n), dtype=np.int64)):
        with pytest.raises(ValueError, match="0 < k' < n"):
            fit(data, knn_idx=bad)
    for value in (-1, n):
        bad = knn.copy()
        bad[3, 2] = value
        with pytest.raises(ValueError, match="integer ids"):
            fit(data, knn_idx=bad)
    with pytest.raises(ValueError, match="integer ids"):
        fit(data, knn_idx=knn.astype(np.float64))


def bad_weights(n):
    """name -> per-point weights that no USP fit may train on."""
    nan, inf, neg = np.ones(n), np.ones(n), np.ones(n)
    nan[5], inf[5], neg[5] = np.nan, np.inf, -0.5
    return {"n-1": np.ones(n - 1), "n+5": np.ones(n + 5), "nan": nan, "inf": inf,
            "negative": neg, "all-zero": np.zeros(n)}


@pytest.mark.parametrize("bad", ["n-1", "n+5", "nan", "inf", "negative", "all-zero"])
def test_fit_rejects_bad_weights(bad, data, monkeypatch):
    """Bad weights fail in the flat and the hierarchical fit before any
    k'-NN build."""
    monkeypatch.setattr("repro.index.tree.knn_matrix_numpy", _no_knn_build)
    for name in ("usp", "hierarchy"):
        with pytest.raises(ValueError, match="weights must be"):
            FITS[name](data, weights=bad_weights(len(data))[bad])


@pytest.mark.parametrize("e", [0, -1])
def test_ensemble_rejects_no_members(e, data, monkeypatch):
    """An ensemble of no models fails before its k'-NN build."""
    monkeypatch.setattr("repro.core.ensemble.knn_matrix_numpy", _no_knn_build)
    with pytest.raises(ValueError, match="at least one model"):
        train_ensemble(data, m=4, e=e, cfg=CFG)


def test_ensemble_rejects_bad_updated_weights(data, monkeypatch):
    """The ensemble's boosted weights pass the same check: NaN weights from
    an update fail instead of training the next member on them."""
    monkeypatch.setattr("repro.core.ensemble.update_weights",
                        lambda w, bins, knn: np.full_like(w, np.nan))
    with pytest.raises(ValueError, match="weights must be"):
        FITS["ensemble"](data)


def test_fit_accepts_zero_weights(data):
    """Zero weights, which the ensemble's update makes, still train."""
    w = np.ones(len(data))
    w[::3] = 0.0
    assert FITS["usp"](data, weights=w).data_bins().shape == (len(data),)


@pytest.mark.parametrize("fit", [
    lambda x, k: UnsupervisedSpacePartitioner(4, k_prime=k, cfg=CFG).fit(x),
    lambda x, k: train_ensemble(x, m=4, e=2, k_prime=k, cfg=CFG),
    lambda x, k: HierarchicalPartitioner(
        [2, 2], k_prime=k, cfg_factory=lambda level, m: TrainConfig(m=m, epochs=1)).fit(x),
    lambda x, k: BoostedSearchForest(2, n_trees=2, k_prime=k).fit(x),
    lambda x, k: RegressionLSHTree(2, k_prime=k, epochs=1).fit(x),
    lambda x, k: NeuralLSHPartitioner(4, k_prime=k, hidden=8, epochs=1).fit(x),
    lambda x, k: BinaryPartitionTree("learned_kd", 2, k_prime=k).fit(x),
], ids=["usp", "ensemble", "hierarchy", "bsf", "regression-lsh", "neural-lsh",
        "tree-learned_kd"])
def test_fit_rejects_k_prime_outside_0_n(fit, data, monkeypatch):
    """A k' the root's k'-NN matrix cannot have fails, before any k'-NN
    build, instead of being clamped to n - 1."""
    for module in ("repro.index.tree", "repro.baselines.boosted_forest"):
        monkeypatch.setattr(f"{module}.knn_matrix_numpy", _no_knn_build)
    for k in (0, len(data), len(data) + 5):
        with pytest.raises(ValueError, match="0 < k' < n"):
            fit(data, k)


@pytest.mark.parametrize("fit", [
    lambda x, k: KMeans(k).fit(x),
    lambda x, k: KMeansPartitioner(k).fit(x),
], ids=["kmeans", "kmeans-partitioner"])
def test_kmeans_rejects_k_outside_1_n(fit, data):
    """More centroids than points would leave bins empty, and k = 0 would
    still fit one centroid: both fail instead."""
    x = data[:10]
    fit(x, len(x))  # one centroid per point fits
    for k in (0, -1, len(x) + 1, 64):
        with pytest.raises(ValueError, match="outside \\[1, n=10\\]"):
            fit(x, k)


@pytest.mark.parametrize("dropout", [1.0, 1.5, -0.1, np.nan])
def test_fit_rejects_bad_dropout(dropout, data):
    with pytest.raises(ValueError, match="dropout"):
        mlp_partitioner(data.shape[1], 4, dropout=dropout)


@pytest.mark.parametrize("fit,match", [
    (lambda x: HierarchicalPartitioner([2, 2], arch="cnn").fit(x), "unknown arch"),
    (lambda x: NeuralLSHPartitioner(len(x) + 1, hidden=8, epochs=1).fit(x),
     "m=201 bins outside \\[1, n=200\\]"),
    (lambda x: NeuralLSHPartitioner(0, hidden=8, epochs=1).fit(x),
     "m=0 bins outside \\[1, n=200\\]"),
    (lambda x: UnsupervisedSpacePartitioner(0, cfg=CFG).fit(x),
     "m=0 bins outside \\[1, n=200\\]"),
    (lambda x: UnsupervisedSpacePartitioner(len(x) + 1, cfg=CFG).fit(x),
     "m=201 bins outside \\[1, n=200\\]"),
    (lambda x: HierarchicalPartitioner([4, 0]).fit(x), "m=0 bins outside \\[1, n=200\\]"),
    (lambda x: HierarchicalPartitioner([-2]).fit(x), "m=-2 bins outside \\[1, n=200\\]"),
    (lambda x: train_ensemble(x, m=[len(x) + 1, 2], e=2, cfg=CFG),
     "m=201 bins outside \\[1, n=200\\]"),
], ids=["hierarchy-arch", "neural-lsh-m-above-n", "neural-lsh-m-0", "usp-m-0",
        "usp-m-above-n", "hierarchy-level-0", "hierarchy-m-negative", "ensemble-m-above-n"])
def test_bad_arguments_fail_before_the_knn_build(fit, match, data, monkeypatch):
    """Bad arguments fail before any k'-NN build: an unknown architecture,
    and a fan-out below 1 at any level or above n at the root, which would
    leave bins empty, in the flat, hierarchical and ensemble fits."""
    for module in ("repro.index.tree", "repro.core.ensemble"):
        monkeypatch.setattr(f"{module}.knn_matrix_numpy", _no_knn_build)
    with pytest.raises(ValueError, match=match):
        fit(data)


@pytest.mark.parametrize("name", sorted(FITS))
def test_fit_rejects_overflowing_norms(name, data):
    """Finite data whose squared norms overflow float64 fail in every fit."""
    x = data.copy()
    x[::2] *= 1e155
    with pytest.raises(ValueError, match="squared norms too large"):
        FITS[name](x)


@pytest.mark.parametrize("name", sorted(UNFITTED))
def test_unfitted_index_queries_raise(name, data):
    """Every query method of an unfitted index raises the one error, not
    an AttributeError or IndexError from inside."""
    index, q = UNFITTED[name](), data[:3]
    calls = [index.data_bins, index.bin_members, index.bin_sizes,
             lambda: index.probe_scores(q), lambda: index.probe_matrix(q),
             lambda: index.candidate_ids(q, 2), lambda: candidate_ranks(index, q),
             lambda: index.probe_joins(q, np.zeros((3, 2), int))]
    if hasattr(index, "leaf_probs"):
        calls.append(lambda: index.leaf_probs(q))
    for call in calls:
        with pytest.raises(RuntimeError, match="index not fitted"):
            call()


def test_unfitted_ensemble_member_raises():
    with pytest.raises(RuntimeError, match="index not fitted"):
        EnsemblePartitioner([UnsupervisedSpacePartitioner(4, cfg=CFG)])


def test_unfitted_pq_raises(data):
    pq, q = AnisotropicPQ(2, 4), data[:3]
    for call in (lambda: pq.search(q, 3), lambda: pq.adc_distances(q[0]),
                 lambda: pq.adc_distances(q), pq.reconstruction):
        with pytest.raises(RuntimeError, match="index not fitted"):
            call()
