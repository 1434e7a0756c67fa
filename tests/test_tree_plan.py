"""Per-depth leaf scoring against the per-node recursion it replaced.

``walk_leaf_probs`` is the recursive walk ``tree.leaf_probs`` used to run:
one router call per internal node, each path product multiplied down from
the root. The per-depth plan must give exactly its leaf probabilities and
probe order on every tree index, and a forest's plan exactly each tree's
walk (padded with -1) on every ensemble and forest, for one query, a
16-query block and every query. Also: routers of one depth that share a type
and fan-out but cannot be stacked fail at grow time, routers of different
types or fan-outs at one depth are scored as separate groups, the grower
makes a node at the depth or under the min-split a leaf without asking the
split rule, and bad queries fail on every tree index, a tree whose root is a
leaf included."""
import numpy as np
import pytest

from repro.baselines.boosted_forest import BoostedSearchForest
from repro.baselines.trees import SPLIT_RULES, BinaryPartitionTree
from repro.core.ensemble import EnsemblePartitioner
from repro.core.hierarchy import HierarchicalPartitioner
from repro.core.train import TrainConfig
from repro.index import tree
from repro.nn.model import logistic_regression, mlp_partitioner
from tests.conftest import candidate_ranks


def node_proba(router, q):
    """One router's (n_q, children) probabilities, as each node computed them."""
    if isinstance(router, tree.Hyperplane):
        z = (q @ router.w[0, :, 0] - router.t.item()) / router.scale.item()
        p_right = 1.0 / (1.0 + np.exp(-np.clip(z, -60, 60)))
        return np.stack([1 - p_right, p_right], axis=1)
    return router.predict_proba(q)


def walk_leaf_probs(root, n_leaves, q):
    out = np.zeros((len(q), n_leaves))

    def walk(node, acc):
        if node.leaf_id is not None:
            out[:, node.leaf_id] = acc
            return
        probs = node_proba(node.model, q)
        for b, child in enumerate(node.children):
            walk(child, acc * probs[:, b])

    walk(root, np.ones(len(q)))
    return out


def walk_forest(plan, q):
    """``tree.leaf_probs`` by one walk per tree, padded with -1."""
    out = np.full((len(plan.roots), len(q), max(plan.n_leaves)), -1.0)
    for o, root, n_leaves in zip(out, plan.roots, plan.n_leaves):
        o[:, :n_leaves] = walk_leaf_probs(root, n_leaves, q)
    return out


def roots(index):
    """(root, n_leaves) of every tree an index scores queries with."""
    if isinstance(index, EnsemblePartitioner):
        return [r for member in index.models for r in roots(member)]
    if isinstance(index, BoostedSearchForest):
        return list(zip(index.trees, index.tree_n_bins))
    return [(index.root, index.n_bins)]


def _hierarchy(levels, *, min_split, seed, arch="mlp"):
    return HierarchicalPartitioner(
        levels, arch=arch, cfg_factory=lambda level, m: TrainConfig(m=m, eta=5.0, epochs=5),
        min_split=min_split, seed=seed,
    )


TREES = [f"tree-{r}" for r in sorted(SPLIT_RULES)] + ["bsf"]
SMALL_TREES = ["hierarchy", "ensemble-of-hierarchies", "regression-lsh", *TREES]
DUPLICATE_TREES = ["hierarchy", *TREES]
EXTRA = ["hierarchy-4x4x4", "logreg-2x2x2x2", "hierarchy-two-leaf-depths", "single-leaf"]
NAMES = SMALL_TREES + [f"{n}-duplicates" for n in DUPLICATE_TREES] + EXTRA


@pytest.fixture(scope="module")
def tree_indexes(small_indexes, duplicate_indexes, small_data, duplicates):
    """name -> (index, queries) for every tree index."""
    data, queries = small_data
    out = {n: (small_indexes[n], queries) for n in SMALL_TREES}
    out.update({f"{n}-duplicates": (duplicate_indexes[n], duplicates[1])
                for n in DUPLICATE_TREES})
    out.update({
        "hierarchy-4x4x4": (_hierarchy([4, 4, 4], min_split=40, seed=0).fit(data), queries),
        "logreg-2x2x2x2": (_hierarchy([2] * 4, min_split=40, seed=0, arch="logreg").fit(data),
                           queries),
        # One depth-1 child is a leaf, the others split; one leaf is empty.
        "hierarchy-two-leaf-depths": (_hierarchy([4, 4], min_split=300, seed=1).fit(data),
                                      queries),
        "single-leaf": (BinaryPartitionTree("rp", 0).fit(data), queries),
    })
    return out


def _blocks(queries):
    return [queries[:1], queries[:16], queries]


def test_fixture_shapes(tree_indexes, small_data):
    """The extra trees have the shapes they are there for."""
    h, _ = tree_indexes["hierarchy-4x4x4"]
    assert len(h.root.plan.depths) == 3
    h, _ = tree_indexes["hierarchy-two-leaf-depths"]
    slots = np.arange(h.n_bins)
    assert [slots[step.leaf_slots].size > 0 for step in h.root.plan.depths] == [True, True]
    assert (np.bincount(h.data_bins(), minlength=h.n_bins) == 0).any()
    single, _ = tree_indexes["single-leaf"]
    assert single.n_bins == 1 and single.root.plan.depths == []
    assert single.root.d == small_data[0].shape[1]


@pytest.mark.parametrize("name", NAMES)
def test_leaf_probs_equal_walk(name, tree_indexes):
    index, queries = tree_indexes[name]
    for root, n_leaves in roots(index):
        for q in _blocks(queries):
            assert np.array_equal(tree.leaf_probs(root.plan, q)[0],
                                  walk_leaf_probs(root, n_leaves, q))


@pytest.fixture(scope="module")
def forests(ensembles, tree_indexes, small_data):
    """name -> (the plan an index scores all its trees with, queries)."""
    queries = small_data[1]
    out = {}
    for name, ens in ensembles.items():
        ens.model_choice(queries[:1])  # compiles the plan over the members' roots
        out[name] = (ens._plan, queries)
    for name in ("bsf", "bsf-duplicates"):
        index, q = tree_indexes[name]
        out[name] = (index.plan, q)
    return out


FORESTS = ["ensemble", "ensemble-of-hierarchies", "unequal", "flat-unequal", "mixed",
           "bsf", "bsf-duplicates"]


@pytest.mark.parametrize("name", FORESTS)
def test_forest_equal_walk(name, forests):
    """Member by member: each tree's scores equal its own walk, and its
    padded leaves hold -1."""
    plan, queries = forests[name]
    assert len(plan.roots) > 1
    for q in _blocks(queries):
        assert np.array_equal(tree.leaf_probs(plan, q), walk_forest(plan, q))


def probe_outputs(index, q):
    """What the online path reads off the leaf scores: the per-point probe
    ranks its candidate sets define, and the probe matrix of the index or,
    for an ensemble, of each member."""
    return [candidate_ranks(index, q)] + [m.probe_matrix(q)
                                          for m in getattr(index, "models", [index])]


@pytest.mark.parametrize("name", NAMES)
def test_probe_order_equal_walk(name, tree_indexes, monkeypatch):
    index, queries = tree_indexes[name]
    got = [probe_outputs(index, q) for q in _blocks(queries)]
    monkeypatch.setattr(tree, "leaf_probs", walk_forest)
    for outputs, q in zip(got, _blocks(queries)):
        for a, b in zip(outputs, probe_outputs(index, q), strict=True):
            assert np.array_equal(a, b)


def _grow_with(first, second, fanouts, d=4):
    """A root routing points 0-1 to a child split by ``first`` and points
    2-3 to a child split by ``second``; ``fanouts`` are their child counts."""
    def split(idx, level):
        if level == 0:
            return logistic_regression(d, 2, seed=0), [idx < 2, idx >= 2]
        i = int(idx[0] >= 2)
        return (first, second)[i], [idx == idx[0]] + [idx < 0] * (fanouts[i] - 1)
    return tree.grow((4, d), split, 2, 0)


@pytest.mark.parametrize("first, second, fanouts", [
    pytest.param(logistic_regression(4, 2), mlp_partitioner(4, 2, hidden=8), (2, 2),
                 id="architectures"),
    pytest.param(mlp_partitioner(4, 2, hidden=8), mlp_partitioner(4, 2, hidden=16), (2, 2),
                 id="hidden-widths"),
    pytest.param(tree.Hyperplane(np.ones(4), 0.0, 1.0), tree.Hyperplane(np.ones(5), 0.0, 1.0),
                 (2, 2), id="hyperplane-dims"),
    pytest.param(tree.Hyperplane(np.ones(5), 0.0, 1.0), tree.Hyperplane(np.ones(5), 0.0, 1.0),
                 (2, 2), id="router-dimension-not-the-points"),
])
def test_mixed_depth_fails_at_grow(first, second, fanouts):
    with pytest.raises(ValueError, match="depth 1"):
        _grow_with(first, second, fanouts)


@pytest.mark.parametrize("first, second, fanouts", [
    pytest.param(tree.Hyperplane(np.ones(4), 0.0, 1.0), logistic_regression(4, 2), (2, 2),
                 id="router-types"),
    pytest.param(logistic_regression(4, 2), logistic_regression(4, 3), (2, 3), id="child-counts"),
])
def test_mixed_depth_grows_equal_to_walk(first, second, fanouts):
    """Routers of two types or two fan-outs at one depth form two groups."""
    root, _, n_leaves = _grow_with(first, second, fanouts)
    assert [len(step.groups) for step in root.plan.depths] == [1, 2]
    q = np.random.default_rng(0).normal(size=(5, 4))
    assert np.array_equal(tree.leaf_probs(root.plan, q)[0], walk_leaf_probs(root, n_leaves, q))


def test_one_router_kind_per_depth_grows():
    root, _, n_leaves = _grow_with(logistic_regression(4, 2, seed=1),
                                   logistic_regression(4, 2, seed=2), (2, 2))
    q = np.random.default_rng(0).normal(size=(5, 4))
    assert np.array_equal(tree.leaf_probs(root.plan, q)[0], walk_leaf_probs(root, n_leaves, q))


@pytest.mark.parametrize("depth, min_split, calls", [
    (0, 0, []),
    (2, 0, [(0, 8), (1, 4), (1, 4)]),
    (3, 0, [(0, 8), (1, 4), (2, 2), (2, 2), (1, 4), (2, 2), (2, 2)]),
    (5, 3, [(0, 8), (1, 4), (1, 4)]),
    (5, 5, [(0, 8)]),
    (5, 9, []),
])
def test_grow_owns_the_leaf_rule(depth, min_split, calls):
    """``split`` is never called for a node at ``depth`` or of fewer than
    ``min_split`` points; those are leaves, numbered depth-first."""
    seen = []

    def split(idx, level):
        seen.append((level, len(idx)))
        half = np.arange(len(idx)) < len(idx) // 2
        return tree.Hyperplane(np.ones(2), 0.0, 1.0), [half, ~half]

    _, bins, n_leaves = tree.grow((8, 2), split, depth, min_split)
    assert seen == calls
    assert n_leaves == len(calls) + 1
    np.testing.assert_array_equal(bins, np.repeat(np.arange(n_leaves), 8 // n_leaves))


def _assert_rejected(index, queries):
    for call in (index.probe_scores, index.probe_matrix, lambda q: candidate_ranks(index, q),
                 lambda q: index.candidate_ids(q, 2)):
        with pytest.raises(ValueError):
            call(queries)


# A root that is a leaf has no router; it checks against the grown points' d.
@pytest.mark.parametrize("name", SMALL_TREES + ["single-leaf"])
def test_rejects_query_dimension(name, tree_indexes):
    index, queries = tree_indexes[name]
    _assert_rejected(index, queries[:, :-1])
    _assert_rejected(index, np.hstack([queries, queries[:, :1]]))


@pytest.mark.parametrize("name", SMALL_TREES + ["single-leaf"])
def test_rejects_non_finite_queries(name, tree_indexes):
    index, queries = tree_indexes[name]
    for bad in (np.nan, np.inf, -np.inf):
        q = queries[:16].copy()
        q[3, 2] = bad
        _assert_rejected(index, q)
