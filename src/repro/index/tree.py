"""Partition trees and forests: one node type, one grower, one leaf scorer.

The paper's hierarchical partition (§4.4.2) and every tree baseline of
§5.4.2 share one mechanism: each internal node routes a point to one of its
children, the leaves are the bins, and a query's probability of landing in a
leaf is the product of the routing probabilities along its root path. A flat
model (Algorithm 2, Neural LSH) is a one-level tree; an ensemble
(Algorithm 4) and Boosted Search Forest are forests, lists of roots.
:func:`grow` grows a tree from an index's ``split(idx, level)`` rule under the
one leaf rule (depth, min-split), :func:`node_knn` gives each node its k'-NN
matrix, :func:`compile_plan` compiles a forest per depth, and
:func:`leaf_probs`, the one scorer of every learned index, scores all its
trees a depth at a time: one stacked router call per (router type, fan-out)
group of a depth, path products by index arrays.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from repro.index.base import PartitionIndex, check_queries, fitted
from repro.knn.exact import knn_matrix_numpy


class Node:
    """A tree node: ``model`` routes queries (one column per child of its
    stack's ``stacked_proba``) at an internal node; a leaf has ``leaf_id`` instead.
    The root of a grown tree also holds its one-tree ``plan`` and the
    dimension ``d`` of the points it was grown over."""

    __slots__ = ("model", "children", "leaf_id", "plan", "d")

    def __init__(self, model=None, children: list[Node] | None = None, leaf_id: int | None = None):
        self.model = model
        self.children = children or []
        self.leaf_id = leaf_id
        self.plan: Plan | None = None
        self.d: int | None = None


class Hyperplane:
    """Soft routers of hyperplane nodes: a point goes right when w·x ≥ t, with
    probability the sigmoid of its margin scaled by the node's margin spread.
    Built from one node's ``w`` (d,) and scalars ``t`` and ``scale``, or from
    arrays with the node axis: ``w`` (nodes, d, 1), ``t`` and ``scale``
    (nodes, 1, 1). :meth:`stack` concatenates nodes, and one batched matmul
    runs the same matrix-vector product per node as ``q @ w``."""

    __slots__ = ("w", "t", "scale")

    def __init__(self, w: np.ndarray, t: float | np.ndarray, scale: float | np.ndarray):
        self.w = w if w.ndim == 3 else w[None, :, None]
        self.t, self.scale = (np.asarray(a, dtype=np.float64).reshape(-1, 1, 1) for a in (t, scale))

    @property
    def d_in(self) -> int:
        return self.w.shape[1]

    @staticmethod
    def stack(planes: list[Hyperplane]) -> Hyperplane:
        return Hyperplane(*(np.concatenate([getattr(h, name) for h in planes])
                            for name in Hyperplane.__slots__))

    def stacked_proba(self, q: np.ndarray) -> np.ndarray:
        """(nodes, n_q, 2): [left, right] probabilities per node and query."""
        z = (np.matmul(q, self.w) - self.t) / self.scale
        p_right = 1.0 / (1.0 + np.exp(-np.clip(z, -60, 60)))
        return np.concatenate([1 - p_right, p_right], axis=2)


def hyperplane_split(
    sub: np.ndarray, w: np.ndarray, t: float
) -> tuple[Hyperplane, list[np.ndarray]] | None:
    """(Hyperplane, [left, right] masks) for the rows of ``sub``, or None when
    no threshold separates them. A threshold that puts every row on one side
    is retried once at the median projection; the margin scale keeps the
    original threshold's spread."""
    margins = sub @ w - t
    scale = float(np.abs(margins).mean()) + 1e-9
    left = margins < 0
    if left.all() or (~left).all():
        t = float(np.median(sub @ w))
        left = sub @ w - t < 0
        if left.all() or (~left).all():
            return None
    return Hyperplane(w, t, scale), [left, ~left]


class Depth(NamedTuple):
    """One depth of a plan. ``groups`` pairs the stacked routers of each
    (type, fan-out) with each router's column in the previous depth's path
    products (a root's is its tree's number). The children get consecutive
    columns, group by group, node by node; ``leaf_cols`` are the leaves and
    ``leaf_slots`` their places ``tree * width + leaf_id`` in the output."""

    groups: list[tuple[object, np.ndarray | slice]]
    leaf_cols: np.ndarray | slice
    leaf_slots: np.ndarray | slice


class Plan(NamedTuple):
    """A forest compiled for :func:`leaf_probs`; ``root_leaves`` are the
    output slots of roots that are themselves leaves, None when there are
    none."""

    roots: tuple[Node, ...]
    d: int
    n_leaves: tuple[int, ...]
    root_leaves: np.ndarray | slice | None
    depths: list[Depth]


def _n_leaves(node: Node) -> int:
    return 1 if node.leaf_id is not None else sum(_n_leaves(c) for c in node.children)


def _index(ids: list[int]) -> np.ndarray | slice:
    """``ids`` as a slice when they are consecutive, so numpy copies a block
    where it would gather, and as an index array otherwise."""
    lo = ids[0] if ids else 0
    return slice(lo, lo + len(ids)) if ids == list(range(lo, lo + len(ids))) else np.array(ids)


def compile_plan(roots: list[Node]) -> Plan:
    """The per-depth plan of the forest of ``roots``; ValueError when the
    roots were grown over different dimensions, or the routers of one type
    and fan-out at a depth cannot be stacked (architectures or widths
    differ), or take a dimension other than the points'."""
    roots, dims = tuple(roots), {root.d for root in roots}
    if len(dims) != 1:
        raise ValueError(f"trees of dimensions {sorted(dims)} cannot be scored together")
    d, n_leaves = dims.pop(), tuple(_n_leaves(root) for root in roots)
    width, depths = max(n_leaves), []
    # (tree, node, column of its path product) of the depth being compiled
    level = [(t, root, t) for t, root in enumerate(roots) if root.leaf_id is None]
    while level:
        groups, children = [], []
        keys = [(type(node.model), len(node.children)) for _, node, _ in level]
        for key in dict.fromkeys(keys):
            nodes = [entry for entry, k in zip(level, keys) if k == key]
            try:
                routers = key[0].stack([node.model for _, node, _ in nodes])
            except ValueError as e:
                raise ValueError(f"depth {len(depths)}: {e}") from e
            if routers.d_in != d:
                raise ValueError(f"depth {len(depths)} routes dimension {routers.d_in}; "
                                 f"the points have dimension {d}")
            groups.append((routers, _index([col for *_, col in nodes])))
            children += [(t, child) for t, node, _ in nodes for child in node.children]
        leaves = [(i, t * width + child.leaf_id) for i, (t, child) in enumerate(children)
                  if child.leaf_id is not None]
        depths.append(Depth(groups, _index([i for i, _ in leaves]), _index([s for _, s in leaves])))
        level = [(t, child, i) for i, (t, child) in enumerate(children) if child.leaf_id is None]
    root_leaves = [t * width for t, root in enumerate(roots) if root.leaf_id is not None]
    return Plan(roots, d, n_leaves, _index(root_leaves) if root_leaves else None, depths)


def grow(shape: tuple[int, int], split: Callable, depth: int,
         min_split: int) -> tuple[Node, np.ndarray, int]:
    """Grow a tree over ``n`` points of dimension ``d``, ``shape = (n, d)``;
    returns ``(root, bins, n_leaves)`` with leaves numbered depth-first,
    ``bins`` each point's leaf id, and the root's ``plan`` compiled and ``d``
    recorded, so queries are checked against ``d`` even when the root is a
    leaf.

    A node at level ``depth`` or of fewer than ``min_split`` points is a leaf
    without a ``split`` call. ``split(idx, level)`` gets the point ids routed
    to any other node and returns None to make it a leaf, or ``(router,
    masks)``: one boolean mask over ``idx`` per child, in the order of the
    router's probability columns. A router's type has a ``stack(routers)``
    whose ``stacked_proba(q)`` is (nodes, n_q, children); the routers of one
    type and fan-out at a depth share a shape.
    """
    n, d = shape
    bins = np.zeros(n, dtype=np.int64)
    n_leaves = 0

    def node(idx: np.ndarray, level: int) -> Node:
        nonlocal n_leaves
        s = None if level >= depth or len(idx) < min_split else split(idx, level)
        if s is None:
            bins[idx] = n_leaves
            n_leaves += 1
            return Node(leaf_id=n_leaves - 1)
        router, masks = s
        return Node(router, [node(idx[mask], level + 1) for mask in masks])

    root = node(np.arange(n), 0)
    root.d = d
    root.plan = compile_plan([root])
    return root, bins, n_leaves


def node_knn(x: np.ndarray, idx: np.ndarray, level: int, k_prime: int,
             root_knn: np.ndarray | None = None) -> np.ndarray:
    """The k'-NN matrix of a node's points ``x[idx]``: ``root_knn`` at the
    root when given, else the subset's own with k' = min(k', |idx| − 1)."""
    if level == 0 and root_knn is not None:
        return root_knn
    return knn_matrix_numpy(x[idx], min(k_prime, len(idx) - 1))


def leaf_probs(plan: Plan, q: np.ndarray) -> np.ndarray:
    """(trees, n_q, width): for each tree of ``plan``, the product of the
    routing probabilities down each leaf's path, ``width`` the largest leaf
    count. A tree with fewer leaves is padded with -1, which ranks after
    every real leaf and is never the max; a root that is a leaf scores 1.
    One stacked router call per group of each depth.

    ValueError when ``q`` is not (n_q, d) with the trees' ``d``, or holds
    NaN or infinite values.
    """
    q = check_queries(q, plan.d)
    n_trees, width = len(plan.roots), max(plan.n_leaves)
    out = np.full((len(q), n_trees * width), -1.0)
    if plan.root_leaves is not None:
        out[:, plan.root_leaves] = 1.0
    acc = None  # the roots' path products are ones, which multiply as the identity
    for depth in plan.depths:
        blocks = []
        for routers, parent in depth.groups:
            probs = routers.stacked_proba(q)  # (nodes, n_q, fan-out)
            if acc is not None:
                probs = probs * acc.T[parent, :, None]
            blocks.append(probs.transpose(1, 0, 2).reshape(len(q), -1))
        acc = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
        out[:, depth.leaf_slots] = acc[:, depth.leaf_cols]
    return out.reshape(len(q), n_trees, width).transpose(1, 0, 2)


class TreeIndex(PartitionIndex):
    """A partition index whose bins are the leaves of the tree under
    ``root`` (one level deep for a flat model)."""

    root: Node | None = None

    def leaf_probs(self, queries: np.ndarray) -> np.ndarray:
        """(n_q, n_leaves) leaf probabilities (Algorithm 2's bin distribution
        for a flat model); ValueError on queries :func:`leaf_probs` rejects."""
        return leaf_probs(fitted(self.root).plan, queries)[0]

    def probe_scores(self, queries: np.ndarray) -> np.ndarray:
        """The leaf probabilities, through ``self.leaf_probs`` so a subclass
        override stays on the serve path."""
        return self.leaf_probs(queries)
