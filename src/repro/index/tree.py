"""Partition trees: one node type, grower and per-depth leaf scoring.

The paper's hierarchical partition (§4.4.2) and every tree baseline of
§5.4.2 share one mechanism: each internal node routes a point to one of its
children, the leaves are the bins, and a query's probability of landing in a
leaf is the product of the per-level routing probabilities along its root
path. An index supplies only its own ``split(idx, level)`` rule; :func:`grow`
numbers the leaves depth-first and compiles a per-depth plan onto the root,
and :func:`leaf_probs` scores the leaves one depth at a time from that plan:
one stacked router call per depth, path products by index arrays.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from repro.index.base import check_queries


class Node:
    """A tree node: ``model`` routes queries (``predict_proba`` gives one
    column per child) at an internal node; a leaf has ``leaf_id`` instead.
    The root of a grown tree also holds its per-depth ``plan`` and the
    dimension ``d`` of the points it was grown over."""

    __slots__ = ("model", "children", "leaf_id", "plan", "d")

    def __init__(self, model=None, children: list[Node] | None = None, leaf_id: int | None = None):
        self.model = model
        self.children = children or []
        self.leaf_id = leaf_id
        self.plan: list[Depth] | None = None
        self.d: int | None = None


class Hyperplane:
    """Soft router of a hyperplane node: a point goes right when w·x ≥ t, with
    probability the sigmoid of its margin scaled by the node's margin spread.
    Routers are scored a depth at a time, through :meth:`stack`."""

    __slots__ = ("w", "t", "scale")

    def __init__(self, w: np.ndarray, t: float, scale: float):
        self.w, self.t, self.scale = w, t, scale

    @staticmethod
    def stack(planes: list[Hyperplane]) -> StackedHyperplanes:
        return StackedHyperplanes(planes)


class StackedHyperplanes:
    """Several hyperplane routers at once; ``w`` is (nodes, d, 1), so one
    batched matmul runs the same matrix-vector product per node as ``q @ w``."""

    def __init__(self, planes: list[Hyperplane]):
        self.w = np.stack([h.w for h in planes])[:, :, None]
        self.t = np.array([h.t for h in planes], dtype=np.float64)[:, None, None]
        self.scale = np.array([h.scale for h in planes], dtype=np.float64)[:, None, None]
        self.d_in = self.w.shape[1]

    def predict_proba(self, q: np.ndarray) -> np.ndarray:
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
    """One depth of a tree's plan. ``routers`` stacks the depth's internal
    nodes; ``parent`` holds each node's column in the previous depth's path
    products (the root's is column 0 of a column of ones). The depth's
    children get the columns ``node * m + child``; ``leaf_cols`` are those
    that are leaves, with their ``leaf_ids``."""

    routers: object
    parent: np.ndarray
    leaf_cols: np.ndarray
    leaf_ids: np.ndarray


def _compile_plan(root: Node, d: int) -> list[Depth]:
    """The per-depth plan of the tree under ``root``; ValueError when a depth
    mixes router types or router shapes, or its routers take a dimension
    other than ``d``."""
    plan = []
    nodes, parent = ([] if root.leaf_id is not None else [root]), [0]
    while nodes:
        kinds = {type(node.model) for node in nodes}
        if len(kinds) > 1:
            raise ValueError(f"depth {len(plan)} mixes router types "
                             f"{sorted(k.__name__ for k in kinds)}")
        try:
            routers = kinds.pop().stack([node.model for node in nodes])
        except ValueError as e:
            raise ValueError(f"depth {len(plan)}: {e}") from e
        if routers.d_in != d:
            raise ValueError(f"depth {len(plan)} routes dimension {routers.d_in}; "
                             f"the points have dimension {d}")
        children = [child for node in nodes for child in node.children]
        leaf_cols = [i for i, child in enumerate(children) if child.leaf_id is not None]
        plan.append(Depth(routers, np.array(parent, dtype=np.intp),
                          np.array(leaf_cols, dtype=np.intp),
                          np.array([children[i].leaf_id for i in leaf_cols], dtype=np.intp)))
        parent = [i for i, child in enumerate(children) if child.leaf_id is None]
        nodes = [children[i] for i in parent]
    return plan


def grow(shape: tuple[int, int], split: Callable) -> tuple[Node, np.ndarray, int]:
    """Grow a tree over ``n`` points of dimension ``d``, ``shape = (n, d)``;
    returns ``(root, bins, n_leaves)`` with leaves numbered depth-first,
    ``bins`` each point's leaf id, and the root's ``plan`` compiled and ``d``
    recorded, so queries are checked against ``d`` even when the root is a
    leaf.

    ``split(idx, level)`` gets the point ids routed to a node and returns None
    to make it a leaf, or ``(router, masks)``: one boolean mask over ``idx``
    per child, in the order of ``router.predict_proba``'s columns. The routers
    of one depth must be of one type and shape, with a ``stack(routers)`` whose
    ``predict_proba(q)`` is (nodes, n_q, children).
    """
    n, d = shape
    bins = np.zeros(n, dtype=np.int64)
    n_leaves = 0

    def node(idx: np.ndarray, level: int) -> Node:
        nonlocal n_leaves
        s = split(idx, level)
        if s is None:
            bins[idx] = n_leaves
            n_leaves += 1
            return Node(leaf_id=n_leaves - 1)
        router, masks = s
        return Node(router, [node(idx[mask], level + 1) for mask in masks])

    root = node(np.arange(n), 0)
    root.plan = _compile_plan(root, d)
    root.d = d
    return root, bins, n_leaves


def leaf_probs(root: Node, n_leaves: int, q: np.ndarray) -> np.ndarray:
    """(n_q, n_leaves): product of the routing probabilities down each leaf's
    path, one stacked router call per depth of the root's plan.

    ValueError when ``q`` is not (n_q, d) with the tree's ``d``, or holds
    NaN or infinite values.
    """
    q = check_queries(q, root.d)
    plan = root.plan
    out = np.ones((len(q), n_leaves))  # a root that is a leaf: probability one
    acc = np.ones((len(q), 1))
    for step in plan:
        probs = step.routers.predict_proba(q)  # (nodes, n_q, m)
        acc = (probs * acc.T[step.parent, :, None]).transpose(1, 0, 2).reshape(len(q), -1)
        out[:, step.leaf_ids] = acc[:, step.leaf_cols]
    return out
