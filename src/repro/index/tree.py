"""Partition trees: one node type, grower and leaf-probability recursion.

The paper's hierarchical partition (§4.4.2) and every tree baseline of
§5.4.2 share one mechanism: each internal node routes a point to one of its
children, the leaves are the bins, and a query's probability of landing in a
leaf is the product of the per-level routing probabilities along its root
path. An index supplies only its own ``split(idx, level)`` rule; :func:`grow`
numbers the leaves depth-first and :func:`leaf_probs` scores them.
"""
from __future__ import annotations

from typing import Callable

import numpy as np


class Node:
    """A tree node: ``model`` routes queries (``predict_proba`` gives one
    column per child) at an internal node; a leaf has ``leaf_id`` instead."""

    __slots__ = ("model", "children", "leaf_id")

    def __init__(self, model=None, children: list[Node] | None = None, leaf_id: int | None = None):
        self.model = model
        self.children = children or []
        self.leaf_id = leaf_id


class Hyperplane:
    """Soft router of a hyperplane node: a point goes right when w·x ≥ t, with
    probability the sigmoid of its margin scaled by the node's margin spread."""

    __slots__ = ("w", "t", "scale")

    def __init__(self, w: np.ndarray, t: float, scale: float):
        self.w, self.t, self.scale = w, t, scale

    def predict_proba(self, q: np.ndarray) -> np.ndarray:
        z = (q @ self.w - self.t) / self.scale
        p_right = 1.0 / (1.0 + np.exp(-np.clip(z, -60, 60)))
        return np.stack([1 - p_right, p_right], axis=1)


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


def grow(n: int, split: Callable) -> tuple[Node, np.ndarray, int]:
    """Grow a tree over ``n`` points; returns ``(root, bins, n_leaves)`` with
    leaves numbered depth-first and ``bins`` each point's leaf id.

    ``split(idx, level)`` gets the point ids routed to a node and returns None
    to make it a leaf, or ``(router, masks)``: one boolean mask over ``idx``
    per child, in the order of ``router.predict_proba``'s columns.
    """
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
    return root, bins, n_leaves


def leaf_probs(root: Node, n_leaves: int, q: np.ndarray) -> np.ndarray:
    """(n_q, n_leaves): product of the routing probabilities down each leaf's
    path, one batched ``predict_proba`` call per internal node."""
    out = np.zeros((len(q), n_leaves))

    def walk(node: Node, acc: np.ndarray) -> None:
        if node.leaf_id is not None:
            out[:, node.leaf_id] = acc
            return
        probs = node.model.predict_proba(q)
        for b, child in enumerate(node.children):
            walk(child, acc * probs[:, b])

    walk(root, np.ones(len(q)))
    return out
