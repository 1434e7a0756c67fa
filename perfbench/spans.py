"""Outside-in span tracer for the benchmark.

Spans are recorded by wrapping the public functions of the ``repro`` layers
from the outside; nothing under ``src/`` changes. A span is a list
``[name, start, end, parent, request, rows]`` kept in memory; ``parent`` is
the index of the enclosing span (-1 at the top) and ``request`` the id of the
request it served (None in set-up). ``rows`` is the count taken at the same
boundary (rows scored, points indexed, ...).

Names bound at import time (``from repro.x import f`` in another module) are
patched in every loaded module that holds the same object, so a caller that
imported the function before the tracer was installed still records spans.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

# Spans of these names are phase roots: their self time is the part of the
# phase that no layer span covers.
PHASES = ("phase.setup", "phase.serve", "phase.sweep")

# Inside a sweep every span is charged to the bucket of the sweep's direct
# child that contains it, so serve-side layer metrics stay serve-only.
SWEEP_BUCKETS = {
    "index.gather": "index.sweep.gather",
    "index.topk": "index.sweep.topk",
    "index.accuracy": "index.sweep.accuracy",
}


class Tracer:
    """Collects spans from wrapped callables and explicit ``span`` blocks."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str, rows: float = 0.0) -> list:
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self.request, rows]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, rows: float = 0.0):
        rec = self._open(name, rows)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, fn: Callable, name: str | Callable, rows: Callable | None = None) -> Callable:
        """``fn`` recording one span per call. ``name`` may be a function of
        ``(args, kwargs)``; ``rows`` maps ``(args, kwargs)`` to the count."""
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer._open(name(args, kwargs) if callable(name) else name,
                               rows(args, kwargs) if rows else 0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(rec)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # -- installing ------------------------------------------------------
    def patch_function(self, module, attr: str, name, rows=None) -> None:
        """Replace ``module.attr`` and every alias of it in loaded modules."""
        orig = getattr(module, attr)
        traced = self.wrap(orig, name, rows)
        for mod in list(sys.modules.values()):
            if mod is not None and vars(mod).get(attr) is orig:
                self._patches.append((mod, attr, orig))
                setattr(mod, attr, traced)

    def patch_method(self, cls, attr: str, name, rows=None) -> None:
        orig = cls.__dict__[attr]
        self._patches.append((cls, attr, orig))
        setattr(cls, attr, self.wrap(orig, name, rows))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()


def install_repro_spans(tracer: Tracer) -> None:
    """Wrap the public calls of the knn, nn, core, index and scann layers."""
    from repro.core import ensemble, hierarchy, loss, partitioner, train
    from repro.index import base, search
    from repro.knn import exact, metrics
    from repro.nn.model import MLP
    from repro.nn.optim import Adam
    from repro.scann.avq import AnisotropicPQ
    from repro.scann.pipelines import ScannPipeline

    def n_rows(i):
        return lambda a, k: len(a[i])

    def n_ids(pq, subset):
        return len(pq.codes) if subset is None else len(subset)

    def adc_rows(a, k):  # adc_distances(query, subset=None)
        return n_ids(a[0], a[2] if len(a) > 2 else k.get("subset"))

    def rerank_rows(a, k):  # search(query, k, *, subset=None, rerank=100)
        return min(max(k.get("rerank", 100), a[2]), n_ids(a[0], k.get("subset")))

    fn = tracer.patch_function
    fn(exact, "knn_matrix_numpy", "knn.matrix", n_rows(0))
    fn(train, "train_usp_model", "core.train")
    fn(loss, "usp_loss_and_grad", "core.loss")
    fn(loss, "neighbor_bin_distribution", "core.targets")
    fn(ensemble, "update_weights", "core.weights")
    fn(search, "topk_within", "index.topk", n_rows(2))
    fn(search, "sweep_accuracy", "phase.sweep")
    fn(metrics, "knn_accuracy", "index.accuracy")

    m = tracer.patch_method
    m(MLP, "forward",
      lambda a, k: "nn.forward_train" if k.get("train", a[2] if len(a) > 2 else True)
      else "nn.forward_eval",
      n_rows(1))
    m(MLP, "backward", "nn.backward")
    m(Adam, "step", "nn.adam_step", lambda a, k: 1)
    m(base.PartitionIndex, "bin_members", "index.lookup")
    m(base.PartitionIndex, "candidate_ids", "index.gather", n_rows(1))
    m(ensemble.EnsemblePartitioner, "candidate_ids", "index.gather", n_rows(1))
    m(ensemble.EnsemblePartitioner, "model_choice", "core.route", n_rows(1))
    for cls in (partitioner.UnsupervisedSpacePartitioner, ensemble.EnsemblePartitioner,
                hierarchy.HierarchicalPartitioner):
        m(cls, "probe_matrix", "core.probe", n_rows(1))
    m(hierarchy.HierarchicalPartitioner, "leaf_probs", "core.leaf_probs")
    m(AnisotropicPQ, "fit", "scann.pq_fit", n_rows(1))
    m(AnisotropicPQ, "adc_distances", "scann.adc", adc_rows)
    m(AnisotropicPQ, "search", "scann.rerank", rerank_rows)
    m(ScannPipeline, "batch_search", "scann.batch", n_rows(1))


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def aggregate(spans: list[list]) -> dict:
    """Self seconds, call counts and row counts per span name, per phase.

    Returns ``{phase: {"wall": s, "self": {name: s}, "calls": {name: n},
    "rows": {name: n}}}``. Spans under a sweep are charged to the sweep
    bucket of the sweep child that contains them (``SWEEP_BUCKETS``); the
    sweep's own self time counts as ``index.sweep.accuracy``.
    """
    selfs = self_times(spans)
    phase_of: list[str | None] = []
    label: list[str] = []
    for name, _, _, parent, _, _ in spans:
        if name in PHASES:
            phase_of.append(name)
            label.append("index.sweep.accuracy" if name == "phase.sweep" else name)
            continue
        ph = phase_of[parent] if parent >= 0 else None
        if ph == "phase.sweep":
            label.append(SWEEP_BUCKETS.get(name, "index.sweep.accuracy")
                         if spans[parent][0] == "phase.sweep" else label[parent])
        else:
            label.append(name)
        phase_of.append(ph)
    out: dict = defaultdict(lambda: {"wall": 0.0, "self": defaultdict(float),
                                      "calls": defaultdict(int), "rows": defaultdict(float)})
    for i, s in enumerate(spans):
        ph = phase_of[i]
        if ph is None:
            continue
        agg = out[ph]
        if s[0] == ph:
            agg["wall"] += s[2] - s[1]
        agg["self"][label[i]] += selfs[i]
        if label[i] == s[0]:
            agg["calls"][s[0]] += 1
            agg["rows"][s[0]] += s[5]
    return out


def coverage(agg: dict, phase: str) -> float:
    """Share of a phase's wall time that layer spans' self times account for."""
    a = agg.get(phase)
    if not a or a["wall"] <= 0:
        return 0.0
    return 1.0 - a["self"].get(phase, 0.0) / a["wall"]
