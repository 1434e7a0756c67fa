"""A flat USP index (Algorithms 1–2): the one-level case of the hierarchy's fit."""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.hierarchy import HierarchicalPartitioner
from repro.core.train import TrainConfig
from repro.index.base import probe_order


class UnsupervisedSpacePartitioner(HierarchicalPartitioner):
    """One USP model, the paper's MLP, routing to ``m`` leaf bins: the
    hierarchy ``[m]`` that splits any node. A given ``cfg`` is copied with
    ``m`` set, never changed; the copy trains with ``seed`` and keeps the
    history. ``model`` is the trained model."""

    def __init__(
        self,
        m: int,
        *,
        k_prime: int = 10,
        cfg: TrainConfig | None = None,
        seed: int = 0,
    ):
        self.cfg = replace(cfg, m=m) if cfg else TrainConfig(m=m)
        super().__init__([m], k_prime=k_prime, cfg_factory=self._cfg, min_split=0, seed=seed)

    def _cfg(self, level: int, m: int) -> TrainConfig:
        return self.cfg

    @property
    def model(self):
        return None if self.root is None else self.root.model

    # Defined on this class itself: perfbench's tracer wraps it here. It does
    # not chain to the hierarchy's, which is wrapped too, so one call is one span.
    def probe_matrix(self, queries: np.ndarray) -> np.ndarray:
        """Bins ranked by assigned probability, most probable first (Alg. 2)."""
        return probe_order(self.probe_scores(queries))
