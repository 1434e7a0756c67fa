"""Table 3: offline training times and η per configuration.

Paper (Tesla K80, full SIFT/MNIST): MNIST-16 2min η=7, MNIST-256 12min η=30,
SIFT-16 6min η=7, SIFT-256 40min η=10 — each the time to train the 3 base
models of the ensemble.

We measure wall-clock offline time (k'-NN matrix + 3-model ensemble; the
256-bin configs use the hierarchical 16×16 scheme of §5.4.1) on the _lite
datasets with the paper's η values. Absolute minutes differ (CPU numpy vs
GPU, smaller data); the *shape* to check is the ordering
MNIST-16 < SIFT-16 < MNIST-256 < SIFT-256 and the η values used. Each
configuration is timed ``REPEATS`` times, the four taken in turn each round,
and the table reports the median with the min–max spread.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd

from repro.core.ensemble import train_ensemble
from repro.core.train import TrainConfig
from repro.experiments.common import load_dataset
from repro.knn.exact import knn_matrix_numpy

PAPER = [
    {"dataset": "MNIST", "bins": 16, "eta": 7.0, "paper_minutes": 2.0},
    {"dataset": "MNIST", "bins": 256, "eta": 30.0, "paper_minutes": 12.0},
    {"dataset": "SIFT", "bins": 16, "eta": 7.0, "paper_minutes": 6.0},
    {"dataset": "SIFT", "bins": 256, "eta": 10.0, "paper_minutes": 40.0},
]
REPEATS = 3


def _train_config(dataset: str, bins: int, scale: str, eta: float, epochs: int) -> float:
    """Offline-phase wall-clock seconds for one Table 3 configuration."""
    data, _ = load_dataset(dataset.lower(), scale)
    t0 = time.perf_counter()
    knn_idx = knn_matrix_numpy(data, 10)
    # 256 bins via hierarchical 16×16 (§5.4.1); every member on one k'-NN matrix.
    side = int(round(np.sqrt(bins)))
    train_ensemble(data, m=bins if bins <= 16 else [side, side], e=3,
                   cfg=TrainConfig(eta=eta, epochs=epochs), knn_idx=knn_idx)
    return time.perf_counter() - t0


def run(*, scale: str = "bench", epochs: int = 25) -> pd.DataFrame:
    """One row per configuration; ``measured_seconds`` is the median run."""
    secs = [[_train_config(c["dataset"], c["bins"], scale, c["eta"], epochs) for c in PAPER]
            for _ in range(REPEATS)]
    return pd.DataFrame([
        {**cfg, "measured_minutes": float(np.median(runs)) / 60.0,
         "measured_seconds": float(np.median(runs)), "min_seconds": min(runs),
         "max_seconds": max(runs)}
        for cfg, runs in zip(PAPER, zip(*secs))
    ])
