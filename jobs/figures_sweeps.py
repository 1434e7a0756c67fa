"""Entrypoint: Figure 5/6/7 sweeps as row data.

Usage: python jobs/figures_sweeps.py [fig] [scale]
  fig ∈ {5, 6, 7, all}
"""
import sys

from _util import emit
from repro.experiments import figures
from repro.experiments.common import markdown_table


def main() -> None:
    which = sys.argv[1] if len(sys.argv) > 1 else "all"
    scale = sys.argv[2] if len(sys.argv) > 2 else "bench"
    if which in ("5", "all"):
        for ds in ("sift", "mnist"):
            for bins in (16, 256):
                emit(
                    f"Fig. 5 — {ds}, {bins} bins",
                    markdown_table(figures.fig5(ds, bins, scale=scale)),
                )
    if which in ("6", "all"):
        emit("Fig. 6 — tree baselines (sift)", markdown_table(figures.fig6("sift", scale=scale)))
    if which in ("7", "all"):
        emit("Fig. 7 — ScaNN pipelines (sift)", markdown_table(figures.fig7("sift", scale=scale)))


if __name__ == "__main__":
    main()
