"""Entrypoint: Table 4 (candidate-set decrease at fixed accuracy).

Usage: python jobs/table4_candidates.py [scale]
"""
import sys

from _util import emit
from repro.experiments import table4
from repro.experiments.common import markdown_table


def main() -> None:
    scale = sys.argv[1] if len(sys.argv) > 1 else "bench"
    df, curves, target = table4.run(scale=scale)
    emit(f"Table 4 — candidate-set decrease at {target:.0%} 10-NN accuracy", markdown_table(df))
    for name, c in curves.items():
        emit(f"Fig. 5a-style curve — {name}", markdown_table(c))


if __name__ == "__main__":
    main()
