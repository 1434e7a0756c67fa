"""Entrypoint: Table 3 (offline training times + η).

Usage: python jobs/table3_training.py [scale]   (scale: test|bench)
"""
import sys

from _util import emit
from repro.experiments import table3
from repro.experiments.common import markdown_table


def main() -> None:
    scale = sys.argv[1] if len(sys.argv) > 1 else "bench"
    df = table3.run(scale=scale)
    emit(f"Table 3 — offline training time + η ({scale} scale)", markdown_table(df))


if __name__ == "__main__":
    main()
