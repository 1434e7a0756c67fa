"""Entrypoint: Table 5 (clustering comparison, ARI).

Usage: python jobs/table5_clustering.py [n]
"""
import sys

from _util import emit
from repro.experiments import table5
from repro.experiments.common import markdown_table


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 800
    df = table5.run(n=n)
    emit("Table 5 — clustering ARI vs generating labels", markdown_table(df))


if __name__ == "__main__":
    main()
