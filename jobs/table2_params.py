"""Entrypoint: Table 2 (parameter counts, 256 bins).

Usage: python jobs/table2_params.py
"""
from _util import emit
from repro.experiments import table2
from repro.experiments.common import markdown_table


def main() -> None:
    df = table2.run()
    emit("Table 2 — learnable parameters (SIFT, 256 bins)", markdown_table(df))


if __name__ == "__main__":
    main()
