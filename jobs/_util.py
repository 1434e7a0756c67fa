"""Shared job plumbing: markdown output to stdout."""
from __future__ import annotations

import sys


def emit(title: str, md: str) -> None:
    print(f"\n## {title}\n\n{md}\n", file=sys.stdout, flush=True)
