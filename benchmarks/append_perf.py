"""Append one entry to ``BENCH_perfbench.json``, the committed trajectory of
the ``perfbench`` end-to-end metrics.

Each input file holds the last standard-output line of ``perfbench/run.py``
runs, one JSON object per line, all of one workload:

    for s in $(seq 3101 3110); do
        python3 perfbench/run.py --workload hier64-scann-batch --seed $s \\
            --seconds 10 --trace 0 | tail -n 1 >> change.jsonl
    done
    python3 benchmarks/append_perf.py --label "..." --parent-commit 1e386ee \\
        --workload hier64-scann-batch --seeds 3101-3110 \\
        --change change.jsonl --parent parent.jsonl

Per-layer metrics come from ``--trace 1`` runs of the same seeds, whose
lines carry the per-layer metrics and ``host.ref_ms`` in place of the
end-to-end ones; pass them with ``--change-trace`` and ``--parent-trace``.

The entry gives, for each side and metric, the median and quartiles
[Q1, Q3] over the side's runs, with its run count and how many runs reported
a failed request or check; the traced runs' summary sits under the side's
``layers``. Run from the repository root.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_perfbench.json"


def summarize(lines: list[str]) -> dict:
    """Median and [Q1, Q3] per metric over the runs in ``lines``."""
    runs = [json.loads(line) for line in lines if line.strip()]
    if not runs:
        raise ValueError("no runs to summarize")
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = np.percentile(values, [25, 50, 75])
        metrics[name] = {"median": float(med), "q1": float(q1), "q3": float(q3),
                         "unit": first["unit"]}
    return {"runs": len(runs), "failed_runs": sum(r["failed"] > 0 for r in runs),
            "metrics": metrics}


def side(runs: Path, traced: Path | None = None) -> dict:
    """One side of an entry: the summary of its end-to-end runs and, under
    ``layers``, that of its ``--trace 1`` runs when given."""
    out = summarize(runs.read_text().splitlines())
    if traced is not None:
        out["layers"] = summarize(traced.read_text().splitlines())
    return out


def append(path: Path, entry: dict) -> None:
    """Add ``entry`` at the end of the trajectory file's ``entries``."""
    doc = json.loads(path.read_text())
    doc["entries"].append(entry)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="what the measured change did")
    ap.add_argument("--parent-commit", required=True, help="the commit the change applies to")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="the seeds run, e.g. 3101-3110")
    ap.add_argument("--change", required=True, type=Path, help="JSON lines of the change")
    ap.add_argument("--parent", required=True, type=Path,
                    help="JSON lines of the parent commit")
    ap.add_argument("--change-trace", type=Path, help="JSON lines of the change's --trace 1 runs")
    ap.add_argument("--parent-trace", type=Path, help="JSON lines of the parent's --trace 1 runs")
    args = ap.parse_args(argv)
    if (args.change_trace is None) != (args.parent_trace is None):
        ap.error("--change-trace and --parent-trace go together")
    append(TRAJECTORY, {
        "label": args.label, "parent_commit": args.parent_commit,
        "workload": args.workload, "seeds": args.seeds, "backfilled": False,
        "parent": side(args.parent, args.parent_trace),
        "change": side(args.change, args.change_trace),
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
