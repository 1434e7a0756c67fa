"""The perf-trajectory script: medians and quartiles of ``perfbench/run.py``
result lines, appended to a trajectory file."""
import json

import pytest

from benchmarks.append_perf import append, summarize


def _line(qps: float, failed: int = 0) -> str:
    return json.dumps({"correct": failed == 0, "attempted": 10, "failed": failed,
                       "metrics": {"qps": {"value": qps, "unit": "1/s"}}})


def test_summarize_median_and_quartiles():
    got = summarize([_line(v) for v in (4.0, 1.0, 3.0, 2.0, 5.0)] + [""])
    assert got == {"runs": 5, "failed_runs": 0,
                   "metrics": {"qps": {"median": 3.0, "q1": 2.0, "q3": 4.0, "unit": "1/s"}}}
    assert summarize([_line(1.0), _line(2.0, failed=1)])["failed_runs"] == 1
    with pytest.raises(ValueError):
        summarize([])


def test_append_keeps_earlier_entries(tmp_path):
    path = tmp_path / "trajectory.json"
    path.write_text(json.dumps({"about": "x", "entries": [{"label": "old"}]}))
    append(path, {"label": "new"})
    assert [e["label"] for e in json.loads(path.read_text())["entries"]] == ["old", "new"]
