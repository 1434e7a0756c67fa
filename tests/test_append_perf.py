"""The perf-trajectory script: medians and quartiles of ``perfbench/run.py``
result lines, end-to-end and traced, appended to a trajectory file."""
import json

import pytest

from benchmarks.append_perf import append, main, side, summarize


def _line(qps: float, failed: int = 0) -> str:
    return json.dumps({"correct": failed == 0, "attempted": 10, "failed": failed,
                       "metrics": {"qps": {"value": qps, "unit": "1/s"}}})


def _traced(topk_s: float, ref_ms: float) -> str:
    """A ``--trace 1`` result line: per-layer metrics and ``host.ref_ms``."""
    return json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": {
        "index.topk_s": {"value": topk_s, "unit": "s"},
        "scann.rerank_s": {"value": 0.0, "unit": "s"},
        "host.ref_ms": {"value": ref_ms, "unit": "ms"}}})


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


def test_side_carries_traced_layers(tmp_path):
    runs, traced = tmp_path / "runs.jsonl", tmp_path / "traced.jsonl"
    runs.write_text("\n".join(_line(v) for v in (1.0, 2.0, 3.0)) + "\n")
    traced.write_text("\n".join(_traced(t, r) for t, r in ((0.03, 9.0), (0.01, 8.0), (0.02, 7.0))))
    assert "layers" not in side(runs)
    got = side(runs, traced)
    assert got["metrics"]["qps"]["median"] == 2.0
    layers = got["layers"]
    assert layers["runs"] == 3 and set(layers["metrics"]) == {
        "index.topk_s", "scann.rerank_s", "host.ref_ms"}
    assert layers["metrics"]["index.topk_s"]["median"] == pytest.approx(0.02)
    assert layers["metrics"]["host.ref_ms"] == {"median": 8.0, "q1": 7.5, "q3": 8.5, "unit": "ms"}


def test_trace_files_go_together(tmp_path):
    runs = tmp_path / "runs.jsonl"
    runs.write_text(_line(1.0))
    with pytest.raises(SystemExit):
        main(["--label", "x", "--parent-commit", "abc", "--workload", "w", "--seeds", "1",
              "--change", str(runs), "--parent", str(runs), "--change-trace", str(runs)])
