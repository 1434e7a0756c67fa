"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench -q

The smoke runs start one process per run, so the whole file takes about
a minute.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

from spans import Tracer, aggregate, coverage, self_times  # noqa: E402


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result(workload: str, trace: int) -> dict:
    p = run(workload, trace)
    assert p.returncode == 0, p.stderr[-4000:]
    return json.loads(p.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_and_repeats(workload):
    plain = [result(workload, 0) for _ in range(2)]
    traced = [result(workload, 1) for _ in range(2)]
    for runs, spec in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        for r in runs:
            assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
            assert {k: v["unit"] for k, v in r["metrics"].items()} == \
                {m["name"]: m["unit"] for m in spec}
    for runs, names in ((plain, ("recall_at_10", "candidates_mean")),
                        (traced, ("knn.rows", "core.probe_rows"))):
        for name in names:
            assert runs[0]["metrics"][name]["value"] == runs[1]["metrics"][name]["value"], name


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = run("ens16-online", 0, cwd=tmp_path)
    assert p.returncode != 0 and p.stdout == ""


def test_self_time_and_coverage():
    spans = [
        ["phase.setup", 0.0, 10.0, -1, None, 0],
        ["knn.matrix", 1.0, 4.0, 0, None, 500],
        ["core.train", 4.0, 9.0, 0, None, 0],
        ["nn.backward", 5.0, 7.0, 2, None, 0],
    ]
    assert self_times(spans) == [2.0, 3.0, 3.0, 2.0]
    agg = aggregate(spans)
    assert agg["phase.setup"]["rows"]["knn.matrix"] == 500
    assert coverage(agg, "phase.setup") == pytest.approx(0.8)


def test_sweep_spans_are_charged_to_sweep_buckets():
    spans = [
        ["phase.sweep", 0.0, 10.0, -1, None, 0],
        ["index.gather", 1.0, 4.0, 0, None, 3],
        ["core.probe", 2.0, 3.0, 1, None, 3],
        ["index.topk", 4.0, 8.0, 0, None, 9],
        ["index.accuracy", 8.0, 9.0, 0, None, 0],
    ]
    sweep = aggregate(spans)["phase.sweep"]
    assert dict(sweep["self"]) == pytest.approx(
        {"index.sweep.gather": 3.0, "index.sweep.topk": 4.0, "index.sweep.accuracy": 3.0})
    assert "core.probe" not in sweep["calls"]


def test_patching_reaches_names_imported_elsewhere():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core import hierarchy
    from repro.knn import exact

    orig = exact.knn_matrix_numpy
    tracer = Tracer()
    tracer.patch_function(exact, "knn_matrix_numpy", "knn.matrix")
    try:
        assert hierarchy.knn_matrix_numpy is not orig
        assert hierarchy.knn_matrix_numpy.__wrapped__ is orig
    finally:
        tracer.uninstall()
    assert hierarchy.knn_matrix_numpy is orig and exact.knn_matrix_numpy is orig
