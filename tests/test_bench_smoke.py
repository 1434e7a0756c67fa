"""Smoke runs of the USP benchmark (``perfbench/run.py``) at test scale with
tracing on: every check passes, the spans that attribute the offline
build still attach (eval-forward rows and target time are recorded), the
accuracy sweep runs no search and gathers no candidate lists, and serving
runs through the one online path (candidate gather, then top-k). The
health block's final training losses, read off ``TrainConfig.history``, are
finite."""
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["ens16-online", "hier64-scann-batch"])
def test_traced_smoke_run(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--smoke", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0
    metrics = out["metrics"]
    assert metrics["nn.eval_rows"]["value"] > 0
    assert metrics["core.targets_s"]["value"] > 0
    assert metrics["index.sweep.topk_s"]["value"] == 0
    assert metrics["index.sweep.gather_s"]["value"] == 0
    # Both workloads serve through candidate_ids and topk_within.
    assert metrics["index.gather_s"]["value"] > 0
    assert metrics["index.topk_s"]["value"] > 0
    assert math.isfinite(metrics["health.final_u"]["value"])
    assert math.isfinite(metrics["health.final_s"]["value"])
