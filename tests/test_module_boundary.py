"""Module boundary: Spark lives in ``repro.spark`` (and the DuckDB oracle).
Importing any numpy package of the library must not load pyspark."""
import os
import subprocess
import sys
from pathlib import Path

import repro

NUMPY_PACKAGES = (
    "repro.core", "repro.index", "repro.knn", "repro.baselines",
    "repro.scann", "repro.cluster", "repro.experiments", "repro.synth_data",
)


def test_numpy_packages_do_not_import_pyspark():
    code = "\n".join(
        [f"import {name}" for name in NUMPY_PACKAGES]
        + ["import sys", "assert 'pyspark' not in sys.modules"]
    )
    # A fresh interpreter, since this one has loaded pyspark for the Spark
    # tests; it finds ``repro`` where this one did.
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)
