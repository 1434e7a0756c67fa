"""Module boundary: Spark lives in ``repro.spark`` (and the DuckDB oracle).
Importing any module of the numpy packages of the library must not load
pyspark."""
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import repro

NUMPY_PACKAGES = (
    "repro.core", "repro.index", "repro.knn", "repro.nn", "repro.baselines",
    "repro.scann", "repro.cluster", "repro.experiments", "repro.synth_data",
)


def test_numpy_packages_do_not_import_pyspark():
    src = str(Path(repro.__file__).resolve().parents[1])
    modules = [m.name for m in pkgutil.walk_packages([str(Path(src) / "repro")], "repro.")
               if m.name.startswith(NUMPY_PACKAGES)]
    assert "repro.index.tree" in modules and "repro.core.ensemble" in modules
    code = "\n".join(
        [f"import {name}" for name in modules]
        + ["import sys", "assert 'pyspark' not in sys.modules"]
    )
    # A fresh interpreter, since this one has loaded pyspark for the Spark
    # tests; it finds ``repro`` where this one did.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)
