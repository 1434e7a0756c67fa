"""One probe method: every index in ``src/`` implements ``probe_scores``, and
``probe_matrix`` is ``PartitionIndex``'s order of those scores. Only the
classes a tracer wraps by their own ``__dict__`` (the USP index and the
hierarchy) and the ensemble, which rejects unequal bin counts, define
``probe_matrix`` again, each through ``super()``. No index forms per-point
probe ranks through a public method."""
import importlib
import pkgutil

import repro
from repro.core.ensemble import EnsemblePartitioner
from repro.core.hierarchy import HierarchicalPartitioner
from repro.core.partitioner import UnsupervisedSpacePartitioner
from repro.index.base import PartitionIndex
from tests.test_module_boundary import NUMPY_PACKAGES


def _subclasses() -> set[type]:
    """Every ``PartitionIndex`` subclass defined in ``repro``."""
    for m in pkgutil.walk_packages(repro.__path__, "repro."):
        if m.name.startswith(NUMPY_PACKAGES):
            importlib.import_module(m.name)
    out, todo = set(), [PartitionIndex]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("repro.") and sub not in out:
                out.add(sub)
                todo.append(sub)
    return out


def test_every_index_scores():
    classes = _subclasses()
    assert {UnsupervisedSpacePartitioner, EnsemblePartitioner} <= classes
    for cls in classes:
        assert cls.probe_scores is not PartitionIndex.probe_scores, cls


def test_one_probe_matrix():
    kept = {PartitionIndex, UnsupervisedSpacePartitioner, HierarchicalPartitioner,
            EnsemblePartitioner}
    classes = _subclasses() | {PartitionIndex}
    assert {cls for cls in classes if "probe_matrix" in vars(cls)} == kept
    assert not [cls for cls in classes if "probe_ranks" in vars(cls)]
