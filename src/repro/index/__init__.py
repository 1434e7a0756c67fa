"""Index-side plumbing shared by USP and every baseline: the partition-index
interface, the bin → ids lookup, candidate retrieval, and the
accuracy-vs-candidate-set-size sweep harness (§5.4)."""
from repro.index.base import PartitionIndex
from repro.index.search import sweep_accuracy, candidate_size_at_accuracy

__all__ = [
    "PartitionIndex",
    "sweep_accuracy",
    "candidate_size_at_accuracy",
]
