"""Index-side plumbing shared by USP and every baseline: the partition-index
interface, the bin → ids lookup, candidate retrieval, and the
accuracy-vs-candidate-set-size sweep harness (§5.4)."""
