"""Clustering baselines + metrics for the §5.5 comparison (Table 5):
DBSCAN, spectral clustering, and the adjusted Rand index (ARI). Figures are out
of scope, so the comparison is quantitative: agreement with the generating
labels of the sklearn-style toy datasets."""
