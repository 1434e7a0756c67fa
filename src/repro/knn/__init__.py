"""Exact k-NN substrate: the paper's only preprocessing is a k'-NN matrix
(§4.2.1); ground-truth neighbors for accuracy evaluation also come from here.
"""
from repro.knn.exact import knn_matrix_numpy, topk_neighbors
from repro.knn.metrics import knn_accuracy

__all__ = ["knn_matrix_numpy", "topk_neighbors", "knn_accuracy"]
