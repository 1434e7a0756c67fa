"""Minimal numpy neural-network substrate (PyTorch stand-in).

The paper trains its partitioning models with PyTorch; no deep-learning
framework is installed offline, so this package implements the exact pieces
the paper's architectures need — Linear, BatchNorm1d, ReLU, Dropout, softmax,
Glorot init, manual backprop, and Adam — on numpy.
"""
