"""Minimal numpy neural-network substrate (PyTorch stand-in).

The paper trains its partitioning models with PyTorch; no deep-learning
framework is installed offline, so this package implements the exact pieces
the paper's architectures need on numpy: an :class:`~repro.nn.model.MLP`
whose weights are arrays with a leading model axis (Linear, BatchNorm, ReLU
and Dropout inlined in one train forward, its manual backprop and one eval
forward), softmax, Glorot init and Adam.
"""
