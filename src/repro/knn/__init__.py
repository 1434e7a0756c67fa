"""Exact k-NN substrate: the paper's only preprocessing is a k'-NN matrix
(§4.2.1); ground-truth neighbors for accuracy evaluation also come from here.
"""
