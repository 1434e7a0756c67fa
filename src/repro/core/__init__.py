"""The paper's contribution: unsupervised space partitioning (USP).

- :mod:`repro.core.loss` — the custom two-part loss (Eq. 5/10/13) + gradients
- :mod:`repro.core.train` — mini-batch training loop (Algorithm 1, Step 2)
- :mod:`repro.core.hierarchy` — the one USP fit, m1×m2×… partitioning (§4.4.2)
- :mod:`repro.core.partitioner` — a flat USP index, the one-level hierarchy
- :mod:`repro.core.ensemble` — AdaBoost-style ensembling (Algorithms 3–4)
"""
