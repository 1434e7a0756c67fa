"""Experiment harnesses — one module per evaluation table (Tables 2–5) plus
the figure-shaped sweeps (Figs. 5–7) whose curves Table 4 and the ScaNN
speedup claim are read from. Each module's ``run(...)`` returns result
frames; ``table4.run`` takes the ``figures.fig5`` frame it reads. The
benches in ``benchmarks/`` call them and write ``benchmarks/results/``."""
