"""Benchmark + reproduction of Table 3 (offline training time + η).

Measures the wall clock of each of the four paper configurations
``table3.REPEATS`` times inside one ``table3.run`` call (pedantic: one
round), records the median and min–max spread, and checks the paper's
orderings on the medians.
"""
from repro.experiments import table3
from repro.experiments.common import markdown_table


def test_table3_training_times(benchmark, results_dir):
    df = benchmark.pedantic(
        lambda: table3.run(scale="bench", epochs=25), rounds=1, iterations=1
    )
    (results_dir / "table3.md").write_text(markdown_table(df, floatfmt="{:.2f}"))
    t = df.set_index(["dataset", "bins"])["measured_seconds"]
    # Paper's shape, on the medians: 256 bins costs more than 16 on both
    # datasets, and SIFT (larger n) costs more than MNIST at equal bins.
    assert t[("MNIST", 256)] > t[("MNIST", 16)]
    assert t[("SIFT", 256)] > t[("SIFT", 16)]
    assert t[("SIFT", 16)] > t[("MNIST", 16)]
