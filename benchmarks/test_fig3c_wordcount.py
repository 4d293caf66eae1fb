"""Figure 3(c): WordCount, 8-64 GB.

Paper claims: DataMPI and Spark have similar performance, both 47-55 %
faster than Hadoop; the 32 GB case is 275 s (Hadoop) vs 130 s (D/S).
"""

import pytest

from repro import paperdata
from repro.common.units import GB
from repro.experiments import improvement_range, micro_benchmark, sweep_table


def test_fig3c_wordcount():
    series = micro_benchmark("wordcount", 3)
    print("\nFigure 3(c). WordCount job execution time")
    print(sweep_table(series))

    # Stated 32 GB values.
    for framework, paper_sec in paperdata.WORDCOUNT_32GB_SEC.items():
        run = series[framework][32 * GB]
        assert run.elapsed_sec == pytest.approx(paper_sec, rel=0.15), framework

    # DataMPI ~ Spark at every size.
    for size in series["datampi"]:
        ratio = series["datampi"][size].elapsed_sec / series["spark"][size].elapsed_sec
        assert 0.8 < ratio < 1.25, f"D/S ratio {ratio:.2f} at {size}"

    # Improvement band vs Hadoop.
    low, high = improvement_range(series, "hadoop")
    paper_low, paper_high = paperdata.IMPROVEMENTS[("wordcount", "hadoop")]
    assert low >= paper_low - 0.04
    assert high <= paper_high + 0.04

    # Linear scaling (no superlinear blowup for an aggregation workload).
    hadoop = series["hadoop"]
    growth = hadoop[64 * GB].elapsed_sec / hadoop[8 * GB].elapsed_sec
    assert 5.5 < growth < 9.5
