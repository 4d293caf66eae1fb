"""Figure 6(b): Naive Bayes training pipeline, 8-64 GB.

Paper: "DataMPI has 33% improvement than Hadoop averagely"; Spark is not
compared because BigDataBench lacks a Spark Naive Bayes implementation.
"""

import pytest

from repro import paperdata
from repro.common.errors import WorkloadError
from repro.experiments import mean_improvement, micro_benchmark, sweep_table
from repro.perfmodels import simulate_once


def test_fig6b_naive_bayes():
    series = micro_benchmark("naive_bayes", 3)
    print("\nFigure 6(b). Naive Bayes training time")
    print(sweep_table(series))

    # Only Hadoop and DataMPI, matching the paper.
    assert set(series) == {"hadoop", "datampi"}
    with pytest.raises(WorkloadError):
        simulate_once("spark", "naive_bayes", 8 * 2**30)

    # "33% improvement than Hadoop averagely".
    mean = mean_improvement(series, "hadoop")
    assert mean == pytest.approx(0.33, abs=0.06)

    # DataMPI wins at every size; both scale roughly linearly.
    sizes = sorted(series["hadoop"])
    for size in sizes:
        assert series["datampi"][size].elapsed_sec < series["hadoop"][size].elapsed_sec
    for framework in series:
        times = [series[framework][size].elapsed_sec for size in sizes]
        assert times == sorted(times)
