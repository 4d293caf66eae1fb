"""Figure 3(b): Text Sort, 8-64 GB.

Paper claims: DataMPI 34-42 % faster than Hadoop; the 8 GB case runs in
69 s (DataMPI) vs 117 s (Hadoop) vs 114 s (Spark); Spark OOMs above 8 GB.
"""

import pytest

from repro import paperdata
from repro.common.units import GB
from repro.experiments import improvement_range, micro_benchmark, sweep_table


def test_fig3b_text_sort():
    series = micro_benchmark("text_sort", 3)
    print("\nFigure 3(b). Text Sort job execution time")
    print(sweep_table(series))

    # Stated absolute times for the 8 GB case (within 15 %).
    for framework, paper_sec in paperdata.TEXT_SORT_8GB_SEC.items():
        run = series[framework][8 * GB]
        assert run.succeeded
        assert run.elapsed_sec == pytest.approx(paper_sec, rel=0.15), framework

    # Spark OOM boundary: 8 GB runs, 16+ fails.
    assert series["spark"][8 * GB].succeeded
    for size in (16 * GB, 32 * GB, 64 * GB):
        assert series["spark"][size].failed

    # Improvement band vs Hadoop.
    low, high = improvement_range(series, "hadoop")
    paper_low, paper_high = paperdata.IMPROVEMENTS[("text_sort", "hadoop")]
    assert low >= paper_low - 0.04
    assert high <= paper_high + 0.04

    # vs Spark at 8 GB: "39% faster than 114 seconds in Spark".
    improvement = paperdata.improvement(
        series["spark"][8 * GB].elapsed_sec, series["datampi"][8 * GB].elapsed_sec
    )
    assert improvement == pytest.approx(0.39, abs=0.10)
