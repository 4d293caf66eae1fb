"""Figure 3(a): Normal Sort (compressed sequence input), 4-32 GB.

Paper claims: DataMPI improves on Hadoop by 29-33 %; Spark fails with
OutOfMemoryError at every size.
"""

import pytest

from repro import paperdata
from repro.common.units import GB
from repro.experiments import improvement_range, micro_benchmark, sweep_table


def test_fig3a_normal_sort():
    series = micro_benchmark("normal_sort", 3)
    print("\nFigure 3(a). Normal Sort job execution time")
    print(sweep_table(series))

    # Spark OOMs at every size (Section 4.3).
    assert paperdata.SPARK_NORMAL_SORT_ALWAYS_FAILS
    for size, run in series["spark"].items():
        assert run.failed, f"Spark should OOM at {size}"

    # DataMPI beats Hadoop at every size, within the paper's band (+/-).
    low, high = improvement_range(series, "hadoop")
    paper_low, paper_high = paperdata.IMPROVEMENTS[("normal_sort", "hadoop")]
    assert low >= paper_low - 0.06
    assert high <= paper_high + 0.13

    # Scaling shape: 8x the data costs Hadoop close to 4x-8x the time
    # (sub-linear only through fixed-overhead amortization at 4 GB; our
    # simulator underestimates the paper's superlinear growth at 32 GB —
    # see EXPERIMENTS.md, written by `python scripts/make_experiments_md.py`
    # and not committed).
    hadoop = series["hadoop"]
    assert hadoop[32 * GB].elapsed_sec > 3.5 * hadoop[8 * GB].elapsed_sec
    assert hadoop[32 * GB].elapsed_sec > 4.5 * hadoop[4 * GB].elapsed_sec

    # Note: our simulated absolutes run below the paper's chart values for
    # this workload (see EXPERIMENTS.md, written by
    # `python scripts/make_experiments_md.py` and not committed); the ratios
    # are the claim tested.
    for size in series["hadoop"]:
        assert series["datampi"][size].elapsed_sec < series["hadoop"][size].elapsed_sec
