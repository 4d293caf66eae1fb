"""Figure 3(d): Grep, 8-64 GB.

Paper claims: DataMPI cuts execution time by 33-42 % vs Hadoop and
19-29 % vs Spark.
"""

from repro import paperdata
from repro.common.units import GB
from repro.experiments import improvement_range, micro_benchmark, sweep_table


def test_fig3d_grep():
    series = micro_benchmark("grep", 3)
    print("\nFigure 3(d). Grep job execution time")
    print(sweep_table(series))

    # Ordering at every size: DataMPI < Spark < Hadoop.
    for size in series["hadoop"]:
        d = series["datampi"][size].elapsed_sec
        s = series["spark"][size].elapsed_sec
        h = series["hadoop"][size].elapsed_sec
        assert d < s < h, f"ordering broken at {size}: D={d:.0f} S={s:.0f} H={h:.0f}"

    # Improvement bands.
    low_h, high_h = improvement_range(series, "hadoop")
    paper_low, paper_high = paperdata.IMPROVEMENTS[("grep", "hadoop")]
    assert low_h >= paper_low - 0.05
    assert high_h <= paper_high + 0.05

    low_s, high_s = improvement_range(series, "spark")
    paper_low_s, paper_high_s = paperdata.IMPROVEMENTS[("grep", "spark")]
    assert low_s >= paper_low_s - 0.05
    assert high_s <= paper_high_s + 0.05
