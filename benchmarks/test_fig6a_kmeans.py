"""Figure 6(a): K-means (first training iteration), 8-64 GB.

Paper: DataMPI shows at most 39 % improvement over Hadoop and at most
33 % over Spark (first iteration, including data loading).
"""

from repro import paperdata
from repro.experiments import improvement_range, micro_benchmark, sweep_table


def test_fig6a_kmeans():
    series = micro_benchmark("kmeans", 3)
    print("\nFigure 6(a). K-means first-iteration time")
    print(sweep_table(series))

    # All frameworks complete at every size (no OOM for cached RDDs).
    for framework in series:
        for run in series[framework].values():
            assert run.succeeded, framework

    # Ordering: DataMPI < Spark < Hadoop at every size.
    for size in series["hadoop"]:
        assert (series["datampi"][size].elapsed_sec
                < series["spark"][size].elapsed_sec
                < series["hadoop"][size].elapsed_sec)

    # "At most 39% improvement than Hadoop".
    low_h, high_h = improvement_range(series, "hadoop")
    assert high_h <= paperdata.IMPROVEMENTS[("kmeans", "hadoop")][1] + 0.04
    assert low_h >= 0.25  # still a solid win at every size

    # "At most 33% improvement than Spark".
    low_s, high_s = improvement_range(series, "spark")
    assert high_s <= paperdata.IMPROVEMENTS[("kmeans", "spark")][1] + 0.04
    assert low_s >= 0.10
