"""Figure 5: small jobs (128 MB input, one task/worker per node).

Paper: "DataMPI has similar performance with Spark, and is averagely 54%
more efficient than Hadoop" — framework startup overhead dominates tiny
jobs, and Hadoop's JobTracker/JVM machinery pays the most.
"""

import pytest

from repro import paperdata
from repro.experiments import fig5, render_table


def test_fig5_small_jobs():
    data = fig5(3)
    print("\nFigure 5. Small job execution time (128MB input)")
    rows = [
        [workload] + [f"{data[workload][fw]:.1f}s" for fw in ("hadoop", "spark", "datampi")]
        for workload in ("text_sort", "wordcount", "grep")
    ]
    print(render_table(["workload", "hadoop", "spark", "datampi"], rows))

    for workload, by_framework in data.items():
        # Hadoop pays by far the most overhead.
        assert by_framework["hadoop"] > 1.6 * by_framework["datampi"], workload
        # DataMPI ~ Spark ("similar performance").
        ratio = by_framework["datampi"] / by_framework["spark"]
        assert 0.5 < ratio < 1.3, f"{workload}: D/S ratio {ratio:.2f}"

    improvements = [
        1.0 - data[w]["datampi"] / data[w]["hadoop"] for w in data
    ]
    mean_improvement = sum(improvements) / len(improvements)
    assert mean_improvement == pytest.approx(
        paperdata.SMALL_JOB_IMPROVEMENT_VS_HADOOP, abs=0.10
    )
