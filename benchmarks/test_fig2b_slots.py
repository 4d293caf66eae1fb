"""Figure 2(b): tasks/workers per node tuning with Text Sort.

Paper: all three systems peak at 4 concurrent tasks/workers per node
(1 GB per Hadoop/DataMPI task, 128 MB per Spark worker).
"""

from repro import paperdata
from repro.experiments import fig2b, render_table


def test_fig2b_slots_tuning():
    data = fig2b(executions=3)
    print("\nFigure 2(b). Text Sort throughput (MB/s) vs tasks/workers per node")
    rows = [
        [framework] + [f"{data[framework][slots]:.1f}" for slots in (2, 4, 6)]
        for framework in ("hadoop", "spark", "datampi")
    ]
    print(render_table(["framework", "2", "4", "6"], rows))

    for framework, by_slots in data.items():
        best = max(by_slots, key=by_slots.get)
        assert best == paperdata.FIG2B_BEST_SLOTS, (
            f"{framework} peaked at {best} tasks/node, paper says 4"
        )
    # DataMPI clears the highest throughput at the chosen configuration.
    assert data["datampi"][4] > data["hadoop"][4]
    assert data["datampi"][4] > data["spark"][4]
