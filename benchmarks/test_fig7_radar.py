"""Figure 7: the seven-pronged evaluation summary.

Paper (Section 4.7): vs Hadoop, DataMPI averages 40 % (micro), 54 %
(small jobs) and 36 % (applications); vs Spark, 14 % (micro) and 33 %
(applications).  Average CPU utilizations are 35/34/59 % (D/S/H), and
DataMPI's network throughput is 55 %/59 % above Spark/Hadoop.
"""

import pytest

from repro import paperdata
from repro.experiments import AXES, compute_radar, render_table


def test_fig7_seven_pronged_summary():
    radar = compute_radar(1)
    print("\nFigure 7. Normalized evaluation results (1.0 = best per axis)")
    rows = [
        [axis] + [f"{radar.scores[axis][fw]:.2f}" for fw in ("hadoop", "spark", "datampi")]
        for axis in AXES
    ]
    print(render_table(["axis", "hadoop", "spark", "datampi"], rows))
    imp = radar.improvements
    print(f"\nmicro vs hadoop: {imp['micro_vs_hadoop']:.0%}  (paper 40%)")
    print(f"micro vs spark:  {imp['micro_vs_spark']:.0%}  (paper 14%)")
    print(f"small vs hadoop: {imp['small_vs_hadoop']:.0%}  (paper 54%)")
    print(f"app vs hadoop:   {imp['app_vs_hadoop']:.0%}  (paper 36%)")
    print(f"net vs hadoop:   {imp['net_vs_hadoop']:+.0%}  (paper +59%)")
    print(f"net vs spark:    {imp['net_vs_spark']:+.0%}  (paper +55%)")
    print(
        "cpu avg: D {cpu_pct_datampi:.0f}% S {cpu_pct_spark:.0f}% "
        "H {cpu_pct_hadoop:.0f}%  (paper 35/34/59)".format(**imp)
    )

    # Headline improvements.
    assert imp["micro_vs_hadoop"] == pytest.approx(
        paperdata.MICRO_AVG_IMPROVEMENT["hadoop"], abs=0.08
    )
    assert imp["micro_vs_spark"] == pytest.approx(
        paperdata.MICRO_AVG_IMPROVEMENT["spark"], abs=0.12
    )
    assert imp["small_vs_hadoop"] == pytest.approx(
        paperdata.SMALL_JOB_IMPROVEMENT_VS_HADOOP, abs=0.10
    )
    assert imp["app_vs_hadoop"] == pytest.approx(
        paperdata.APP_AVG_IMPROVEMENT["hadoop"], abs=0.08
    )
    assert imp["net_vs_hadoop"] == pytest.approx(
        paperdata.FIG7_NET_IMPROVEMENT["hadoop"], abs=0.35
    )

    # CPU efficiency: D ~ S, H much higher for the same work.
    assert imp["cpu_pct_hadoop"] > 1.4 * imp["cpu_pct_datampi"]

    # DataMPI leads or ties on every axis of the radar.
    for axis in ("micro_benchmark", "small_job", "application",
                 "network", "memory_efficiency"):
        assert radar.scores[axis]["datampi"] >= 0.95, axis
    for axis in ("cpu_efficiency", "disk_io"):
        assert radar.scores[axis]["datampi"] >= 0.70, axis

    # Hadoop trails on all three performance axes.
    for axis in ("micro_benchmark", "small_job", "application"):
        assert radar.scores[axis]["hadoop"] < radar.scores[axis]["datampi"]
