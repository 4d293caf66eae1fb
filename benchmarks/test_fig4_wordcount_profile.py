"""Figure 4(e-h): resource utilization of the 32 GB WordCount case.

Paper (Section 4.4): CPU averages 47/30/80 % (D/S/H); disk reads are
~44 MB/s for DataMPI/Spark vs ~20 MB/s for Hadoop; DataMPI and Hadoop
move almost nothing over the network while Spark shows ~25 MB/s; memory
averages 5/5/9 GB (D/S/H).
"""

import pytest

from repro import paperdata
from repro.experiments import fig4_wordcount, profile_table


def test_fig4_wordcount_resource_profile():
    profiles = fig4_wordcount()
    print("\nFigure 4(e-h). Resource utilization of 32GB WordCount")
    print(profile_table(profiles))

    wpro = paperdata.WORDCOUNT_PROFILE

    # Hadoop is CPU-bound (paper: 80 %).
    assert profiles["hadoop"].cpu_pct > 70.0
    for framework in ("hadoop", "spark", "datampi"):
        assert profiles[framework].cpu_pct == pytest.approx(
            wpro["cpu_pct"][framework], rel=0.30
        ), framework

    # Disk read efficiency: D/S read more than twice as fast as Hadoop.
    assert profiles["hadoop"].disk_read_mbps < 0.6 * profiles["datampi"].disk_read_mbps
    assert profiles["hadoop"].disk_read_mbps < 0.6 * profiles["spark"].disk_read_mbps

    # Network: D and H negligible; Spark visible (locality misses).
    assert profiles["datampi"].net_mbps < 6.0
    assert profiles["hadoop"].net_mbps < 6.0
    assert profiles["spark"].net_mbps > 10.0

    # Memory: Hadoop highest (9 GB), D/S around 5 GB.
    assert profiles["hadoop"].mem_gb > profiles["datampi"].mem_gb
    assert profiles["hadoop"].mem_gb > profiles["spark"].mem_gb
    assert profiles["hadoop"].mem_gb == pytest.approx(
        wpro["mem_gb"]["hadoop"], rel=0.30
    )
    for framework in ("spark", "datampi"):
        assert profiles[framework].mem_gb == pytest.approx(5.0, rel=0.30)
