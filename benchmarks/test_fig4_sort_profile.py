"""Figure 4(a-d): resource utilization of the 8 GB Text Sort case.

Paper (Section 4.4): CPU averages 24/38/37 % (D/S/H) with wait-I/O
6/12/15 %; disk reads during the O/Map/Stage-0 phase are ~50/46/49 MB/s;
DataMPI's network throughput is ~55-59 % above the other two; memory
averages 5/9/5 GB (D/S/H).
"""

import pytest

from repro import paperdata
from repro.experiments import fig4_sort, profile_table


def test_fig4_sort_resource_profile():
    profiles = fig4_sort()
    print("\nFigure 4(a-d). Resource utilization of 8GB Text Sort")
    print(profile_table(profiles))

    spro = paperdata.SORT_PROFILE

    # CPU utilization averages (paper: D 24, S 38, H 37).
    for framework in ("hadoop", "spark", "datampi"):
        assert profiles[framework].cpu_pct == pytest.approx(
            spro["cpu_pct"][framework], rel=0.40
        ), framework
    # DataMPI uses the least CPU.
    assert profiles["datampi"].cpu_pct < profiles["hadoop"].cpu_pct
    assert profiles["datampi"].cpu_pct < profiles["spark"].cpu_pct

    # Wait-I/O ordering: D < S <= H (paper: 6 < 12 < 15).
    assert (profiles["datampi"].iowait_pct
            < profiles["spark"].iowait_pct
            <= profiles["hadoop"].iowait_pct * 1.15)

    # Disk reads during the load phase are similar across frameworks.
    reads = [profiles[fw].disk_read_phase_mbps for fw in profiles]
    assert max(reads) / min(reads) < 2.0

    # Disk writes are similar across frameworks (paper: 69/66/67).
    writes = [profiles[fw].disk_write_mbps for fw in profiles]
    assert max(writes) / min(writes) < 1.6

    # Network: DataMPI ~59 % over Hadoop, ~55 % over Spark (ratios).
    net = {fw: profiles[fw].net_mbps for fw in profiles}
    assert net["datampi"] / net["hadoop"] == pytest.approx(1.59, abs=0.40)
    assert net["datampi"] / net["spark"] == pytest.approx(1.55, abs=0.40)

    # Memory: Spark highest (9 GB), D/H around 5 GB.
    assert profiles["spark"].mem_gb > profiles["hadoop"].mem_gb
    assert profiles["spark"].mem_gb > profiles["datampi"].mem_gb
    for framework in ("hadoop", "datampi"):
        assert profiles[framework].mem_gb == pytest.approx(5.0, rel=0.35)

    # Time series exist at 1-second granularity for plotting.
    for framework in profiles:
        assert len(profiles[framework].series["net_in_mbps"]) >= 50
