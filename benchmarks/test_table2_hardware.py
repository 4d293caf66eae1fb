"""Table 2: the testbed hardware configuration."""

from repro.cluster import ClusterSpec
from repro.experiments import render_table, table2


def test_table2_hardware():
    rows = table2()
    print("\nTable 2. Details of Hardware Configuration")
    print(render_table(["Item", "Value"], rows))
    values = dict(rows)
    assert values["CPU type"] == "Intel Xeon E5620"
    assert values["# sockets"] == "2"
    assert values["Memory"] == "16 GB"
    assert values["Disk"] == "150GB free SATA disk"
    spec = ClusterSpec.paper_testbed()
    assert spec.nodes == 8
    assert spec.node.hardware_threads == 16
