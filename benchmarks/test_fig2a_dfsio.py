"""Figure 2(a): HDFS block size tuning with DFSIO.

Paper: throughput peaks at a 256 MB block size across 5-20 GB inputs,
which fixes the block size for the whole evaluation.
"""

from repro import paperdata
from repro.common.units import GB, MB
from repro.experiments import fig2a, render_table


def test_fig2a_dfsio_block_size():
    data = fig2a()
    blocks = [64 * MB, 128 * MB, 256 * MB, 512 * MB]
    print("\nFigure 2(a). DFSIO throughput (MB/s) by HDFS block size")
    rows = []
    for total in sorted(data):
        rows.append([f"{total // GB}GB file"]
                    + [f"{data[total][block]:.1f}" for block in blocks])
    print(render_table(["input", "64MB", "128MB", "256MB", "512MB"], rows))

    # Per input size: 256 MB at or near the top, 512 MB regressed —
    # allowing the placement noise visible in the paper's own lines.
    for total in data:
        series = data[total]
        assert series[256 * MB] >= 0.92 * max(series.values())
        assert series[512 * MB] < series[256 * MB] * 1.02
        assert series[64 * MB] < series[256 * MB] * 1.05

    # Averaged over input sizes the ordering is strict: 64 < 128, 256 top,
    # 512 bottom half — the basis for the paper fixing 256 MB.
    means = {
        block: sum(data[total][block] for total in data) / len(data)
        for block in blocks
    }
    assert means[64 * MB] < means[128 * MB]
    assert means[512 * MB] < means[256 * MB]
    assert means[512 * MB] < means[128 * MB]

    means = {
        block: sum(data[total][block] for total in data) / len(data)
        for block in blocks
    }
    assert max(means, key=means.get) == paperdata.FIG2A_BEST_BLOCK
    low, high = paperdata.FIG2A_PEAK_THROUGHPUT_RANGE
    assert low <= means[256 * MB] <= high
