"""Every quantitative claim in the paper, in one place.

Two provenance levels:

* ``stated`` — numbers written in the paper's prose (exact targets);
* ``chart`` — values read off the figures by eye (approximate targets;
  the benchmarks compare shapes and ratios against these, not absolutes).

The benchmark harness (one bench per table/figure) compares the simulated
results against these values, and EXPERIMENTS.md records the outcome
(written by ``python scripts/make_experiments_md.py``; not committed).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.units import GB, MB

# ---------------------------------------------------------------------------
# Stated job execution times (seconds) — Section 4.3 / 4.4 prose.
# ---------------------------------------------------------------------------

TEXT_SORT_8GB_SEC = {"hadoop": 117.0, "spark": 114.0, "datampi": 69.0}

#: Phase breakdown of the 8 GB Text Sort case (Section 4.4).
TEXT_SORT_8GB_PHASES = {
    "datampi_o_phase": 28.0,
    "hadoop_map_phase": 36.0,
    "spark_stage0": 38.0,
}

WORDCOUNT_32GB_SEC = {"hadoop": 275.0, "spark": 130.0, "datampi": 130.0}

# ---------------------------------------------------------------------------
# Stated improvement ranges (fraction of baseline time saved by DataMPI).
# ---------------------------------------------------------------------------

IMPROVEMENTS = {
    # (workload, baseline): (low, high) fraction
    ("normal_sort", "hadoop"): (0.29, 0.33),
    ("text_sort", "hadoop"): (0.34, 0.42),
    ("wordcount", "hadoop"): (0.47, 0.55),
    ("grep", "hadoop"): (0.33, 0.42),
    ("grep", "spark"): (0.19, 0.29),
    ("kmeans", "hadoop"): (0.0, 0.39),   # "at most 39% improvement"
    ("kmeans", "spark"): (0.0, 0.33),    # "at most 33% improvement"
    ("naive_bayes", "hadoop"): (0.25, 0.42),  # "33% on average"
}

#: Micro-benchmark averages (Section 4.3 closing): 40 % vs Hadoop, 14 % vs Spark.
MICRO_AVG_IMPROVEMENT = {"hadoop": 0.40, "spark": 0.14}

#: Small jobs (Section 4.5): DataMPI ~ Spark, ~54 % faster than Hadoop.
SMALL_JOB_IMPROVEMENT_VS_HADOOP = 0.54

#: Application average (Section 4.7): 36 % vs Hadoop, 33 % vs Spark.
APP_AVG_IMPROVEMENT = {"hadoop": 0.36, "spark": 0.33}

# ---------------------------------------------------------------------------
# Stated resource-utilization averages (Section 4.4).
# ---------------------------------------------------------------------------

#: 8 GB Text Sort, averaged over 0-117 s.
SORT_PROFILE = {
    "cpu_pct": {"datampi": 24.0, "spark": 38.0, "hadoop": 37.0},
    "iowait_pct": {"datampi": 6.0, "spark": 12.0, "hadoop": 15.0},
    # Disk throughput during the O / Map / Stage-0 phase (MB/s per node).
    "disk_read_phase_mbps": {"datampi": 50.0, "hadoop": 49.0, "spark": 46.0},
    "disk_write_mbps": {"datampi": 69.0, "hadoop": 67.0, "spark": 66.0},
    "net_mbps": {"datampi": 62.0, "hadoop": 39.0, "spark": 40.0},
    "mem_gb": {"datampi": 5.0, "spark": 9.0, "hadoop": 5.0},
}

#: 32 GB WordCount, averaged over 0-275 s.
WORDCOUNT_PROFILE = {
    "cpu_pct": {"datampi": 47.0, "spark": 30.0, "hadoop": 80.0},
    "iowait_pct": {"spark": 8.0},
    "disk_read_mbps": {"datampi": 44.0, "spark": 44.0, "hadoop": 20.0},
    "net_mbps": {"spark": 25.0, "datampi": 2.0, "hadoop": 2.0},  # D/H "few"
    "mem_gb": {"datampi": 5.0, "spark": 5.0, "hadoop": 9.0},
}

# ---------------------------------------------------------------------------
# Figure 7 aggregates (Section 4.7).
# ---------------------------------------------------------------------------

FIG7_CPU_UTIL_PCT = {"datampi": 35.0, "spark": 34.0, "hadoop": 59.0}
FIG7_DISK_IMPROVEMENT_VS_HADOOP = 0.49      # DataMPI & Spark vs Hadoop
FIG7_NET_IMPROVEMENT = {"spark": 0.55, "hadoop": 0.59}  # DataMPI vs each

# ---------------------------------------------------------------------------
# Chart-read series (approximate; source: figures).
# Values in seconds, keyed by input size in bytes.
# ---------------------------------------------------------------------------


def _series(sizes_gb, values):
    return {int(size * GB): value for size, value in zip(sizes_gb, values)}


FIG3A_NORMAL_SORT = {
    "hadoop": _series([4, 8, 16, 32], [300, 620, 1300, 2600]),
    "datampi": _series([4, 8, 16, 32], [205, 430, 900, 1780]),
}

FIG3B_TEXT_SORT = {
    "hadoop": _series([8, 16, 32, 64], [117, 240, 520, 1150]),
    "spark": _series([8], [114]),  # OOM above 8 GB
    "datampi": _series([8, 16, 32, 64], [69, 145, 320, 700]),
}

FIG3C_WORDCOUNT = {
    "hadoop": _series([8, 16, 32, 64], [70, 140, 275, 560]),
    "spark": _series([8, 16, 32, 64], [35, 67, 130, 270]),
    "datampi": _series([8, 16, 32, 64], [35, 66, 130, 265]),
}

FIG3D_GREP = {
    "hadoop": _series([8, 16, 32, 64], [32, 60, 115, 225]),
    "spark": _series([8, 16, 32, 64], [25, 47, 88, 175]),
    "datampi": _series([8, 16, 32, 64], [19, 36, 68, 132]),
}

#: Figure 5 small jobs (128 MB input, one task/worker per node), seconds.
FIG5_SMALL_JOBS = {
    "text_sort": {"hadoop": 38.0, "spark": 17.0, "datampi": 16.0},
    "wordcount": {"hadoop": 35.0, "spark": 15.0, "datampi": 14.0},
    "grep": {"hadoop": 33.0, "spark": 15.0, "datampi": 14.0},
}

FIG6A_KMEANS = {
    "hadoop": _series([8, 16, 32, 64], [55, 105, 215, 430]),
    "spark": _series([8, 16, 32, 64], [50, 97, 200, 400]),
    "datampi": _series([8, 16, 32, 64], [36, 70, 140, 280]),
}

FIG6B_NAIVE_BAYES = {
    "hadoop": _series([8, 16, 32, 64], [130, 265, 530, 1060]),
    "datampi": _series([8, 16, 32, 64], [87, 177, 355, 710]),
}

#: Figure 2(a): DFSIO throughput peaks at 256 MB blocks (chart ~20-28 MB/s).
FIG2A_BEST_BLOCK = 256 * MB
FIG2A_PEAK_THROUGHPUT_RANGE = (20.0, 32.0)

#: Figure 2(b): all systems peak at 4 tasks / workers per node.
FIG2B_BEST_SLOTS = 4

#: Spark OOM behaviour (Section 4.3).
SPARK_TEXT_SORT_MAX_OK = 8 * GB      # fails above this
SPARK_NORMAL_SORT_ALWAYS_FAILS = True


@dataclass(frozen=True)
class Claim:
    """A checkable claim for the EXPERIMENTS.md report, which
    ``python scripts/make_experiments_md.py`` writes (not committed)."""

    experiment: str
    description: str
    paper_value: float
    measured_value: float
    tolerance: float

    @property
    def relative_error(self) -> float:
        if self.paper_value == 0:
            return abs(self.measured_value)
        return abs(self.measured_value - self.paper_value) / abs(self.paper_value)

    @property
    def within_tolerance(self) -> bool:
        return self.relative_error <= self.tolerance


def improvement(baseline_sec: float, datampi_sec: float) -> float:
    """Fractional time saved by DataMPI relative to a baseline."""
    if baseline_sec <= 0:
        raise ValueError(f"baseline must be positive, got {baseline_sec}")
    return 1.0 - datampi_sec / baseline_sec
