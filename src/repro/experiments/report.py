"""Rendering helpers: figure data -> text tables and markdown.

Used by the benchmarks (to print the rows each figure reports) and by
``python scripts/make_experiments_md.py`` (which writes EXPERIMENTS.md,
a file that is not committed).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.common.units import GB, format_size
from repro.paperdata import improvement
from repro.perfmodels.runner import AveragedRun


def render_table(headers: list[str], rows: Iterable[Iterable[object]]) -> str:
    """Plain-text table with column alignment."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def fmt(row):
        return "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
    lines = [fmt(headers), fmt(["-" * width for width in widths])]
    lines.extend(fmt(row) for row in materialized)
    return "\n".join(lines)


def sweep_rows(series: Mapping[str, Mapping[int, AveragedRun]]) -> list[list[str]]:
    """Rows for a Figure 3/6 sweep: size, per-framework seconds, improvement."""
    frameworks = [fw for fw in ("hadoop", "spark", "datampi") if fw in series]
    sizes = sorted(next(iter(series.values())).keys())
    rows = []
    for size in sizes:
        row: list[str] = [format_size(size)]
        for framework in frameworks:
            run = series[framework].get(size)
            if run is None:
                row.append("-")
            elif run.failed:
                row.append("OOM")
            else:
                row.append(f"{run.elapsed_sec:.0f}s")
        hadoop = series.get("hadoop", {}).get(size)
        datampi = series.get("datampi", {}).get(size)
        if hadoop and datampi and hadoop.succeeded and datampi.succeeded:
            row.append(f"{100 * improvement(hadoop.elapsed_sec, datampi.elapsed_sec):.0f}%")
        else:
            row.append("-")
        rows.append(row)
    return rows


def sweep_table(series: Mapping[str, Mapping[int, AveragedRun]]) -> str:
    frameworks = [fw for fw in ("hadoop", "spark", "datampi") if fw in series]
    headers = ["size"] + frameworks + ["DataMPI vs Hadoop"]
    return render_table(headers, sweep_rows(series))


def improvement_range(series: Mapping[str, Mapping[int, AveragedRun]],
                      baseline: str = "hadoop") -> tuple[float, float]:
    """(min, max) DataMPI improvement over ``baseline`` across the sweep."""
    values = []
    for size, run in series[baseline].items():
        datampi = series["datampi"].get(size)
        if datampi is None or run.failed or datampi.failed:
            continue
        values.append(improvement(run.elapsed_sec, datampi.elapsed_sec))
    if not values:
        raise ValueError(f"no comparable points against {baseline}")
    return min(values), max(values)


def mean_improvement(series: Mapping[str, Mapping[int, AveragedRun]],
                     baseline: str = "hadoop") -> float:
    low, high = improvement_range(series, baseline)
    values = []
    for size, run in series[baseline].items():
        datampi = series["datampi"].get(size)
        if datampi is None or run.failed or datampi.failed:
            continue
        values.append(improvement(run.elapsed_sec, datampi.elapsed_sec))
    return sum(values) / len(values)


def profile_rows(profiles) -> list[list[str]]:
    """Rows for a Figure 4 panel comparison."""
    rows = []
    for framework in ("hadoop", "spark", "datampi"):
        profile = profiles[framework]
        rows.append([
            framework,
            f"{profile.elapsed_sec:.0f}s",
            f"{profile.cpu_pct:.0f}%",
            f"{profile.iowait_pct:.0f}%",
            f"{profile.disk_read_phase_mbps:.0f}",
            f"{profile.disk_write_mbps:.0f}",
            f"{profile.net_mbps:.0f}",
            f"{profile.mem_gb:.1f}",
        ])
    return rows


def profile_table(profiles) -> str:
    headers = ["framework", "time", "cpu", "iowait",
               "read MB/s (phase)", "write MB/s", "net MB/s", "mem GB"]
    return render_table(headers, profile_rows(profiles))
