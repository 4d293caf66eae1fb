"""Streaming-mode workload variants: grep and wordcount over unbounded input.

BigDataBench's text workloads are batch jobs; these variants feed the
same O/A tasks an (in principle unbounded) line stream through
:class:`~repro.datampi.modes.StreamingJob`.  Lines are chunked into
splits, admitted window by window (one round of
:func:`repro.datampi.world.superstep_loop` each), and each window's
counts are flushed with a watermark.  Summing the per-window counts reproduces the batch
result exactly — asserted by the transport-equivalence suite — so the
streaming pipeline is a pure latency/footprint trade, not a different
answer.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from repro.common.errors import WorkloadError
from repro.datampi import DataMPIConf, StorageConfig, StreamingJob, StreamResult
from repro.mpi.transport import Transport


def chunk_lines(lines: Iterable[str], lines_per_split: int) -> Iterator[list[str]]:
    """Group a line stream into splits of at most ``lines_per_split``."""
    if lines_per_split < 1:
        raise WorkloadError(f"lines_per_split must be >= 1, got {lines_per_split}")
    batch: list[str] = []
    for line in lines:
        batch.append(line)
        if len(batch) >= lines_per_split:
            yield batch
            batch = []
    if batch:
        yield batch


def merge_window_counts(result: StreamResult) -> dict[str, int]:
    """Fold per-window ``(key, count)`` outputs into stream totals."""
    totals: dict[str, int] = {}
    for key, count in result.merged_outputs():
        totals[key] = totals.get(key, 0) + count
    return totals


def _streaming_count_job(o_task, job_name: str, parallelism: int,
                         transport: str | Transport | None,
                         window_splits: int | None,
                         storage: StorageConfig | None = None) -> StreamingJob:
    def a_task(ctx):
        return [(key, sum(values)) for key, values in ctx.grouped()]

    return StreamingJob(
        o_task, a_task,
        DataMPIConf(num_o=parallelism, num_a=parallelism,
                    combiner=lambda key, values: sum(values),
                    job_name=job_name, mode="streaming", transport=transport,
                    storage=storage),
        window_splits=window_splits,
    )


def wordcount_streaming(
    lines: Iterable[str],
    parallelism: int = 4,
    lines_per_split: int = 50,
    window_splits: int | None = None,
    transport: str | Transport | None = None,
    storage: StorageConfig | None = None,
) -> StreamResult:
    """WordCount in Streaming mode: per-window counts with watermarks."""

    def o_task(ctx, split):
        for line in split:
            for word in line.split():
                ctx.send(word, 1)

    job = _streaming_count_job(
        o_task, "wordcount-stream", parallelism, transport, window_splits,
        storage=storage,
    )
    return job.run(chunk_lines(lines, lines_per_split))


def grep_streaming(
    lines: Iterable[str],
    pattern: str,
    parallelism: int = 4,
    lines_per_split: int = 50,
    window_splits: int | None = None,
    transport: str | Transport | None = None,
    storage: StorageConfig | None = None,
) -> StreamResult:
    """Grep in Streaming mode: per-window match counts with watermarks."""
    compiled = re.compile(pattern)

    def o_task(ctx, split):
        for line in split:
            for match in compiled.findall(line):
                ctx.send(match, 1)

    job = _streaming_count_job(
        o_task, "grep-stream", parallelism, transport, window_splits,
        storage=storage,
    )
    return job.run(chunk_lines(lines, lines_per_split))
