"""Grep on all three engines.

"Grep searches strings conforming to a certain pattern in the input
documents and counts the number of the occurrence of the matched
strings" (Section 3.1).  Output is ``{matched string: occurrences}`` —
the per-matched-string counting Hadoop's grep example produces.
"""

from __future__ import annotations

import re
from typing import Sequence

from repro.datampi import DataMPIConf, DataMPIJob, StorageConfig
from repro.hadoop import HadoopConf, MapReduceJob
from repro.mpi.transport import Transport
from repro.spark import SparkContext


def grep_reference(lines: Sequence[str], pattern: str) -> dict[str, int]:
    compiled = re.compile(pattern)
    counts: dict[str, int] = {}
    for line in lines:
        for match in compiled.findall(line):
            counts[match] = counts.get(match, 0) + 1
    return counts


def grep_hadoop_job(pattern: str, parallelism: int = 4) -> MapReduceJob:
    """Grep on the functional MapReduce engine (combiner enabled)."""
    compiled = re.compile(pattern)

    def mapper(_offset, line):
        for match in compiled.findall(line):
            yield match, 1

    def reducer(match, counts):
        yield match, sum(counts)

    return MapReduceJob(
        mapper, reducer,
        HadoopConf(num_reduces=parallelism, combiner=lambda m, cs: sum(cs),
                   job_name="grep"),
    )


def grep_spark(ctx: SparkContext, lines: Sequence[str], pattern: str,
               parallelism: int = 4) -> dict[str, int]:
    """Grep on the functional RDD engine."""
    compiled = re.compile(pattern)
    counts = (
        ctx.text_file(lines, parallelism)
        .flat_map(compiled.findall)
        .map(lambda match: (match, 1))
        .reduce_by_key(lambda a, b: a + b, parallelism)
    )
    return dict(counts.collect())


def grep_datampi_job(pattern: str, parallelism: int = 4,
                     transport: str | Transport | None = None,
                     storage: StorageConfig | None = None) -> DataMPIJob:
    """The Grep O/A job for ``pattern``, for cold runs and warm pools."""
    compiled = re.compile(pattern)

    def o_task(ctx, split):
        for line in split:
            for match in compiled.findall(line):
                ctx.send(match, 1)

    def a_task(ctx):
        return [(match, sum(values)) for match, values in ctx.grouped()]

    return DataMPIJob(
        o_task, a_task,
        DataMPIConf(num_o=parallelism, num_a=parallelism,
                    combiner=lambda m, vs: sum(vs), job_name="grep",
                    transport=transport,
                    storage=storage),
    )
