"""WordCount on all three engines.

"WordCount counts the number of each word occurrences in a collection of
documents" (Section 3.1).  All three implementations use a combiner /
map-side combine — the configuration BigDataBench ships — which is why
the paper sees tiny intermediate data for this workload (Section 4.4:
"the word dictionary of the input files is small and few intermediate
data is generated").
"""

from __future__ import annotations

from typing import Sequence

from repro.datampi import DataMPIConf, DataMPIJob, StorageConfig
from repro.hadoop import HadoopConf, MapReduceJob
from repro.mpi.transport import Transport
from repro.spark import SparkContext
from repro.workloads.splits import split_round_robin


def wordcount_reference(lines: Sequence[str]) -> dict[str, int]:
    """Plain-Python reference against which every engine is verified."""
    counts: dict[str, int] = {}
    for line in lines:
        for word in line.split():
            counts[word] = counts.get(word, 0) + 1
    return counts


def wordcount_hadoop_job(parallelism: int = 4) -> MapReduceJob:
    """WordCount on the functional MapReduce engine (combiner enabled)."""
    def mapper(_offset, line):
        for word in line.split():
            yield word, 1

    def reducer(word, counts):
        yield word, sum(counts)

    return MapReduceJob(
        mapper, reducer,
        HadoopConf(num_reduces=parallelism, combiner=lambda word, counts: sum(counts),
                   job_name="wordcount"),
    )


def wordcount_spark(ctx: SparkContext, lines: Sequence[str],
                    parallelism: int = 4) -> dict[str, int]:
    """WordCount on the functional RDD engine; ``ctx.counters`` holds the
    shuffle bytes afterwards."""
    counts = (
        ctx.text_file(lines, parallelism)
        .flat_map(str.split)
        .map(lambda word: (word, 1))
        .reduce_by_key(lambda a, b: a + b, parallelism)
    )
    return dict(counts.collect())


def wordcount_datampi_job(parallelism: int = 4,
                          transport: str | Transport | None = None,
                          storage: StorageConfig | None = None) -> DataMPIJob:
    """The WordCount O/A job itself, for cold runs *and* warm pools.

    The ``WORKLOADS`` table's datampi runner and
    ``wordcount_datampi_result`` run it on a fresh world; a serving
    :class:`~repro.serving.pool.WorldPool` registers the same job and
    submits inputs against an already-formed world — one definition, so
    the two paths cannot diverge.
    """
    def o_task(ctx, split):
        for line in split:
            for word in line.split():
                ctx.send(word, 1)

    def a_task(ctx):
        return [(word, sum(values)) for word, values in ctx.grouped()]

    return DataMPIJob(
        o_task, a_task,
        DataMPIConf(num_o=parallelism, num_a=parallelism,
                    combiner=lambda word, values: sum(values),
                    job_name="wordcount",
                    transport=transport,
                    storage=storage),
    )


def wordcount_datampi_result(lines: Sequence[str], parallelism: int = 4,
                             transport: str | Transport | None = None,
                             storage: StorageConfig | None = None):
    """WordCount as a DataMPI O/A job, with its counters.

    Returns the raw :class:`~repro.datampi.job.JobResult` so callers can
    read ``o.bytes_sent`` and friends alongside the outputs.
    """
    job = wordcount_datampi_job(parallelism, transport=transport, storage=storage)
    return job.run(split_round_robin(list(lines), parallelism))
