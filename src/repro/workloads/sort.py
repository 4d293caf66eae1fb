"""Sort on all three engines — Text Sort and Normal Sort variants.

"Sort sorts the records of input files based on the value of keys.  We
use two input data sets ... Normal Sort with compressed sequence input
data, the other is Text Sort with uncompressed text input data"
(Section 3.1).  Text Sort keys are the text lines themselves; Normal
Sort first decompresses ToSeqFile output (key = value = line) and then
runs the very same jobs — the ``WORKLOADS`` table wraps these in the
conversion rather than this module repeating each engine.  All
implementations are *total-order* sorts: a range partitioner routes keys
so that concatenating the output partitions in order yields the globally
sorted data.
"""

from __future__ import annotations

from typing import Sequence

from repro.common.errors import WorkloadError
from repro.common.rng import substream
from repro.datampi import DataMPIConf, DataMPIJob, RangePartitioner, StorageConfig
from repro.hadoop import HadoopConf, MapReduceJob
from repro.mpi.transport import Transport
from repro.spark import SparkContext
from repro.workloads.splits import split_round_robin


def sort_reference(lines: Sequence[str]) -> list[str]:
    return sorted(lines)


def _sample_keys(lines: Sequence[str], sample_size: int = 256, seed: int = 0) -> list[str]:
    """Key sample for the range partitioner (TotalOrderPartitioner's
    input sampler)."""
    if not lines:
        raise WorkloadError("cannot sort empty input")
    if len(lines) <= sample_size:
        return list(lines)
    rng = substream(seed, "sort-sample")
    return rng.sample(list(lines), sample_size)


def text_sort_hadoop_job(sample_lines: Sequence[str],
                         parallelism: int = 4) -> MapReduceJob:
    """Text Sort on the functional MapReduce engine (identity map/reduce
    behind a range partitioner sampled from ``sample_lines``)."""
    partitioner = RangePartitioner(_sample_keys(sample_lines), parallelism)

    def mapper(_offset, line):
        yield line, None

    def reducer(line, values):
        for _ in values:
            yield line, None

    return MapReduceJob(
        mapper, reducer,
        HadoopConf(num_reduces=parallelism, partitioner=partitioner, job_name="sort"),
    )


def text_sort_spark(ctx: SparkContext, lines: Sequence[str],
                    parallelism: int = 4) -> list[str]:
    """Text Sort on the functional RDD engine."""
    pairs = ctx.text_file(lines, parallelism).map(lambda line: (line, None))
    return [key for key, _ in pairs.sort_by_key(parallelism).collect()]


def text_sort_datampi_job(sample_lines: Sequence[str], parallelism: int = 4,
                          transport: str | Transport | None = None,
                          storage: StorageConfig | None = None) -> DataMPIJob:
    """The Text Sort O/A job, for cold runs and warm pools alike.

    The range partitioner is sampled from ``sample_lines`` at job
    construction — a pooled job therefore routes every submission with
    the partitioner sampled from the lines it was registered with, just
    as TotalOrderPartitioner fixes its boundaries before a job runs.
    """
    partitioner = RangePartitioner(_sample_keys(sample_lines), parallelism)

    def o_task(ctx, split):
        for line in split:
            ctx.send(line, None)

    def a_task(ctx):
        return [kv.key for kv in ctx]

    return DataMPIJob(
        o_task, a_task,
        DataMPIConf(num_o=parallelism, num_a=parallelism,
                    partitioner=partitioner, job_name="text-sort",
                    transport=transport,
                    storage=storage),
    )


def text_sort_datampi_result(lines: Sequence[str], parallelism: int = 4,
                             transport: str | Transport | None = None,
                             storage: StorageConfig | None = None):
    """Text Sort as a DataMPI O/A job, with its counters."""
    job = text_sort_datampi_job(lines, parallelism, transport=transport,
                                storage=storage)
    return job.run(split_round_robin(list(lines), parallelism))
