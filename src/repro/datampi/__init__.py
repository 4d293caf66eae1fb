"""DataMPI — a key-value pair based communication library (the paper's
core contribution, rebuilt in Python).

Quick example — a word count::

    from repro.datampi import DataMPIConf, DataMPIJob

    def o_task(ctx, split):
        for line in split:
            for word in line.split():
                ctx.send(word, 1)

    def a_task(ctx):
        return [(key, sum(values)) for key, values in ctx.grouped()]

    job = DataMPIJob(o_task, a_task, DataMPIConf(num_o=4, num_a=4,
                                                 combiner=lambda k, vs: sum(vs)))
    result = job.run(splits)
"""

from repro.datampi.buffers import DEFAULT_SEND_BUFFER_BYTES, PartitionedSendBuffer
from repro.datampi.checkpoint import (
    load_checkpoint,
    read_iteration_state,
    read_manifest,
    write_checkpoint,
    write_iteration_state,
    write_manifest,
)
from repro.datampi.communicator import (
    TAG_DATA,
    TAG_EOF,
    BipartiteComm,
)
from repro.datampi.context import AContext, OContext
from repro.datampi.job import (
    EXECUTION_MODES,
    ATask,
    DataMPIConf,
    DataMPIJob,
    JobResult,
    OTask,
    merge_outputs,
    run_a_superstep,
    run_o_superstep,
)
from repro.datampi.modes import (
    IterativeJob,
    IterativeResult,
    StreamingJob,
    StreamResult,
    WindowResult,
)
from repro.datampi.partition import (
    RangePartitioner,
    hash_partitioner,
    validate_partition,
)
from repro.datampi.world import (
    A_OUTPUT_KEY,
    O_SPLITS_KEY,
    RoundOutcome,
    recycle_world,
    run_superstep,
    superstep_loop,
)
# The storage layer lives in repro.storage; these re-exports keep the
# long-standing datampi surface intact.
from repro.storage import (
    DEFAULT_SPILL_BYTES,
    ChunkStore,
    KVCache,
    StorageConfig,
)

__all__ = [
    "StorageConfig",
    "DEFAULT_SEND_BUFFER_BYTES",
    "PartitionedSendBuffer",
    "load_checkpoint",
    "read_iteration_state",
    "read_manifest",
    "write_checkpoint",
    "write_iteration_state",
    "write_manifest",
    "TAG_DATA",
    "TAG_EOF",
    "BipartiteComm",
    "AContext",
    "OContext",
    "ATask",
    "EXECUTION_MODES",
    "DataMPIConf",
    "DataMPIJob",
    "JobResult",
    "OTask",
    "merge_outputs",
    "run_a_superstep",
    "run_o_superstep",
    "KVCache",
    "A_OUTPUT_KEY",
    "O_SPLITS_KEY",
    "IterativeJob",
    "IterativeResult",
    "StreamingJob",
    "StreamResult",
    "WindowResult",
    "RoundOutcome",
    "recycle_world",
    "run_superstep",
    "superstep_loop",
    "RangePartitioner",
    "hash_partitioner",
    "validate_partition",
    "DEFAULT_SPILL_BYTES",
    "ChunkStore",
]
