"""DataMPI job driver: launch O and A tasks over the MPI substrate.

A :class:`DataMPIJob` is the library's top-level entry point, mirroring a
DataMPI application's ``MPI_D_Init ... MPI_D_Finalize`` lifecycle:

* input splits are distributed round-robin over the O tasks (the real
  library schedules dynamically; round-robin over uniform splits is
  equivalent for the paper's balanced workloads);
* O tasks call ``ctx.send(key, value)``; the library partitions, sorts,
  pipelines and moves the data to the A side while O computation runs;
* A tasks consume key-ordered records and return their outputs;
* optionally, the received intermediate data is checkpointed so the A
  phase can be re-run with :meth:`DataMPIJob.restart` (fault tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.common.errors import ConfigError
from repro.datampi.buffers import DEFAULT_SEND_BUFFER_BYTES
from repro.datampi.checkpoint import (
    load_checkpoint,
    read_manifest,
    write_checkpoint,
    write_manifest,
)
from repro.datampi.communicator import BipartiteComm
from repro.datampi.context import AContext, OContext
from repro.datampi.partition import Partitioner
from repro.storage import ChunkStore, KVCache, StorageConfig
from repro.mpi import faultinject
from repro.mpi.comm import Comm
from repro.mpi.launcher import mpi_run
from repro.mpi.transport import Transport, available_transports, get_transport

OTask = Callable[[OContext, Any], None]
ATask = Callable[[AContext], Any]

#: The DataMPI spec's three execution modes.  ``common`` is the run-once
#: O/A job this class implements; ``iteration`` and ``streaming`` are
#: driven by :mod:`repro.datampi.modes`, which runs the superstep phases
#: below in :func:`repro.datampi.world.superstep_loop`.
EXECUTION_MODES = ("common", "iteration", "streaming")


@dataclass(frozen=True)
class DataMPIConf:
    """Static configuration of a DataMPI job.

    A frozen value object shared by every execution mode: the O/A world
    shape, shuffle behaviour (sort/partitioner/combiner), the send
    buffer, the ``storage`` budgets, the IPC ``transport`` and the
    execution ``mode``.
    Validation happens at construction, so a bad configuration fails
    before any rank is launched.

    Examples:
        >>> from repro.datampi import DataMPIConf
        >>> conf = DataMPIConf(num_o=2, num_a=2, transport="inline")
        >>> conf.mode
        'common'
        >>> conf.storage.spill_dir is None
        True
        >>> DataMPIConf(num_o=0, num_a=1)
        Traceback (most recent call last):
            ...
        repro.common.errors.ConfigError: num_o and num_a must be >= 1 (got 0, 1)
    """

    num_o: int = 4
    num_a: int = 4
    sort: bool = True
    partitioner: Partitioner | None = None
    #: Map-side ``combiner(key, values)`` run on the O side before a chunk
    #: ships.  Hadoop's contract: it may run more than once on a key,
    #: including on its own output — the send buffer folds repeats in place
    #: and combines again at the flush — so ``combiner(k, [combiner(k, vs),
    #: v])`` must stand for ``combiner(k, vs + [v])``.  A sum qualifies;
    #: ``list(values)`` nests its own output and does not.
    combiner: Callable[[Any, list[Any]], Any] | None = None
    #: Per-destination send threshold: bytes held, and under a combiner
    #: bytes to ship (see :mod:`repro.datampi.buffers`).
    send_buffer_bytes: int = DEFAULT_SEND_BUFFER_BYTES
    checkpoint_dir: str | None = None
    job_name: str = "datampi-job"
    #: IPC backend the job's ranks run over: ``thread`` (default), ``shm``
    #: (forked processes over pre-forked socket pairs), ``inline``, or ``tcp``
    #: (processes/machines over socket pairs).  Also accepts a constructed
    #: :class:`~repro.mpi.transport.Transport` instance — how backend
    #: options like the tcp transport's ``hosts=`` reach a job.  ``None``
    #: defers to the runtime default (``REPRO_TRANSPORT`` env var or thread).
    transport: str | Transport | None = None
    #: Execution mode: ``common`` (run-once), ``iteration`` (kept-alive
    #: ranks + cross-iteration KV cache), or ``streaming`` (windowed
    #: unbounded input).  Iteration/streaming jobs are driven by
    #: :class:`repro.datampi.modes.IterativeJob` / ``StreamingJob``.
    mode: str = "common"
    #: The storage layer's budgets and spill placement — KV-cache capacity,
    #: receive-store memory budget, spill directory — as one
    #: :class:`repro.storage.StorageConfig` value (None = the defaults).
    storage: StorageConfig | None = None
    #: Deterministic fault plan (a :class:`~repro.mpi.faultinject.FaultPlan`
    #: or its DSL string) installed in every rank the job launches.  The
    #: plan fires *inside* the ranks at instrumented points — the chaos
    #: tests' alternative to sleeping and signalling from outside.
    fault_plan: Any = None

    def __post_init__(self) -> None:
        # Normalize the fault plan up front so a bad DSL string fails at
        # construction, like every other conf error.
        object.__setattr__(
            self, "fault_plan", faultinject.parse_fault_plan(self.fault_plan)
        )
        if self.fault_plan is not None and isinstance(self.transport, Transport):
            raise ConfigError(
                "conf.fault_plan cannot be combined with an already-constructed "
                "transport instance; pass fault_plan= to the transport "
                "constructor instead"
            )
        if self.num_o < 1 or self.num_a < 1:
            raise ConfigError(
                f"num_o and num_a must be >= 1 (got {self.num_o}, {self.num_a})"
            )
        if self.send_buffer_bytes < 1:
            raise ConfigError("send_buffer_bytes must be positive")
        if self.transport is not None and not isinstance(self.transport, Transport) \
                and self.transport not in available_transports():
            raise ConfigError(
                f"unknown transport {self.transport!r}; "
                f"available: {available_transports()}"
            )
        if self.mode not in EXECUTION_MODES:
            raise ConfigError(
                f"unknown execution mode {self.mode!r}; available: {EXECUTION_MODES}"
            )
        if self.storage is None:
            object.__setattr__(self, "storage", StorageConfig())

    def resolved_transport(self) -> str | Transport | None:
        """The transport every driver should hand to ``mpi_run``.

        With no fault plan this is just ``self.transport``; with one, the
        backend is constructed here so the plan rides into every rank the
        job launches (forked children install it before running user code).
        """
        if self.fault_plan is None:
            return self.transport
        return get_transport(self.transport, fault_plan=self.fault_plan)


def add_counters(into: dict[str, int], counters: dict[str, int]) -> None:
    """Add ``counters`` into ``into``, key by key.

    The one counter fold: per-rank counters into a job's or a round's,
    and a round's record into a run's totals.
    """
    for name, value in counters.items():
        into[name] = into.get(name, 0) + value


def merge_outputs(outputs: list[Any]) -> list[Any]:
    """Concatenate per-A-rank list outputs in rank order (Nones skipped).

    The one definition of output merging, shared by every execution
    mode's result type so merged outputs cannot diverge between modes.
    """
    merged: list[Any] = []
    for output in outputs:
        if output is None:
            continue
        if isinstance(output, list):
            merged.extend(output)
        else:
            merged.append(output)
    return merged


@dataclass
class JobResult:
    """Outcome of a DataMPI job run."""

    outputs: list[Any]  # indexed by A rank
    counters: dict[str, int] = field(default_factory=dict)

    def merged_outputs(self) -> list[Any]:
        """Concatenate per-A-rank list outputs in rank order."""
        return merge_outputs(self.outputs)


# -- superstep phases ----------------------------------------------------------
#
# One O phase plus one A phase is a *superstep*: the unit Common mode runs
# once and Iteration/Streaming modes run in a loop over kept-alive ranks.
# The phases are module-level so every mode shares byte-identical shuffle
# semantics (same buffers, same chunk origins, same merge order).


def run_o_superstep(
    bcomm: BipartiteComm,
    conf: DataMPIConf,
    invoke_o: Callable[[OContext, Any], None],
    my_splits: Sequence[Any],
    *,
    cache: KVCache | None = None,
    superstep: int | None = None,
) -> dict[str, int]:
    """Run one O rank's half of a superstep; returns its counters.

    ``invoke_o`` is called once per split; EOFs flow to every A rank even
    when it raises, so the A side never hangs on a failed O task.
    """
    ctx = OContext(
        bcomm,
        partitioner=conf.partitioner,
        sort=conf.sort,
        combiner=conf.combiner,
        send_buffer_bytes=conf.send_buffer_bytes,
        cache=cache,
        superstep=superstep,
    )
    try:
        faultinject.fire("o-phase", rank=bcomm.comm.rank, superstep=superstep)
        for split in my_splits:
            invoke_o(ctx, split)
    finally:
        ctx.close()  # EOF must flow even on failure so A ranks unblock
    return ctx.counters


def run_a_superstep(
    bcomm: BipartiteComm,
    conf: DataMPIConf,
    invoke_a: Callable[[AContext], Any],
    store: ChunkStore,
    *,
    cache: KVCache | None = None,
    superstep: int | None = None,
    checkpoint_dir: str | None = None,
) -> tuple[Any, dict[str, int]]:
    """Run one A rank's half of a superstep; returns (output, counters).

    The caller owns ``store`` — run-once jobs clean it up immediately,
    the superstep loop resets and reuses it across rounds.
    """
    ctx = AContext(bcomm, store, sort=conf.sort, cache=cache, superstep=superstep)
    faultinject.fire("a-phase", rank=bcomm.comm.rank, superstep=superstep)
    ctx.drain()
    if checkpoint_dir is not None:
        write_checkpoint(checkpoint_dir, ctx.rank, store)
    output = invoke_a(ctx)
    return output, ctx.counters


class DataMPIJob:
    """A bipartite O/A job over the in-process MPI world (Common mode).

    The library's top-level entry point: O tasks emit key-value pairs
    with ``ctx.send``; the library partitions, optionally combines and
    sorts, and moves them to the A tasks, which consume them key-grouped
    and return outputs (collected in A-rank order).

    Examples:
        Word counting with two O ranks feeding one A rank:

        >>> from repro.datampi import DataMPIConf, DataMPIJob
        >>> def o_task(ctx, split):
        ...     for word in split.split():
        ...         ctx.send(word, 1)
        >>> def a_task(ctx):
        ...     return [(word, sum(ones)) for word, ones in ctx.grouped()]
        >>> conf = DataMPIConf(num_o=2, num_a=1, transport="inline")
        >>> DataMPIJob(o_task, a_task, conf).run(["b a", "a"]).merged_outputs()
        [('a', 2), ('b', 1)]
    """

    def __init__(self, o_task: OTask, a_task: ATask, conf: DataMPIConf | None = None):
        self.o_task = o_task
        self.a_task = a_task
        self.conf = conf or DataMPIConf()
        if self.conf.mode != "common":
            raise ConfigError(
                f"DataMPIJob runs Common mode only (conf.mode={self.conf.mode!r}); "
                "use IterativeJob or StreamingJob from repro.datampi.modes"
            )

    # -- normal execution -----------------------------------------------------

    def run(self, splits: Sequence[Any]) -> JobResult:
        """Execute the job on ``splits``; returns per-A-rank outputs."""
        conf = self.conf

        def rank_main(comm: Comm) -> tuple[str, Any, dict[str, int]]:
            bcomm = BipartiteComm(comm, conf.num_o, conf.num_a)
            if bcomm.is_o:
                counters = run_o_superstep(
                    bcomm, conf, self.o_task,
                    list(splits)[bcomm.o_index::conf.num_o],
                )
                return ("o", None, counters)
            return self._run_a(bcomm)

        rank_results = mpi_run(
            conf.num_o + conf.num_a, rank_main, transport=conf.resolved_transport()
        )
        if conf.checkpoint_dir is not None:
            write_manifest(conf.checkpoint_dir, conf.num_a, conf.sort, conf.job_name)
        return self._collect(rank_results)

    def _run_a(self, bcomm: BipartiteComm):
        store = self.conf.storage.make_store()
        try:
            output, counters = run_a_superstep(
                bcomm, self.conf, self.a_task, store,
                checkpoint_dir=self.conf.checkpoint_dir,
            )
        finally:
            store.cleanup()
        return ("a", output, counters)

    # -- checkpoint restart -----------------------------------------------------

    def restart(self, checkpoint_dir: str | None = None) -> JobResult:
        """Re-run only the A phase from a completed checkpoint."""
        directory = checkpoint_dir or self.conf.checkpoint_dir
        if directory is None:
            raise ConfigError("restart needs a checkpoint directory")
        manifest = read_manifest(directory)
        if manifest["num_a"] != self.conf.num_a:
            raise ConfigError(
                f"checkpoint has {manifest['num_a']} A tasks, job expects {self.conf.num_a}"
            )

        def a_main(comm: Comm):
            store = load_checkpoint(
                directory,
                comm.rank,
                self.conf.storage.spill_threshold,
                spill_dir=self.conf.storage.spill_dir,
            )
            ctx = AContext(None, store, sort=self.conf.sort, a_index=comm.rank)
            try:
                output = self.a_task(ctx)
            finally:
                ctx.cleanup()
            return ("a", output, ctx.counters)

        rank_results = mpi_run(
            self.conf.num_a, a_main, transport=self.conf.resolved_transport()
        )
        return self._collect(rank_results)

    # -- result assembly --------------------------------------------------------

    @staticmethod
    def _collect(rank_results: list[tuple[str, Any, dict[str, int]]]) -> JobResult:
        outputs = [result for side, result, _ in rank_results if side == "a"]
        counters: dict[str, int] = {}
        for _side, _result, rank_counters in rank_results:
            add_counters(counters, rank_counters)
        return JobResult(outputs=outputs, counters=counters)
