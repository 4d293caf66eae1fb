"""One superstep round, and the loop that repeats it on a kept-alive world.

Every driver that keeps an O/A world alive — Iteration mode, its Common
replay, Streaming mode (:mod:`repro.datampi.modes`) and the serving
:class:`~repro.serving.pool.WorldPool` — runs the same round: the root
scatters a control tuple with each O rank's input, the shuffle runs, and
every rank's outcome is gathered back at the root.
:func:`superstep_loop` is that round, written once; a driver supplies
only what differs — a per-rank *binder* (control tuple -> conf, tasks,
superstep number) and a root-only *step source* (what to send next,
which splits the root serves, what to do with the settled round).

The control goes out as one :meth:`~repro.mpi.comm.Comm.scatter`, one
message per non-root rank: a step source names the part of a control
only O tasks read (Iteration mode's state), and A ranks receive the
control without it.  An O rank's slot is its pickled control followed
by its input — its pickled stride of the splits — unless the root knows,
from the rank's last outcome, that the rank still caches its splits: then
the slot ends with the control.  A round therefore sends one control
message per non-root rank, the shuffle's chunks (each O rank's last
chunk to an A rank rides its EOF) and one outcome per non-root rank.

Task failures ride the outcome gather and are re-sent by the step
source, so a killed superstep fails every rank in unison on every
transport backend — no reliance on receive timeouts.  All payloads that
cross ranks are pickled to bytes first, which makes the per-round byte
counters (``mode.state_bytes``, ``mode.scatter_bytes``,
``mode.gather_bytes``) exact and transport-independent.
"""

from __future__ import annotations

import io
import pickle
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.common.errors import MPIError
from repro.datampi.communicator import BipartiteComm
from repro.datampi.job import (
    DataMPIConf,
    add_counters,
    run_a_superstep,
    run_o_superstep,
)
from repro.mpi import faultinject
from repro.mpi.comm import RECV_TIMEOUT, Comm
from repro.mpi.transport.codec import PICKLE_PROTOCOL
from repro.storage import ChunkStore, KVCache, StorageConfig

#: Cache key under which an O rank pins its input splits across rounds.
O_SPLITS_KEY = "o.splits"
#: Cache key under which an A rank's previous superstep output is pinned
#: (readable by the next superstep's A task via ``ctx.cache``).
A_OUTPUT_KEY = "a.output"

_MISSING = object()

#: Counter keys every superstep reports, so per-round records have
#: identical shape in every mode and on every transport.
_CACHE_COUNTER_KEYS = (
    "cache.hits", "cache.misses", "cache.hit_bytes",
    "cache.evictions", "cache.rejected",
)

#: A decoded control tuple; its first element is its kind.  ``"stop"``
#: and ``"error"`` belong to the loop, every other kind to the driver.
Control = tuple[Any, ...]
#: Per-rank: a driver's control tuple -> (conf, invoke_o, invoke_a,
#: superstep number).  Owns whatever rank-local counter numbers the rounds.
#: O ranks are handed the control with its O-only part, A ranks without.
Binder = Callable[
    [Control],
    tuple[DataMPIConf, Callable[[Any, Any], None], Callable[[Any], Any], int],
]
#: Root-only: the next round as (control, O-only part, splits served).
StepSource = Callable[[], tuple[Control, Control, Sequence[Any] | None]]


def _dumps(obj: Any) -> bytes:
    """Canonical payload encoding: one protocol everywhere so byte
    counters agree across transports and Python versions."""
    return pickle.dumps(obj, protocol=PICKLE_PROTOCOL)


# -- one superstep, executed by every rank -------------------------------------


def run_superstep(
    bcomm: BipartiteComm,
    conf: DataMPIConf,
    invoke_o: Callable[[Any, Any], None],
    invoke_a: Callable[[Any], Any],
    my_input: bytes | memoryview,
    store: ChunkStore | None,
    cache: KVCache | None,
    superstep: int,
    *,
    cache_input: bool,
) -> tuple[str, str | None, Any, dict[str, int]]:
    """Input + shuffle + compute for one rank.

    ``my_input`` is what followed the control in an O rank's scatter
    slot: its pickled splits, or nothing when it reads them from its
    cache.  Returns ``(status, error, output, counters)``.  Task
    exceptions are caught and reported via ``status`` so the failure can
    travel the control channel instead of wedging peers in blocking
    receives.

    An A rank pins its output under ``a.output`` for the next superstep's
    A task.  On an unbounded cache (the default) the pin walks none of
    the output until something reads it, and a recycled world clears it
    unread; a bounded cache charges it at ``put``, as eviction needs.

    :func:`superstep_loop` is its only caller in the runtime, which is
    what keeps every driver's shuffle byte-identical to a cold
    :class:`~repro.datampi.job.DataMPIJob` run.
    """
    status: str = "ok"
    error: str | None = None
    output: Any = None
    counters: dict[str, int] = {}
    cache_before = dict(cache.counters) if cache is not None else {}

    # Deliberately *outside* the task try/except blocks below: an injected
    # fault here is a rank failure (kill/abort), not a task error to be
    # reported politely over the control channel.
    faultinject.fire("before-superstep", rank=bcomm.comm.rank, superstep=superstep)

    if bcomm.is_o:
        my_splits: Any = _MISSING
        if cache is not None and cache_input:
            my_splits = cache.get(O_SPLITS_KEY, _MISSING)
        if my_input:
            my_splits = pickle.loads(my_input)
            if cache is not None and cache_input:
                cache.put(O_SPLITS_KEY, my_splits)
        elif my_splits is _MISSING:
            raise MPIError(
                f"O rank {bcomm.o_index} got no input at superstep {superstep} "
                "and holds none in its cache"
            )
        try:
            counters = run_o_superstep(
                bcomm, conf, invoke_o, my_splits, cache=cache, superstep=superstep
            )
        except Exception as exc:  # noqa: BLE001 - reported via the control channel
            status = "err"
            error = f"O rank {bcomm.o_index} failed at superstep {superstep}: {exc!r}"
    else:
        assert store is not None
        try:
            output, counters = run_a_superstep(
                bcomm, conf, invoke_a, store, cache=cache, superstep=superstep
            )
        except Exception as exc:  # noqa: BLE001 - reported via the control channel
            status = "err"
            error = f"A rank {bcomm.a_index} failed at superstep {superstep}: {exc!r}"
            output = None
        if cache is not None:
            cache.put(A_OUTPUT_KEY, output)
        store.reset()

    if cache is not None:
        for key, value in cache.counters.items():
            counters[key] = value - cache_before.get(key, 0)
    else:
        for key in _CACHE_COUNTER_KEYS:
            counters[key] = 0
    # The rank has computed but not yet reported: a death here forces the
    # supervisor to replay the whole superstep from the last checkpoint.
    faultinject.fire("after-superstep", rank=bcomm.comm.rank, superstep=superstep)
    return status, error, output, counters


def recycle_world(cache: KVCache | None, store: ChunkStore | None) -> None:
    """Return one rank's per-job state to its pre-job condition.

    A world serving a stream of jobs must not let job N's state leak into
    job N+1: the superstep machinery pins an O rank's input splits under
    ``o.splits`` in the KV cache (deliberately — that is what makes warm
    *iterations* cheap), a task may have cached state of its own, and
    the A-side :class:`ChunkStore` keeps its spill bookkeeping.  Between
    pooled jobs all of that is stale: splits pinned by job N would be
    served as job N+1's input, and job N's entries would be readable
    from job N+1's ``ctx.cache``, and so would job N's A output, pinned
    under ``a.output``.

    Recycling clears the whole cache alongside ``ChunkStore.reset()``:
    entry state only, both pins included — unread, so an unbounded cache
    never sized them.  The hit/miss counters survive; they are cumulative
    measurements.  What survives a job boundary: the world
    itself, the cache's stat counters, and the store's owned spill
    directory.
    """
    if cache is not None:
        cache.clear()
    if store is not None:
        store.reset()


# -- the round, settled at the root --------------------------------------------


@dataclass
class RoundOutcome:
    """One settled round as the root sees it: every rank's outcome, folded."""

    superstep: int
    outputs: list[Any]  # per-A-rank outputs, in A-rank order
    counters: dict[str, int]  # every rank's counters, summed
    error: str | None  # the lowest failed rank's cause; None = all ok
    state_bytes: int  # the scatter's controls: what the root sent
    scatter_bytes: int  # the O ranks' inputs after them, the root's own included
    gather_bytes: int  # the outcome gather
    elapsed: float  # root wall-clock seconds, control decoded -> outcomes folded

    def record(self) -> dict[str, int]:
        """The round's counters plus its ``mode.*`` byte accounting."""
        control_bytes = self.state_bytes + self.scatter_bytes + self.gather_bytes
        return {
            **self.counters,
            "mode.state_bytes": self.state_bytes,
            "mode.scatter_bytes": self.scatter_bytes,
            "mode.gather_bytes": self.gather_bytes,
            "mode.bytes_moved": control_bytes + self.counters.get("o.bytes_sent", 0),
        }


def superstep_loop(
    comm: Comm,
    num_o: int,
    num_a: int,
    storage: StorageConfig,
    bind: Binder,
    next_step: StepSource,
    settle: Callable[[RoundOutcome], None],
    *,
    cache_input: bool,
    recycle: bool = False,
    idle_timeout: float = RECV_TIMEOUT,
    one_round: bool = False,
) -> int:
    """Every rank's main on a kept-alive world: rounds until ``"stop"``.

    Each round the root asks ``next_step()`` for ``(control, o_only,
    splits)``: O ranks receive ``control + o_only`` followed by their
    stride of ``splits`` (none while they cache it), A ranks ``control``.
    ``("stop", ...)`` ends the loop on every rank, ``("error", cause)``
    raises ``MPIError(cause)`` on every rank, and any other tuple goes
    to ``bind`` and through :func:`run_superstep`.  The gathered outcomes
    are folded into a :class:`RoundOutcome` and handed to ``settle`` — on
    the root only, as is ``next_step``.  Returns, on the root, the bytes the closing
    ``"stop"`` moved (0 on every other rank).

    The keyword parameters are exactly what differs between the drivers:
    ``cache_input`` pins the O ranks' splits across rounds, so a warm
    round scatters no input (Iteration mode; the pool pins too, but
    recycles the pin); ``recycle`` clears every rank's per-job state after
    each round, the ``a.output`` pin included (the pool); ``idle_timeout``
    bounds a non-root rank's wait for the next control (the pool idles
    between submissions);
    ``one_round`` is the Common replay — a fresh world per iteration that
    returns 0 after its single round with no ``"stop"`` control, and
    keeps no cache because nothing outlives the round.

    Examples:
        Two rounds and a stop on one kept-alive 1x1 world; the driver's
        control vocabulary here is the single kind ``"words"``:

        >>> from itertools import count
        >>> from repro.datampi import DataMPIConf, StorageConfig, superstep_loop
        >>> from repro.mpi import mpi_run
        >>> conf = DataMPIConf(num_o=1, num_a=1)
        >>> def o_task(ctx, word):
        ...     ctx.send(word, 1)
        >>> def a_task(ctx):
        ...     return [word for word, _ones in ctx.grouped()]
        >>> def rank_main(comm):
        ...     controls = iter([("words", ["b", "a"]), ("words", ["c"]), ("stop",)])
        ...     supersteps, settled = count(1), []
        ...     def next_step():
        ...         control = next(controls)
        ...         return control, (), control[1] if control[0] == "words" else None
        ...     superstep_loop(
        ...         comm, 1, 1, StorageConfig(),
        ...         lambda control: (conf, o_task, a_task, next(supersteps)),
        ...         next_step, settled.append, cache_input=False,
        ...     )
        ...     return [(outcome.superstep, outcome.outputs) for outcome in settled]
        >>> mpi_run(2, rank_main, transport="inline")[0]
        [(1, [['a', 'b']]), (2, [['c']])]
    """
    bcomm = BipartiteComm(comm, num_o, num_a)
    cache = None if one_round else storage.make_cache()
    store = None if bcomm.is_o else storage.make_store()
    # Root-only, per O rank: its last outcome said it still caches its
    # splits, so its slot can end with the control.  A fresh world (and
    # so an elastic restart) knows of none.
    holds_splits = [False] * num_o
    try:
        while True:
            payloads: list[bytes] | None = None
            state_bytes = scatter_bytes = 0
            if comm.rank == 0:
                control, o_only, splits = next_step()
                full = _dumps(control + o_only)
                bare = _dumps(control) if o_only else full
                payloads = [full] * num_o + [bare] * num_a
                state_bytes = sum(len(payload) for payload in payloads[1:])
                if control[0] not in ("stop", "error"):
                    served = list(splits) if splits is not None else []
                    for o_index in range(num_o):
                        if not holds_splits[o_index]:
                            my_input = _dumps(served[o_index::num_o])
                            payloads[o_index] = full + my_input
                            scatter_bytes += len(my_input)
            slot = comm.scatter(payloads, root=0, timeout=idle_timeout)
            reader = io.BytesIO(slot)
            request = pickle.load(reader)
            if request[0] == "error":
                raise MPIError(request[1])
            if request[0] == "stop":
                return state_bytes
            conf, invoke_o, invoke_a, superstep = bind(request)
            started = time.perf_counter()

            status, error, output, counters = run_superstep(
                bcomm, conf, invoke_o, invoke_a,
                memoryview(slot)[reader.tell():], store, cache, superstep,
                cache_input=cache_input,
            )
            holds = (bcomm.is_o and cache is not None and cache_input
                     and not recycle and O_SPLITS_KEY in cache)
            gathered = comm.gather(
                _dumps((status, error, output, counters, holds)), root=0)
            if recycle:
                # Clear the o.splits pin and task-cached state with the store
                # reset, *before* the next control can reuse them as its input.
                recycle_world(cache, store)

            if gathered is not None:  # the root
                outcomes = [pickle.loads(reported) for reported in gathered]
                summed: dict[str, int] = {}
                cause: str | None = None
                for rank, (rank_status, rank_error, _, rank_counters, _) in enumerate(outcomes):
                    add_counters(summed, rank_counters)
                    if rank_status != "ok" and cause is None:
                        cause = rank_error or f"rank {rank} failed"
                holds_splits = [reported[4] for reported in outcomes[:num_o]]
                outcome = RoundOutcome(
                    superstep=superstep,
                    outputs=[reported[2] for reported in outcomes[num_o:]],
                    counters=summed,
                    error=cause,
                    state_bytes=state_bytes,
                    scatter_bytes=scatter_bytes,
                    gather_bytes=sum(len(reported) for reported in gathered[1:]),
                    elapsed=time.perf_counter() - started,
                )
                settle(outcome)
            if one_round:
                return 0
    finally:
        if store is not None:
            store.cleanup()
