"""Iteration and Streaming execution modes.

The DataMPI specification defines three execution modes; the paper's
experiments exercise only *Common* (run-once O/A jobs, the
:class:`~repro.datampi.job.DataMPIJob` driver).  This module adds the
other two on top of the same superstep phases:

* :class:`IterativeJob` — **Iteration mode**.  One world of O and A ranks
  stays alive across supersteps.  Input splits move through the comm
  layer once and are pinned in a per-rank :class:`KVCache`; every later
  iteration reads them locally, so the per-iteration bytes moved drop by
  exactly the input-scatter volume (the redundant I/O Section 4.5's
  k-means analysis charges against one-job-per-iteration engines).
  Per-iteration state (e.g. centroids) is broadcast from the root; a
  user-supplied ``update`` function folds the A outputs into the next
  state and decides convergence.

* :class:`StreamingJob` — **Streaming mode**.  An unbounded sequence of
  input splits flows through the O->A pipeline in bounded windows; every
  window is flushed with a watermark (its 1-based window index) before
  the next is admitted, so memory stays bounded by one window.

Both modes run one control round per superstep: a state broadcast from
the root, the input request/serve exchange, the shuffle, and an outcome
gather.  Task failures ride the outcome gather and are re-broadcast, so a
killed superstep fails every rank in unison on every transport backend —
no reliance on receive timeouts.  All payloads that cross ranks are
pickled to bytes first, which makes the per-iteration byte counters
(``mode.state_bytes``, ``mode.scatter_bytes``, ``mode.gather_bytes``)
exact and transport-independent.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Iterable, Sequence

from repro.common.errors import CheckpointError, ConfigError, MPIError
from repro.mpi import faultinject
from repro.mpi.transport.base import world_generation
from repro.mpi.transport.codec import PICKLE_PROTOCOL
from repro.datampi.checkpoint import (
    clear_iteration_state,
    read_iteration_state,
    write_iteration_state,
)
from repro.datampi.communicator import BipartiteComm
from repro.datampi.job import (
    DataMPIConf,
    merge_outputs,
    run_a_superstep,
    run_o_superstep,
)
from repro.storage import ChunkStore, KVCache
from repro.mpi.comm import Comm
from repro.mpi.launcher import mpi_run

#: Cache key under which an O rank pins its input splits across iterations.
O_SPLITS_KEY = "o.splits"
#: Cache key under which an A rank's previous superstep output is pinned
#: (readable by the next superstep's A task via ``ctx.cache``).
A_OUTPUT_KEY = "a.output"

_MISSING = object()

#: Counter keys every superstep reports, so per-iteration records have
#: identical shape in every mode and on every transport.
_CACHE_COUNTER_KEYS = (
    "cache.hits", "cache.misses", "cache.hit_bytes",
    "cache.evictions", "cache.rejected",
)


def _dumps(obj: Any) -> bytes:
    """Canonical payload encoding: one protocol everywhere so byte
    counters agree across transports and Python versions."""
    return pickle.dumps(obj, protocol=PICKLE_PROTOCOL)


# -- one superstep, executed by every rank -------------------------------------


def run_superstep(
    bcomm: BipartiteComm,
    conf: DataMPIConf,
    invoke_o: Callable,
    invoke_a: Callable,
    splits: Sequence[Any] | None,
    store: ChunkStore | None,
    cache: KVCache | None,
    superstep: int,
    *,
    cache_input: bool,
) -> tuple[str, str | None, Any, dict[str, int], int]:
    """Input + shuffle + compute for one rank.

    Returns ``(status, error, output, counters, scatter_bytes)`` where
    ``scatter_bytes`` is non-zero only on the input root.  Task exceptions
    are caught and reported via ``status`` so the failure can travel the
    control channel instead of wedging peers in blocking receives.

    This is the one superstep implementation every driver shares —
    IterativeJob, StreamingJob, and the serving :class:`~repro.serving.pool.WorldPool`
    all call it on an already-formed world, which is what keeps their
    shuffles byte-identical to a cold :class:`~repro.datampi.job.DataMPIJob` run.
    """
    status: str = "ok"
    error: str | None = None
    output: Any = None
    counters: dict[str, int] = {}
    scatter_bytes = 0
    cache_before = dict(cache.counters) if cache is not None else {}

    # Deliberately *outside* the task try/except blocks below: an injected
    # fault here is a rank failure (kill/abort), not a task error to be
    # reported politely over the control channel.
    faultinject.fire("before-superstep", rank=bcomm.comm.rank, superstep=superstep)

    if bcomm.is_o:
        my_splits: Any = _MISSING
        if cache is not None and cache_input:
            my_splits = cache.get(O_SPLITS_KEY, _MISSING)
        bcomm.request_input(my_splits is not _MISSING)
        if bcomm.comm.rank == BipartiteComm.INPUT_ROOT:
            all_splits = list(splits) if splits is not None else []
            for o_index in range(bcomm.num_o):
                if bcomm.recv_input_request(o_index):
                    response = _dumps(("cached", None))
                else:
                    response = _dumps(("data", all_splits[o_index::bcomm.num_o]))
                bcomm.send_input(o_index, response)
                scatter_bytes += len(response)
        kind, value = pickle.loads(bcomm.recv_input().payload)
        if kind == "data":
            my_splits = value
            if cache is not None and cache_input:
                cache.put(O_SPLITS_KEY, my_splits)
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
    return status, error, output, counters, scatter_bytes


def recycle_world(cache: KVCache | None, store: ChunkStore | None) -> None:
    """Return one rank's per-job state to its pre-job condition.

    A world serving a stream of jobs must not let job N's state leak into
    job N+1: the superstep machinery pins an O rank's input splits under
    ``o.splits`` and an A rank's output under ``a.output`` in the KV
    cache (deliberately — that is what makes warm *iterations* cheap),
    and the A-side :class:`ChunkStore` keeps its spill bookkeeping.
    Between pooled jobs those pins are stale state: splits pinned by job
    N would be served as job N+1's input, and job N's output would be
    readable from job N+1's ``ctx.cache``.

    Recycling clears the whole cache (entry state only — the hit/miss
    counters survive, they are cumulative measurements) alongside
    ``ChunkStore.reset()``.  What survives a job boundary: the world
    itself, the cache's stat counters, and the store's owned spill
    directory.
    """
    if cache is not None:
        cache.clear()
    if store is not None:
        store.reset()


def _merge_outcomes(
    gathered: list[bytes],
) -> tuple[list[tuple], int, dict[str, int], list[tuple[int, str]]]:
    """Root side: decode the outcome gather into (outcomes, gather_bytes,
    summed counters, [(rank, error)...])."""
    outcomes = [pickle.loads(payload) for payload in gathered]
    gather_bytes = sum(len(payload) for payload in gathered[1:])
    counters: dict[str, int] = {}
    errors: list[tuple[int, str]] = []
    for rank, (status, error, _output, rank_counters) in enumerate(outcomes):
        for name, value in rank_counters.items():
            counters[name] = counters.get(name, 0) + value
        if status != "ok":
            errors.append((rank, error or f"rank {rank} failed"))
    return outcomes, gather_bytes, counters, errors


def _iteration_record(
    superstep: int,
    counters: dict[str, int],
    state_bytes: int,
    scatter_bytes: int,
    gather_bytes: int,
) -> dict[str, int]:
    record = {"superstep": superstep, **counters}
    record["mode.state_bytes"] = state_bytes
    record["mode.scatter_bytes"] = scatter_bytes
    record["mode.gather_bytes"] = gather_bytes
    record["mode.bytes_moved"] = (
        state_bytes + scatter_bytes + gather_bytes + counters.get("o.bytes_sent", 0)
    )
    return record


def _merge_totals(totals: dict[str, int], record: dict[str, int]) -> None:
    for name, value in record.items():
        if name == "superstep":
            continue
        totals[name] = totals.get(name, 0) + value




# -- Iteration mode ------------------------------------------------------------

#: o_task(ctx, split, state) — Common's OTask plus the per-iteration state.
IterOTask = Callable[[Any, Any, Any], None]
#: a_task(ctx, state) — Common's ATask plus the per-iteration state.
IterATask = Callable[[Any, Any], Any]
#: update(state, merged_outputs, iteration) -> (new_state, converged).
UpdateFn = Callable[[Any, list[Any], int], tuple[Any, bool]]


@dataclass
class IterativeResult:
    """Outcome of an iterative job."""

    state: Any
    outputs: list[Any]  # final iteration's per-A-rank outputs
    iterations: int  # total iterations completed (including resumed-over ones)
    converged: bool
    counters: dict[str, int] = field(default_factory=dict)
    #: One counter record per executed iteration (root's view, all ranks
    #: summed) — includes ``mode.bytes_moved`` and the cache counters.
    per_iteration: list[dict[str, int]] = field(default_factory=list)
    #: Root wall-clock seconds per executed iteration.
    timings: list[float] = field(default_factory=list)
    #: Iteration the run started from (non-zero after a checkpoint resume).
    start_iteration: int = 0

    def merged_outputs(self) -> list[Any]:
        return merge_outputs(self.outputs)


class IterativeJob:
    """Superstep driver: Iteration mode (or its run-once Common baseline).

    With ``conf.mode == "iteration"`` one world stays alive for the whole
    run and input moves through the comm layer only when a rank's cache
    cannot serve it.  With ``conf.mode == "common"`` the same protocol is
    replayed with a fresh world per iteration — the one-job-per-iteration
    pattern — which makes the two modes byte-comparable: identical
    shuffles, state broadcasts and gathers, differing exactly by the
    re-scattered input.

    Examples:
        Accumulate split values into ``state`` until the total reaches 10
        (two supersteps: 0 -> 3 -> 12):

        >>> from repro.datampi import DataMPIConf, IterativeJob
        >>> def o_task(ctx, split, state):
        ...     ctx.send(0, split + state)
        >>> def a_task(ctx, state):
        ...     return [v for _key, values in ctx.grouped() for v in values]
        >>> def update(state, outputs, iteration):
        ...     total = state + sum(outputs)
        ...     return total, total >= 10
        >>> conf = DataMPIConf(num_o=2, num_a=1, mode="iteration",
        ...                    transport="inline")
        >>> job = IterativeJob(o_task, a_task, update, conf, max_iterations=5)
        >>> result = job.run([1, 2], 0)
        >>> (result.state, result.iterations, result.converged)
        (12, 2, True)
        >>> result.counters["cache.hits"] > 0  # input served locally
        True
    """

    def __init__(
        self,
        o_task: IterOTask,
        a_task: IterATask,
        update: UpdateFn,
        conf: DataMPIConf | None = None,
        max_iterations: int = 20,
    ):
        self.o_task = o_task
        self.a_task = a_task
        self.update = update
        self.conf = conf or DataMPIConf(mode="iteration")
        if self.conf.mode not in ("iteration", "common"):
            raise ConfigError(
                f"IterativeJob supports modes 'iteration' and 'common', "
                f"got {self.conf.mode!r}"
            )
        if max_iterations < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {max_iterations}")
        self.max_iterations = max_iterations

    # -- entry point -----------------------------------------------------------

    def run(
        self, splits: Sequence[Any], initial_state: Any, *, resume: bool = False
    ) -> IterativeResult:
        """Iterate until ``update`` converges or ``max_iterations`` is hit.

        With ``resume=True`` and a checkpoint directory configured, the
        run continues from the last *completed* iteration's state instead
        of ``initial_state``.
        """
        start_iteration, state = 0, initial_state
        if resume:
            if self.conf.checkpoint_dir is None:
                raise ConfigError("resume needs a checkpoint directory")
            saved = read_iteration_state(self.conf.checkpoint_dir)
            if saved is None:
                raise CheckpointError(
                    f"no iteration checkpoint in {self.conf.checkpoint_dir}"
                )
            start_iteration, state = saved["iteration"], saved["state"]
        elif self.conf.checkpoint_dir is not None:
            # A fresh run must not leave a previous run's iteration state
            # behind: an elastic restart mid-run resumes from this file,
            # and a stale one would silently change where replay begins.
            clear_iteration_state(self.conf.checkpoint_dir)
        if start_iteration >= self.max_iterations:
            return IterativeResult(
                state=state, outputs=[], iterations=start_iteration,
                converged=False, start_iteration=start_iteration,
            )
        if self.conf.mode == "common":
            return self._run_common(splits, state, start_iteration)
        return self._run_iteration(splits, state, start_iteration)

    # -- iteration mode: one world, superstep loop -----------------------------

    def _run_iteration(
        self, splits: Sequence[Any], start_state: Any, start_iteration: int
    ) -> IterativeResult:
        conf = self.conf

        def rank_main(comm: Comm):
            return self._rank_loop(comm, splits, start_state, start_iteration)

        rank_results = mpi_run(
            conf.num_o + conf.num_a, rank_main, transport=conf.resolved_transport()
        )
        tag, payload = rank_results[0]
        assert tag == "root"
        payload["start_iteration"] = start_iteration
        return IterativeResult(**payload)

    def _rank_loop(
        self, comm: Comm, splits: Sequence[Any], start_state: Any, start_iteration: int
    ):
        conf = self.conf
        bcomm = BipartiteComm(comm, conf.num_o, conf.num_a)
        is_root = comm.rank == 0
        cache = conf.storage.make_cache()
        store = None if bcomm.is_o else conf.storage.make_store()

        iteration = start_iteration
        state = start_state
        converged = False
        root_state = start_state
        final_outputs: list[Any] = []
        per_iteration: list[dict[str, int]] = []
        timings: list[float] = []
        totals: dict[str, int] = {}
        pending: tuple = ("run", start_state)

        # Elastic restart: when the transport re-formed the world after a
        # rank death (generation > 0), every rank rejoins from the last
        # *completed* iteration's checkpoint instead of the run's initial
        # state — the interrupted superstep replays from its exact input,
        # so the final state is identical to an uninjected run.
        if world_generation(comm) > 0 and conf.checkpoint_dir is not None:
            saved = read_iteration_state(conf.checkpoint_dir)
            if saved is not None:
                iteration = saved["iteration"]
                state = root_state = saved["state"]
                pending = (
                    ("stop", False)
                    if iteration >= self.max_iterations
                    else ("run", saved["state"])
                )

        try:
            while True:
                control = comm.bcast(_dumps(pending) if is_root else None, root=0)
                kind, value = pickle.loads(control)
                state_bytes = len(control) * (comm.size - 1)
                if kind == "error":
                    raise MPIError(value)
                if kind == "stop":
                    converged = bool(value)
                    if is_root:
                        totals["mode.shutdown_bytes"] = (
                            totals.get("mode.shutdown_bytes", 0) + state_bytes
                        )
                    break
                state = value
                iteration += 1
                started = time.perf_counter()

                status, error, output, counters, scatter_bytes = run_superstep(
                    bcomm, conf,
                    lambda ctx, split: self.o_task(ctx, split, state),
                    lambda ctx: self.a_task(ctx, state),
                    splits, store, cache, iteration, cache_input=True,
                )
                gathered = comm.gather(_dumps((status, error, output, counters)), root=0)

                if is_root:
                    outcomes, gather_bytes, summed, errors = _merge_outcomes(gathered)
                    record = _iteration_record(
                        iteration, summed, state_bytes, scatter_bytes, gather_bytes
                    )
                    per_iteration.append(record)
                    _merge_totals(totals, record)
                    timings.append(time.perf_counter() - started)
                    if errors:
                        pending = ("error", errors[0][1])
                        continue
                    outputs = [outcomes[r][2] for r in range(conf.num_o, comm.size)]
                    try:
                        new_state, done = self.update(
                            state, merge_outputs(outputs), iteration
                        )
                    except Exception as exc:  # noqa: BLE001 - broadcast to all ranks
                        pending = (
                            "error",
                            f"update failed at iteration {iteration}: {exc!r}",
                        )
                        continue
                    root_state = new_state
                    final_outputs = outputs
                    if conf.checkpoint_dir is not None:
                        faultinject.fire(
                            "checkpoint-write", rank=comm.rank, superstep=iteration
                        )
                        write_iteration_state(
                            conf.checkpoint_dir, iteration, new_state
                        )
                    if done or iteration >= self.max_iterations:
                        pending = ("stop", done)
                    else:
                        pending = ("run", new_state)
        finally:
            if store is not None:
                store.cleanup()

        if not is_root:
            return ("rank", None)
        return (
            "root",
            {
                "state": root_state,
                "outputs": final_outputs,
                "iterations": iteration,
                "converged": converged,
                "counters": totals,
                "per_iteration": per_iteration,
                "timings": timings,
            },
        )

    # -- common-mode baseline: a fresh world per iteration ---------------------

    def _run_common(
        self, splits: Sequence[Any], start_state: Any, start_iteration: int
    ) -> IterativeResult:
        conf = self.conf
        iteration = start_iteration
        state = start_state
        converged = False
        final_outputs: list[Any] = []
        per_iteration: list[dict[str, int]] = []
        timings: list[float] = []
        totals: dict[str, int] = {}

        while iteration < self.max_iterations:
            iteration += 1
            superstep = iteration  # bind loop variables for the closure
            current_state = state
            started = time.perf_counter()

            def rank_main(comm: Comm):
                bcomm = BipartiteComm(comm, conf.num_o, conf.num_a)
                is_root = comm.rank == 0
                control = comm.bcast(
                    _dumps(("run", current_state)) if is_root else None, root=0
                )
                _kind, bcast_state = pickle.loads(control)
                state_bytes = len(control) * (comm.size - 1)
                store = None if bcomm.is_o else conf.storage.make_store()
                try:
                    status, error, output, counters, scatter_bytes = run_superstep(
                        bcomm, conf,
                        lambda ctx, split: self.o_task(ctx, split, bcast_state),
                        lambda ctx: self.a_task(ctx, bcast_state),
                        splits, store, None, superstep, cache_input=False,
                    )
                finally:
                    if store is not None:
                        store.cleanup()
                gathered = comm.gather(
                    _dumps((status, error, output, counters)), root=0
                )
                if is_root:
                    return ("root", (gathered, state_bytes, scatter_bytes))
                return ("rank", None)

            rank_results = mpi_run(
                conf.num_o + conf.num_a, rank_main, transport=conf.resolved_transport()
            )
            tag, payload = rank_results[0]
            assert tag == "root"
            gathered, state_bytes, scatter_bytes = payload
            outcomes, gather_bytes, summed, errors = _merge_outcomes(gathered)
            record = _iteration_record(
                iteration, summed, state_bytes, scatter_bytes, gather_bytes
            )
            per_iteration.append(record)
            _merge_totals(totals, record)
            timings.append(time.perf_counter() - started)
            if errors:
                raise MPIError(errors[0][1])
            outputs = [
                outcomes[r][2] for r in range(conf.num_o, conf.num_o + conf.num_a)
            ]
            state, done = self.update(state, merge_outputs(outputs), iteration)
            final_outputs = outputs
            if conf.checkpoint_dir is not None:
                write_iteration_state(conf.checkpoint_dir, iteration, state)
            if done:
                converged = True
                break

        return IterativeResult(
            state=state,
            outputs=final_outputs,
            iterations=iteration,
            converged=converged,
            counters=totals,
            per_iteration=per_iteration,
            timings=timings,
            start_iteration=start_iteration,
        )


# -- Streaming mode ------------------------------------------------------------


@dataclass
class WindowResult:
    """One flushed window of a streaming job."""

    watermark: int  # 1-based window index, flushed in order
    outputs: list[Any]  # per-A-rank outputs for this window
    counters: dict[str, int] = field(default_factory=dict)

    def merged_outputs(self) -> list[Any]:
        return merge_outputs(self.outputs)


@dataclass
class StreamResult:
    """Outcome of a streaming job: every window, in watermark order."""

    windows: list[WindowResult]
    counters: dict[str, int] = field(default_factory=dict)
    timings: list[float] = field(default_factory=list)

    def merged_outputs(self) -> list[Any]:
        return [record for window in self.windows for record in window.merged_outputs()]


class StreamingJob:
    """Windowed O->A pipeline over an unbounded split sequence.

    The root admits at most ``window_splits`` splits per window, scatters
    them to the O ranks, and flushes the A outputs with a watermark before
    admitting the next window — memory is bounded by one window however
    long the stream runs.  O and A tasks keep the Common-mode signatures
    (``o_task(ctx, split)`` / ``a_task(ctx)``); ``ctx.superstep`` carries
    the window index and ``ctx.cache`` persists across windows for tasks
    that want cross-window state.

    Examples:
        Three splits in windows of two — the second window holds the
        stream's tail:

        >>> from repro.datampi import DataMPIConf, StreamingJob
        >>> def o_task(ctx, split):
        ...     for word in split:
        ...         ctx.send(word, 1)
        >>> def a_task(ctx):
        ...     return [(word, sum(ones)) for word, ones in ctx.grouped()]
        >>> conf = DataMPIConf(num_o=2, num_a=1, mode="streaming",
        ...                    transport="inline")
        >>> job = StreamingJob(o_task, a_task, conf, window_splits=2)
        >>> result = job.run(iter([["a"], ["b", "a"], ["b"]]))
        >>> [(w.watermark, w.merged_outputs()) for w in result.windows]
        [(1, [('a', 2), ('b', 1)]), (2, [('b', 1)])]
    """

    def __init__(
        self,
        o_task: Callable,
        a_task: Callable,
        conf: DataMPIConf | None = None,
        window_splits: int | None = None,
    ):
        self.o_task = o_task
        self.a_task = a_task
        self.conf = conf or DataMPIConf(mode="streaming")
        if self.conf.mode != "streaming":
            raise ConfigError(
                f"StreamingJob needs conf.mode='streaming', got {self.conf.mode!r}"
            )
        if window_splits is not None and window_splits < 1:
            raise ConfigError(f"window_splits must be >= 1, got {window_splits}")
        self.window_splits = window_splits or self.conf.num_o

    def run(self, split_stream: Iterable[Any]) -> StreamResult:
        """Consume ``split_stream`` window by window until it is exhausted."""
        conf = self.conf

        def rank_main(comm: Comm):
            return self._rank_loop(comm, split_stream)

        rank_results = mpi_run(
            conf.num_o + conf.num_a, rank_main, transport=conf.resolved_transport()
        )
        tag, payload = rank_results[0]
        assert tag == "root"
        return StreamResult(**payload)

    def _rank_loop(self, comm: Comm, split_stream: Iterable[Any]):
        conf = self.conf
        bcomm = BipartiteComm(comm, conf.num_o, conf.num_a)
        is_root = comm.rank == 0
        cache = conf.storage.make_cache()
        store = None if bcomm.is_o else conf.storage.make_store()

        stream = iter(split_stream) if is_root else None
        watermark = 0
        batch: list[Any] = []
        windows: list[WindowResult] = []
        timings: list[float] = []
        totals: dict[str, int] = {}
        pending: tuple = ()

        try:
            while True:
                if is_root:
                    if pending and pending[0] == "error":
                        pass  # propagate the failure before admitting more input
                    else:
                        batch = list(islice(stream, self.window_splits))
                        pending = ("window", watermark + 1) if batch else ("stop", None)
                control = comm.bcast(_dumps(pending) if is_root else None, root=0)
                kind, value = pickle.loads(control)
                state_bytes = len(control) * (comm.size - 1)
                if kind == "error":
                    raise MPIError(value)
                if kind == "stop":
                    if is_root:
                        totals["mode.shutdown_bytes"] = (
                            totals.get("mode.shutdown_bytes", 0) + state_bytes
                        )
                    break
                watermark = value
                started = time.perf_counter()

                status, error, output, counters, scatter_bytes = run_superstep(
                    bcomm, conf, self.o_task, self.a_task,
                    batch if is_root else None, store, cache, watermark,
                    cache_input=False,
                )
                gathered = comm.gather(_dumps((status, error, output, counters)), root=0)

                if is_root:
                    outcomes, gather_bytes, summed, errors = _merge_outcomes(gathered)
                    record = _iteration_record(
                        watermark, summed, state_bytes, scatter_bytes, gather_bytes
                    )
                    _merge_totals(totals, record)
                    timings.append(time.perf_counter() - started)
                    if errors:
                        pending = ("error", errors[0][1])
                        continue
                    outputs = [outcomes[r][2] for r in range(conf.num_o, comm.size)]
                    windows.append(
                        WindowResult(
                            watermark=watermark, outputs=outputs, counters=record
                        )
                    )
        finally:
            if store is not None:
                store.cleanup()

        if not is_root:
            return ("rank", None)
        return ("root", {"windows": windows, "counters": totals, "timings": timings})
