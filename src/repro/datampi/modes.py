"""Iteration and Streaming execution modes.

The DataMPI specification defines three execution modes; the paper's
experiments exercise only *Common* (run-once O/A jobs, the
:class:`~repro.datampi.job.DataMPIJob` driver).  This module adds the
other two as drivers of :func:`repro.datampi.world.superstep_loop`:

* :class:`IterativeJob` — **Iteration mode**.  One world of O and A ranks
  stays alive across supersteps.  Input splits move through the comm
  layer once and are pinned in a per-rank :class:`KVCache`; every later
  iteration reads them locally, so the per-iteration bytes moved drop by
  exactly the input-scatter volume (the redundant I/O Section 4.5's
  k-means analysis charges against one-job-per-iteration engines).
  Per-iteration state (e.g. centroids) goes from the root to the O ranks
  only — the A task is Common's ``a_task(ctx)`` and never sees it; a
  user-supplied ``update`` function folds the A outputs into the next
  state and decides convergence.

* :class:`StreamingJob` — **Streaming mode**.  An unbounded sequence of
  input splits flows through the O->A pipeline in bounded windows; every
  window is flushed with a watermark (its 1-based window index) before
  the next is admitted, so memory stays bounded by one window.

Both run one control round per superstep — the loop's; what each mode
adds is its binder (how a control tuple becomes tasks) and its step
source (what the root sends next and does with a settled round).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import count, islice
from typing import Any, Callable, Iterable, Sequence

from repro.common.errors import CheckpointError, ConfigError, MPIError
from repro.mpi import faultinject
from repro.mpi.transport.base import world_generation
from repro.datampi.checkpoint import (
    clear_iteration_state,
    read_iteration_state,
    write_iteration_state,
)
from repro.datampi.job import ATask, DataMPIConf, add_counters, merge_outputs
from repro.datampi.world import Binder, Control, RoundOutcome, superstep_loop
from repro.mpi.comm import Comm
from repro.mpi.launcher import mpi_run


def _tally(result: "IterativeResult | StreamResult", outcome: RoundOutcome) -> dict[str, int]:
    """Fold one settled round into a run's totals and timings; returns
    the round's own counter record."""
    record = outcome.record()
    add_counters(result.counters, record)
    result.timings.append(outcome.elapsed)
    return {"superstep": outcome.superstep, **record}


# -- Iteration mode ------------------------------------------------------------

#: o_task(ctx, split, state) — Common's OTask plus the per-iteration state.
IterOTask = Callable[[Any, Any, Any], None]
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
    shuffles, controls and gathers, differing exactly by the re-scattered
    input.  Only the O task reads the state; the A task takes Common's
    ``a_task(ctx)``, and A ranks' controls leave the state out.

    Examples:
        Accumulate split values into ``state`` until the total reaches 10
        (two supersteps: 0 -> 3 -> 12):

        >>> from repro.datampi import DataMPIConf, IterativeJob
        >>> def o_task(ctx, split, state):
        ...     ctx.send(0, split + state)
        >>> def a_task(ctx):
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
        a_task: ATask,
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
        start = (0, initial_state)
        if resume:
            if self.conf.checkpoint_dir is None:
                raise ConfigError("resume needs a checkpoint directory")
            saved = self._checkpointed_start()
            if saved is None:
                raise CheckpointError(
                    f"no iteration checkpoint in {self.conf.checkpoint_dir}"
                )
            start = saved
        elif self.conf.checkpoint_dir is not None:
            # A fresh run must not leave a previous run's iteration state
            # behind: an elastic restart mid-run resumes from this file,
            # and a stale one would silently change where replay begins.
            clear_iteration_state(self.conf.checkpoint_dir)
        steps = _IterationSteps(self, *start)
        if steps.pending[0] == "stop":  # resumed at the iteration bound
            return steps.result
        if self.conf.mode == "common":
            return self._replay_common(splits, steps)
        return self._keep_alive(splits, start)

    def _checkpointed_start(self) -> tuple[int, Any] | None:
        """``(iteration, state)`` of the last *completed* iteration on
        disk, if any: where ``resume=True`` and an elastic restart both
        pick the run up."""
        if self.conf.checkpoint_dir is None:
            return None
        saved = read_iteration_state(self.conf.checkpoint_dir)
        return None if saved is None else (saved["iteration"], saved["state"])

    def _binder(self, iteration: int) -> Binder:
        """One rank's binder: closes the O task over the state an O rank's
        ``("run", state)`` carries (an A rank's ``("run",)`` has none) and
        numbers the superstep after ``iteration``."""
        supersteps = count(iteration + 1)

        def bind(control: Control):
            return (
                self.conf,
                lambda ctx, split: self.o_task(ctx, split, control[1]),
                self.a_task,
                next(supersteps),
            )

        return bind

    # -- iteration mode: one world, kept alive ---------------------------------

    def _keep_alive(
        self, splits: Sequence[Any], start: tuple[int, Any]
    ) -> IterativeResult:
        conf = self.conf

        def rank_main(comm: Comm):
            iteration, state = start
            if world_generation(comm) > 0:
                # Elastic restart: the transport re-formed the world after
                # a rank death, so every rank rejoins from the last
                # *completed* iteration's checkpoint instead of the run's
                # initial state — the interrupted superstep replays from
                # its exact input, so the final state is identical to an
                # uninjected run.
                iteration, state = self._checkpointed_start() or start
            steps = _IterationSteps(self, iteration, state)
            shutdown_bytes = superstep_loop(
                comm, conf.num_o, conf.num_a, conf.storage, self._binder(iteration),
                lambda: steps.step(splits), steps.settle, cache_input=True,
            )
            steps.result.counters["mode.shutdown_bytes"] = shutdown_bytes
            return steps.result if comm.rank == 0 else None

        result = mpi_run(
            conf.num_o + conf.num_a, rank_main, transport=conf.resolved_transport()
        )[0]
        result.start_iteration = start[0]  # the run's, not a restarted world's
        return result

    # -- common-mode baseline: a fresh world per iteration ---------------------

    def _replay_common(
        self, splits: Sequence[Any], steps: "_IterationSteps"
    ) -> IterativeResult:
        """The same rounds, one per fresh world; ``steps`` (and so
        ``update``) stays in the launching process."""
        conf = self.conf
        while steps.pending[0] == "run":
            step, iteration = steps.step(splits), steps.result.iterations
            started = time.perf_counter()

            def rank_main(comm: Comm):
                settled: list[RoundOutcome] = []
                superstep_loop(
                    comm, conf.num_o, conf.num_a, conf.storage, self._binder(iteration),
                    lambda: step, settled.append,
                    cache_input=False, one_round=True,
                )
                return settled

            [outcome] = mpi_run(
                conf.num_o + conf.num_a, rank_main, transport=conf.resolved_transport()
            )[0]
            # A replayed round's wall clock includes forming its world.
            outcome.elapsed = time.perf_counter() - started
            steps.settle(outcome)
        if steps.pending[0] == "error":
            raise MPIError(steps.pending[1])
        return steps.result


class _IterationSteps:
    """An iterative run's step source: the control to send next and the
    result so far.

    Lives on the root rank in Iteration mode and in the launching process
    for the Common replay, so both modes put a round through the same
    ``settle``: fold the counters, run ``update``, checkpoint, pick the
    next control.
    """

    def __init__(self, job: IterativeJob, iteration: int, state: Any):
        self.job = job
        self.result = IterativeResult(
            state=state, outputs=[], iterations=iteration, converged=False,
            start_iteration=iteration,
        )
        self.pending: Control = (
            ("stop", False) if iteration >= job.max_iterations else ("run",)
        )

    def step(self, splits: Sequence[Any]) -> tuple[Control, Control, Sequence[Any]]:
        """The next round for :func:`superstep_loop`: a ``"run"`` carries
        the current state to the O ranks only."""
        o_only = (self.result.state,) if self.pending[0] == "run" else ()
        return self.pending, o_only, splits

    def settle(self, outcome: RoundOutcome) -> None:
        job, result = self.job, self.result
        result.per_iteration.append(_tally(result, outcome))
        result.iterations = iteration = outcome.superstep
        if outcome.error is not None:
            self.pending = ("error", outcome.error)
            return
        try:
            state, done = job.update(
                result.state, merge_outputs(outcome.outputs), iteration
            )
        except Exception as exc:  # noqa: BLE001 - sent to all ranks
            self.pending = ("error", f"update failed at iteration {iteration}: {exc!r}")
            return
        result.state, result.outputs, result.converged = state, outcome.outputs, bool(done)
        if job.conf.checkpoint_dir is not None:
            faultinject.fire("checkpoint-write", rank=0, superstep=iteration)
            write_iteration_state(job.conf.checkpoint_dir, iteration, state)
        if done or iteration >= job.max_iterations:
            self.pending = ("stop", done)
        else:
            self.pending = ("run",)


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
            stream = iter(split_stream) if comm.rank == 0 else None
            watermarks = count(1)
            result = StreamResult(windows=[])
            failure: str | None = None

            def next_step() -> tuple[Control, Control, list[Any] | None]:
                if failure is not None:  # propagate it before admitting more input
                    return ("error", failure), (), None
                batch = list(islice(stream, self.window_splits))
                if not batch:
                    return ("stop", None), (), None
                return ("window", next(watermarks)), (), batch

            def settle(outcome: RoundOutcome) -> None:
                nonlocal failure
                record = _tally(result, outcome)
                failure = outcome.error
                if failure is None:
                    result.windows.append(WindowResult(
                        watermark=outcome.superstep, outputs=outcome.outputs,
                        counters=record,
                    ))

            shutdown_bytes = superstep_loop(
                comm, conf.num_o, conf.num_a, conf.storage,
                lambda control: (conf, self.o_task, self.a_task, control[1]),
                next_step, settle, cache_input=False,
            )
            result.counters["mode.shutdown_bytes"] = shutdown_bytes
            return result if comm.rank == 0 else None

        return mpi_run(
            conf.num_o + conf.num_a, rank_main, transport=conf.resolved_transport()
        )[0]
