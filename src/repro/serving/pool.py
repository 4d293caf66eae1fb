"""A warm rank pool: one O/A world serving a stream of small jobs.

The paper's small-jobs result (fig5) is a statement about *startup
overhead*: DataMPI beats Hadoop exactly where per-job setup dominates
the work.  This module removes that overhead from our own runtime.  A
:class:`WorldPool` forms one bipartite O/A world per transport **once**
— paying fork/rendezvous/socket construction a single time — and
then serves an unbounded stream of job submissions on the live ranks:

* jobs are **registered by name before the world starts** (fork-based
  transports inherit the task callables through the fork, so nothing but
  plain data ever crosses a pipe);
* :meth:`WorldPool.submit` hands the named job an input and returns a
  :class:`JobFuture`; the world runs the exact same superstep pipeline a
  cold :class:`~repro.datampi.job.DataMPIJob` runs, so pooled outputs
  are byte-identical to cold-world runs on every transport;
* between jobs every rank is **recycled** with
  :func:`repro.datampi.world.recycle_world` — the ``o.splits`` and
  ``a.output`` pins and whatever a task cached are cleared alongside
  ``ChunkStore.reset()`` (unread, so never sized) so job N's state can
  never leak into job N+1;
* a failed task fails *its submission's* future, not the pool: the
  failure travels the outcome gather like any mode driver's, and the
  world keeps serving.

Plumbing: the frontend talks to rank 0 over a request pipe and hears
back over a result pipe, both created before the world starts so
forked ranks inherit them.  The world runs
:func:`repro.datampi.world.superstep_loop` — the round Iteration and
Streaming mode run — with the request pipe as its step source: rank 0
sends every rank each request's ``("job", seq, name)`` (every rank takes the
same branch), with each O rank's stride of the submitted splits riding
that rank's scatter slot, so input crosses the wire once — to the O rank
that owns it — the world runs one superstep and is recycled, and rank 0
answers the result pipe with the settled round.  The pool runs its world
itself: a ``worldpool-world`` thread calls the transport's ``run`` (fork-based
backends fork from it) and, once every rank is reaped, records why the
world ended and writes the result pipe's one goodbye, so the goodbye is
always the pipe's last message.  A ``worldpool-dispatch`` thread blocks
on the result pipe, resolving futures until that goodbye, then fails
whatever is still pending with the recorded cause.

Example::

    from repro.datampi import DataMPIConf, DataMPIJob
    from repro.serving import WorldPool

    job = DataMPIJob(o_task, a_task, DataMPIConf(num_o=2, num_a=2))
    with WorldPool(num_o=2, num_a=2, transport="shm") as pool:
        pool.register("wordcount", job)
        pool.start()
        futures = [pool.submit("wordcount", splits) for splits in batches]
        results = [f.result() for f in futures]
"""

from __future__ import annotations

import multiprocessing
import threading
from itertools import count
from typing import Any, Sequence

from repro.common.errors import ConfigError, JobError, MPIError
from repro.datampi.job import DataMPIJob, JobResult
from repro.datampi.world import Control, RoundOutcome, superstep_loop
from repro.storage import StorageConfig
from repro.mpi import faultinject
from repro.mpi.comm import Comm
from repro.mpi.transport import get_transport

#: Default bound on a pool world's whole lifetime, in seconds.  This is
#: the transport ``run`` timeout, so it must cover the pool's service
#: window, not one job.  Finite on purpose: an abandoned pool must not
#: outlive its process group, and ``math.inf`` does not survive every
#: backend's join/poll arithmetic.
DEFAULT_WORLD_TIMEOUT = 3600.0


class JobFuture:
    """Result of one pooled submission, resolved by the pool's dispatcher."""

    def __init__(self, seq: int, name: str):
        self.seq = seq
        self.name = name
        self._done = threading.Event()
        self._result: JobResult | None = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> JobResult:
        """Block until the submission finishes; raises its failure."""
        if not self._done.wait(timeout):
            raise JobError(
                f"pooled job {self.name!r} (submission {self.seq}) "
                f"not done after {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    # -- dispatcher side -------------------------------------------------------

    def _resolve(self, result: JobResult) -> None:
        self._result = result
        self._done.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._done.set()


class WorldPool:
    """A persistent pre-forked O/A world serving small jobs by name.

    The pool lifecycle is ``register* -> start -> submit* -> close``:
    registration must finish before :meth:`start` because fork-based
    transports capture the task callables at fork time; submissions carry
    only picklable input data.  :meth:`close` (or the context manager
    exit) shuts the world down and reports any in-flight failures.

    Examples:
        >>> from repro.datampi import DataMPIConf, DataMPIJob
        >>> def o_task(ctx, split):
        ...     for word in split:
        ...         ctx.send(word, 1)
        >>> def a_task(ctx):
        ...     return [(key, sum(values)) for key, values in ctx.grouped()]
        >>> job = DataMPIJob(o_task, a_task, DataMPIConf(num_o=2, num_a=1))
        >>> with WorldPool(num_o=2, num_a=1, transport="thread") as pool:
        ...     _ = pool.register("wc", job).start()
        ...     first = pool.run_job("wc", [["a", "b"], ["a"]])
        ...     second = pool.run_job("wc", [["c"], ["c", "c"]])
        >>> sorted(dict(first.merged_outputs()).items())
        [('a', 2), ('b', 1)]
        >>> dict(second.merged_outputs())
        {'c': 3}
    """

    def __init__(
        self,
        num_o: int = 4,
        num_a: int = 4,
        transport: Any = None,
        *,
        world_timeout: float = DEFAULT_WORLD_TIMEOUT,
        storage: StorageConfig | None = None,
    ):
        if num_o < 1 or num_a < 1:
            raise ConfigError(
                f"num_o and num_a must be >= 1 (got {num_o}, {num_a})"
            )
        if world_timeout <= 0:
            raise ConfigError("world_timeout must be positive")
        self.num_o = num_o
        self.num_a = num_a
        self.transport = transport
        self.world_timeout = world_timeout
        #: Budgets for the world's long-lived per-rank cache and chunk
        #: store.  Pool-owned on purpose: registered jobs share one world,
        #: so their confs' storage settings cannot apply per submission.
        self.storage = storage or StorageConfig()
        self._jobs: dict[str, DataMPIJob] = {}
        self._world: threading.Thread | None = None
        self._dispatcher: threading.Thread | None = None
        self._lock = threading.Lock()
        self._seq = 0  #: guarded-by _lock
        self._pending: dict[int, JobFuture] = {}  #: guarded-by _lock
        #: Why the world ended; None while it runs.  guarded-by _lock
        self._world_error: BaseException | None = None
        self._closed = False
        self._request_send = None  # parent -> rank 0
        self._result_recv = None  # rank 0 -> parent

    # -- registration ----------------------------------------------------------

    def register(self, name: str, job: DataMPIJob) -> "WorldPool":
        """Make ``job`` submittable as ``name``; must precede :meth:`start`.

        The job's O/A shape must match the pool's world shape; its
        per-job shuffle knobs (sort, partitioner, combiner, buffer sizes)
        are honoured per submission, so differently-configured jobs can
        share one world.  The job's own ``transport``/``checkpoint_dir``
        are ignored — the pool owns the world and writes no checkpoints.
        """
        if self._world is not None:
            raise ConfigError(
                "jobs must be registered before the pool starts (fork-based "
                "transports capture the task callables at fork time)"
            )
        if job.conf.num_o != self.num_o or job.conf.num_a != self.num_a:
            raise ConfigError(
                f"job {name!r} wants a {job.conf.num_o}x{job.conf.num_a} "
                f"world, pool is {self.num_o}x{self.num_a}"
            )
        self._jobs[name] = job
        return self

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "WorldPool":
        """Form the world (the one-time fork/rendezvous cost) and begin serving."""
        if self._world is not None:
            raise ConfigError("pool already started")
        if self._closed:
            raise ConfigError("pool is closed")
        if not self._jobs:
            raise ConfigError("register at least one job before start()")
        # Unidirectional pipes, created *before* the world starts so
        # fork-based backends hand the rank-0 ends to the child across
        # the fork.
        request_recv, request_send = multiprocessing.Pipe(duplex=False)
        result_recv, result_send = multiprocessing.Pipe(duplex=False)
        self._request_send = request_send
        self._result_recv = result_recv

        jobs = dict(self._jobs)
        num_o, num_a = self.num_o, self.num_a
        idle_timeout = self.world_timeout
        storage = self.storage

        def rank_main(comm: Comm) -> None:
            """Every rank's main: serve submissions until a stop request."""
            supersteps = count(1)
            request: Control = ()

            def bind(control: Control):
                _kind, _seq, name = control
                superstep = next(supersteps)
                faultinject.fire("pool-submit", rank=comm.rank, superstep=superstep)
                return jobs[name].conf, jobs[name].o_task, jobs[name].a_task, superstep

            def next_step() -> tuple[Control, Control, Sequence[Any] | None]:
                nonlocal request
                request = request_recv.recv()
                if request[0] != "job":
                    return request, (), None
                # The control names only the job to run; each O rank's
                # stride of the input rides its own scatter slot.
                return request[:3], (), request[3]

            def settle(outcome: RoundOutcome) -> None:
                # A failed task fails this submission, not the world.
                if outcome.error is not None:
                    result_send.send((request[1], "err", outcome.error))
                    return
                payload = {"outputs": outcome.outputs, "counters": outcome.counters}
                result_send.send((request[1], "ok", payload))

            superstep_loop(
                comm, num_o, num_a, storage, bind, next_step, settle,
                cache_input=True, recycle=True, idle_timeout=idle_timeout,
            )

        transport = get_transport(self.transport)
        # Elastic transports (tcp with respawns) re-form the world after a
        # rank death instead of failing it.  The pool keeps serving, but a
        # submission that was in flight when the rank died must fail now —
        # its result is gone with the dead rank.
        listeners = getattr(transport, "restart_listeners", None)
        if listeners is not None:
            listeners.append(self._on_world_restart)

        def run_world() -> None:
            """Run the world, record why it ended, then say the one goodbye.

            ``run`` returns only once every rank is reaped, so rank 0's
            last answer is already in the result pipe: the goodbye is
            always the pipe's last message.
            """
            try:
                transport.run(num_o + num_a, rank_main, timeout=self.world_timeout)
                error: BaseException = MPIError("pool world exited")
            except BaseException as exc:  # noqa: BLE001 - fails pending futures
                error = exc
            if listeners is not None:
                listeners.remove(self._on_world_restart)
            with self._lock:
                self._world_error = error
            result_send.send(None)

        self._world = threading.Thread(
            target=run_world, name="worldpool-world", daemon=True
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="worldpool-dispatch", daemon=True
        )
        self._world.start()
        self._dispatcher.start()
        return self

    def submit(self, name: str, splits: Sequence[Any]) -> JobFuture:
        """Queue one job on the warm world; returns its future.

        Thread-safe: concurrent submitters interleave at the request
        pipe and are resolved by sequence number.
        """
        if self._world is None:
            raise ConfigError("pool not started")
        if name not in self._jobs:
            raise ConfigError(
                f"unknown job {name!r}; registered: {sorted(self._jobs)}"
            )
        with self._lock:
            if self._closed:
                raise ConfigError("pool is closed")
            if self._world_error is not None:
                raise JobError(f"pool world died: {self._world_error!r}")
            self._seq += 1
            future = JobFuture(self._seq, name)
            self._pending[future.seq] = future
            self._request_send.send(("job", future.seq, name, list(splits)))
        return future

    def run_job(self, name: str, splits: Sequence[Any]) -> JobResult:
        """Submit and wait: the warm-path equivalent of ``DataMPIJob.run``."""
        return self.submit(name, splits).result(timeout=self.world_timeout)

    def close(self) -> None:
        """Stop the world and fail any still-pending submissions."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._world is not None and self._world_error is None:
                self._request_send.send(("stop",))
        if self._world is not None:
            self._world.join(self.world_timeout)
            self._dispatcher.join(self.world_timeout)
        with self._lock:
            self._fail_pending_locked()

    def __enter__(self) -> "WorldPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- dispatcher ------------------------------------------------------------

    def _on_world_restart(self, generation: int, dead_ranks: list[int]) -> None:
        """Transport callback: the world was re-formed after rank death(s).

        In-flight submissions fail with a cause naming the dead rank(s);
        the pool itself stays up and serves the next submission on the
        recovered world.
        """
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
        ranks = ", ".join(str(r) for r in dead_ranks)
        for future in pending:
            future._fail(JobError(
                f"pooled job {future.name!r} (submission {future.seq}) lost: "
                f"rank(s) {ranks} died mid-job; world recovered as "
                f"generation {generation}"
            ))

    def _dispatch_loop(self) -> None:
        """Resolve futures from the result pipe until the world's goodbye."""
        while (message := self._result_recv.recv()) is not None:
            seq, status, payload = message
            with self._lock:
                future = self._pending.pop(seq, None)
            if future is None:
                continue
            if status == "ok":
                future._resolve(JobResult(**payload))
            else:
                future._fail(JobError(payload))
        with self._lock:
            self._fail_pending_locked()

    def _fail_pending_locked(self) -> None:
        error = self._world_error or JobError(
            "pool closed with submissions in flight")
        for future in self._pending.values():
            future._fail(error)
        self._pending.clear()
