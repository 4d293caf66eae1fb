"""Rank supervision for the process transports: fork, collect, poison, reap.

``shm`` and ``tcp`` run each rank as a forked process that reports one
outcome — ``("ok", result)`` or ``("err", exception)`` — to the launcher.
The lifecycle around that is written once, here; a transport supplies
only what differs: how to ``read`` an outcome off a rank's channel and how
to ``poison`` the ranks still running.  Which error the run finally
raises is :func:`~repro.mpi.transport.base.raise_rank_errors`' decision,
shared with the in-process transports.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing import connection
from typing import Any, Callable, Sequence

from repro.common.errors import MPIError
from repro.mpi import faultinject
from repro.mpi.transport.base import raise_rank_errors

#: Seconds a terminated rank gets to exit before it is killed outright.
REAP_GRACE = 5.0

#: What ``read`` returns for a message that is not an outcome (a stray).
KEEP_WAITING: Any = object()

Outcome = tuple[str, Any]


def fork_context(what: str, otherwise: str) -> Any:
    """The ``fork`` multiprocessing context (rank closures need no
    pickling under fork); ``MPIError`` where the platform has none."""
    if "fork" not in multiprocessing.get_all_start_methods():
        raise MPIError(
            f"{what} needs the fork start method (unavailable on this "
            f"platform); {otherwise}"
        )
    return multiprocessing.get_context("fork")


class ForkedRanks:
    """The rank processes one run forked, in spawn order."""

    def __init__(self, ctx: Any):
        self._ctx = ctx
        self.processes: list[Any] = []

    def spawn(self, name: str, target: Callable[[], None],
              plan: "faultinject.FaultPlan | None") -> None:
        """Fork a daemon process running ``target`` under ``plan``.  The
        child inherits the parent's injector state, so its own plan is
        installed first (``None`` clears stale state) and only then is the
        process marked safe to hard-kill."""

        def child() -> None:
            faultinject.install(plan)
            faultinject.mark_killable()
            target()

        process = self._ctx.Process(target=child, name=name, daemon=True)
        self.processes.append(process)
        process.start()

    def reap(self) -> None:
        """End every rank still alive: ``terminate``, a grace period, then
        ``kill`` for one that ignored the signal — no rank outlives its world."""
        for process in self.processes:
            if process.is_alive():
                process.terminate()
            process.join(REAP_GRACE)
            if process.is_alive():
                process.kill()
                process.join()


def report_outcome(
    send: Callable[[Outcome], Any], rank: int, outcome: Outcome
) -> None:
    """Rank side: hand ``outcome`` to ``send``; one that cannot be encoded
    (an unpicklable result or exception attribute) degrades to an
    ``MPIError`` carrying its repr and the encode failure.  ``send`` must
    encode before it writes a byte, so the retry finds the channel aligned.
    """
    try:
        send(outcome)
    except Exception as exc:  # noqa: BLE001 - unpicklable closures, sockets, ...
        send(("err", MPIError(
            f"rank {rank}: {outcome[1]!r} could not be sent "
            f"({type(exc).__name__}: {exc})"
        )))


def collect_outcomes(
    channels: Sequence[Any],
    read: Callable[[int], "Outcome | None"],
    poison: Callable[[list[int]], None],
    timeout: float,
    processes: Sequence[Any] = (),
    deadline: float | None = None,
) -> tuple[list[Any], list[tuple[int, BaseException]], set[int]]:
    """Launcher side: one outcome per rank → ``(results, errors, dead)``.

    ``channels[rank]`` is anything ``multiprocessing.connection.wait``
    accepts (a pipe end, a socket).  ``read(rank)`` is called once it is
    readable and returns the outcome, ``None`` for a closed or torn
    channel, or :data:`KEEP_WAITING`.  The first failure calls ``poison``,
    once, with the ranks still running.  ``dead`` holds the ranks that
    ended without an outcome (each also has its entry in ``errors``).

    With ``processes`` each child's sentinel is watched too: forked ranks
    inherit every pipe's write end, so a killed rank never EOFs its own
    pipe — only the sentinel reveals the death — and an outcome the child
    left behind before exiting is still taken.  Without (externally
    joined ranks) a closed channel alone is death.

    Past the deadline — ``timeout`` from now, unless the caller's run
    already has one — the lowest-rank *cause* reported so far is raised,
    or "did not finish" naming ``timeout`` when none is known.
    """
    results: list[Any] = [None] * len(channels)
    errors: list[tuple[int, BaseException]] = []
    dead: set[int] = set()
    pending = set(range(len(channels)))
    owner = {channel: rank for rank, channel in enumerate(channels)}
    owner.update((process.sentinel, rank) for rank, process in enumerate(processes))
    if deadline is None:
        deadline = time.monotonic() + timeout
    while pending:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise_rank_errors(errors, MPIError(
                f"ranks {sorted(pending)} did not finish in {timeout}s"
            ))
        watched = [item for item, rank in owner.items() if rank in pending]
        for item in connection.wait(watched, remaining):
            rank = owner[item]
            if rank not in pending:
                continue  # channel and sentinel woke together; handled
            gone = item is not channels[rank]  # the sentinel: the child exited
            outcome = None
            if not gone or connection.wait([channels[rank]], 0):
                outcome = read(rank)
                if outcome is KEEP_WAITING:
                    continue
            pending.discard(rank)
            if outcome is None:
                dead.add(rank)
                if gone:  # the sentinel can beat the exit status by a moment
                    processes[rank].join(REAP_GRACE)
                code = processes[rank].exitcode if processes else None
                outcome = ("err", MPIError(
                    f"rank {rank} died without reporting a result"
                    + ("" if code is None else f" (exit code {code})")
                ))
            status, value = outcome
            if status == "ok":
                results[rank] = value
                continue
            if not errors:
                poison(sorted(pending))
            errors.append((rank, value))
    return results, errors, dead
