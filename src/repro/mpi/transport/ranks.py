"""Rank supervision for the process transports: fork, collect, poison, reap.

``shm`` and ``tcp`` run each rank as a forked process that reports one
outcome — ``("ok", result)`` or ``("err", exception)`` — to the launcher
as a ``KIND_OUTCOME`` frame on its control socket, the socket the
launcher answers on with ``KIND_ABORT`` poison and the final
``KIND_SHUTDOWN``.  The lifecycle around that is written once, here, for
both; the transports differ only in how the sockets are made.  Which
error the run finally raises is
:func:`~repro.mpi.transport.base.raise_rank_errors`' decision, shared
with the in-process transports.
"""

from __future__ import annotations

import multiprocessing
import socket
import time
from multiprocessing import connection
from typing import Any, Callable, Sequence

from repro.common.errors import MPIError
from repro.mpi import faultinject
from repro.mpi.transport import channel
from repro.mpi.transport.base import raise_rank_errors
from repro.mpi.transport.codec import recv_frame

# -- frame kinds (one byte) -----------------------------------------------------
KIND_DATA = 1      #: point-to-point payload (tag = message tag)
KIND_ABORT = 2     #: poison: a peer rank failed, blocked receives must raise
KIND_REGISTER = 3  #: rank -> rendezvous: (rank | None, host, port)
KIND_ADDRS = 4     #: rendezvous -> rank: {"rank": r, "addrs": [(host, port)]}
KIND_OUTCOME = 5   #: rank -> launcher: (rank, "ok" | "err", value)
KIND_SHUTDOWN = 6  #: launcher -> rank: world complete, tear down
KIND_RESTART = 7   #: launcher -> rank: world restarting, re-register

#: Seconds a terminated rank gets to exit before it is killed outright.
REAP_GRACE = 5.0

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
        #: Each process's exit code, kept by ``reap`` as it closes them.
        self.exitcodes: list[int | None] = []

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
        ``kill`` for one that ignored the signal — no rank outlives its world.
        Each process is then closed, its exit code kept in ``exitcodes``:
        a closed process holds no descriptors, even while a traceback keeps
        this object alive."""
        for process in self.processes:
            if process.is_alive():
                process.terminate()
            process.join(REAP_GRACE)
            if process.is_alive():
                process.kill()
                process.join()
            self.exitcodes.append(process.exitcode)
            process.close()


def report_outcome(control: socket.socket, rank: int, outcome: Outcome) -> None:
    """Rank side: send ``outcome`` as a ``KIND_OUTCOME`` frame on
    ``control``.  One that cannot be encoded (an unpicklable result or
    exception attribute, a frame over the cap) degrades to an ``MPIError``
    carrying its repr and the encode failure; the codec encodes before it
    writes a byte, so the retry finds the socket aligned.  A torn socket
    is left to the launcher, which reads its EOF as a death."""
    try:
        channel.try_send_frame(control, KIND_OUTCOME, obj=(rank, *outcome))
    except Exception as exc:  # noqa: BLE001 - unpicklable closures, sockets, ...
        unsent = MPIError(f"rank {rank}: {outcome[1]!r} could not be sent "
                          f"({type(exc).__name__}: {exc})")
        channel.try_send_frame(control, KIND_OUTCOME, obj=(rank, "err", unsent))


def collect_outcomes(
    channels: Sequence[socket.socket],
    timeout: float,
    processes: Sequence[Any] = (),
    deadline: float | None = None,
) -> tuple[list[Any], list[tuple[int, BaseException]], set[int]]:
    """Launcher side: one outcome per rank → ``(results, errors, dead)``.

    ``channels[rank]`` is the launcher's end of rank ``rank``'s control
    socket.  A frame other than an outcome is skipped; a closed or torn
    socket is a death.  The first failure sends ``KIND_ABORT``, once, to
    every rank still running.  ``dead`` holds the ranks that ended without
    an outcome (each also has its entry in ``errors``).

    With ``processes`` each child's sentinel is watched too: a process
    forked at the same moment by another thread can inherit a rank's
    control end before the launcher closes it, so a killed rank's socket
    need not EOF — only the sentinel reveals the death — and an outcome
    the child left behind before exiting is still taken.  Without
    (externally joined ranks) a closed socket alone is death.

    Past the deadline — ``timeout`` from now, unless the caller's run
    already has one — the lowest-rank *cause* reported so far is raised,
    or "did not finish" naming ``timeout`` when none is known.
    """
    results: list[Any] = [None] * len(channels)
    errors: list[tuple[int, BaseException]] = []
    dead: set[int] = set()
    pending = set(range(len(channels)))
    owner: dict[Any, int] = {sock: rank for rank, sock in enumerate(channels)}
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
                continue  # socket and sentinel woke together; handled
            gone = item is not channels[rank]  # the sentinel: the child exited
            outcome = None
            if not gone or connection.wait([channels[rank]], 0):
                try:
                    frame = recv_frame(channels[rank])
                except (MPIError, OSError):
                    frame = None  # a torn socket is a death
                if frame is not None:
                    kind, _tag, obj = frame
                    if kind != KIND_OUTCOME:
                        continue  # a stray frame
                    outcome = obj[1:]
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
                for running in sorted(pending):
                    channel.try_send_frame(channels[running], KIND_ABORT)
            errors.append((rank, value))
    return results, errors, dead
