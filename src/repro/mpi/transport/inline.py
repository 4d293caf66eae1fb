"""Inline transport: deterministic cooperative scheduling for unit tests.

Ranks still get real call stacks (each runs on its own thread so a
blocking ``recv`` — and every collective built on it — works unchanged),
but a scheduler enforces that exactly **one** rank executes at any moment
and hands control off at blocking receives only, always resuming the
lowest-numbered runnable rank.
Two consequences make this the right backend for tests:

* runs are fully deterministic — message arrival order, collective
  ordering, and interleavings never vary between executions;
* deadlock is detected *immediately* (no runnable rank left) instead of
  after ``RECV_TIMEOUT``, so a hanging test fails in milliseconds.

Like the thread backend, payloads move by reference (nothing is framed
or pickled); :meth:`repro.mpi.comm.Comm.send` snapshots mutable byte
buffers up front, so delivered payloads are immutable here too.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from repro.common.errors import MPIError
from repro.mpi import faultinject
from repro.mpi.transport.base import (
    JOIN_TIMEOUT,
    Endpoint,
    Message,
    PoisonedError,
    Transport,
    match,
    register_transport,
    run_rank_threads,
)

_START = "start"
_RUNNING = "running"
_RECV = "recv"
_DONE = "done"


class _RankState:
    def __init__(self) -> None:
        self.state = _START
        self.want: tuple[int, int] | None = None  # (source, tag) when in recv
        self.gate = threading.Event()


class _InlineWorld:
    """Shared scheduler state: mailboxes, rank states, the hand-off token."""

    def __init__(self, size: int):
        self.size = size
        self.mailboxes: list[list[Message]] = [[] for _ in range(size)]
        self.ranks = [_RankState() for _ in range(size)]
        self.sched_wake = threading.Event()
        self.poisoned = False

    # -- called from rank threads (which hold the execution token) ------------

    def yield_to_scheduler(self, rank: int, state: str) -> None:
        """Block this rank and pass the token back; raises if poisoned."""
        record = self.ranks[rank]
        record.state = state
        record.gate.clear()
        self.sched_wake.set()
        record.gate.wait()
        record.state = _RUNNING
        if self.poisoned:
            raise PoisonedError(
                f"deadlock: rank {rank} blocked with no runnable peer "
                "(peer died or every rank is waiting)"
            )

    def take_match(self, rank: int, source: int, tag: int) -> Message | None:
        mailbox = self.mailboxes[rank]
        for index, message in enumerate(mailbox):
            if match(message, source, tag):
                return mailbox.pop(index)
        return None

    # -- called from the scheduler (caller) thread -----------------------------

    def runnable(self, rank: int) -> bool:
        record = self.ranks[rank]
        if record.state == _START:
            return True
        if record.state == _RECV:
            assert record.want is not None
            source, tag = record.want
            if self.poisoned:
                return True
            return any(match(m, source, tag) for m in self.mailboxes[rank])
        return False

    def finished(self) -> bool:
        return all(r.state == _DONE for r in self.ranks)


class InlineEndpoint(Endpoint):
    """One rank's cooperative handle; blocking ops yield to the scheduler."""

    def __init__(self, world: _InlineWorld, rank: int):
        self.world = world
        self.rank = rank
        self.size = world.size

    def send(self, dest: int, message: Message) -> None:
        # Non-blocking: the sender keeps the token, delivery order is the
        # (deterministic) program order of sends.
        self.world.mailboxes[dest].append(message)

    def recv(self, source: int, tag: int, timeout: float) -> Message:
        record = self.world.ranks[self.rank]
        while True:
            message = self.world.take_match(self.rank, source, tag)
            if message is not None:
                return message
            record.want = (source, tag)
            self.world.yield_to_scheduler(self.rank, _RECV)


@register_transport
class InlineTransport(Transport):
    """Run ranks one at a time under a deterministic rank-order scheduler."""

    name = "inline"

    def __init__(self, fault_plan=None):
        # In-process ranks: like the thread backend, injected kills
        # degrade to a FaultInjected raise (deterministic fail-fast).
        self.fault_plan = faultinject.parse_fault_plan(fault_plan)

    def run(
        self,
        world_size: int,
        main: Callable[..., Any],
        args: tuple = (),
        timeout: float = JOIN_TIMEOUT,
    ) -> list[Any]:
        from repro.mpi.comm import Comm  # local import: comm builds on this package

        if world_size < 1:
            raise MPIError(f"world size must be >= 1, got {world_size}")
        world = _InlineWorld(world_size)

        def rank_main(rank: int) -> Any:
            record = world.ranks[rank]
            record.gate.wait()  # first grant from the scheduler
            try:
                faultinject.fire("rendezvous", rank=rank)
                return main(Comm(InlineEndpoint(world, rank)), *args)
            finally:
                record.state = _DONE  # returned or raised: the token is free
                world.sched_wake.set()

        return run_rank_threads(
            world_size, rank_main, "inline-rank", timeout, self.fault_plan,
            drive=lambda deadline: self._schedule(world, deadline),
        )

    @staticmethod
    def _schedule(world: _InlineWorld, deadline: float) -> None:
        """Grant the token to the lowest runnable rank until every rank is
        done — or one holds it past the run's deadline, which the caller
        reports (that rank's thread is still alive)."""
        while not world.finished():
            chosen = next(
                (rank for rank in range(world.size) if world.runnable(rank)), None
            )
            if chosen is None:
                if world.poisoned:
                    raise MPIError("inline scheduler wedged after poisoning")
                # Every unfinished rank is blocked on something that can
                # never happen: deadlock.  Poison so blocked ranks raise.
                world.poisoned = True
                continue
            world.sched_wake.clear()
            world.ranks[chosen].gate.set()
            if not world.sched_wake.wait(max(0.0, deadline - time.monotonic())):
                return
