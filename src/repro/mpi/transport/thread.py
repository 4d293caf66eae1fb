"""Threaded transport: ranks are threads in one process (the original
substrate).

This is the default backend: startup is free and payloads are passed by
reference, but the GIL serialises Python-level compute across ranks —
which is exactly the limitation the ``shm`` backend removes.

Reference passing is safe under the data-plane contract because
:meth:`repro.mpi.comm.Comm.send` snapshots mutable byte buffers before
they reach any endpoint: what lands in a mailbox is immutable, so the
zero-serialization hot path here needs no defensive copy of its own.
"""

from __future__ import annotations

import threading
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


class Mailbox:
    """Thread-safe mailbox with selective (source, tag) receive."""

    def __init__(self) -> None:
        self._items: list[Message] = []  #: guarded-by _cond
        self._cond = threading.Condition()
        self._poisoned = False  #: guarded-by _cond

    def put(self, message: Message) -> None:
        with self._cond:
            self._items.append(message)
            self._cond.notify_all()

    def poison(self) -> None:
        """Fail the owning rank's next unmatched receive immediately.

        Called when a peer dies: a rank blocked on a message that can now
        never arrive must raise right away instead of waiting out the
        receive timeout (the process backends' ABORT frames and the inline
        scheduler's deadlock poisoning already behave this way; this
        brings the thread backend's rank lifecycle in line).
        """
        with self._cond:
            self._poisoned = True
            self._cond.notify_all()

    def get(self, source: int, tag: int, timeout: float) -> Message:
        def find() -> int | None:
            for index, message in enumerate(self._items):
                if match(message, source, tag):
                    return index
            return None

        with self._cond:
            index = find()
            while index is None:
                if self._poisoned:
                    raise PoisonedError(
                        "recv aborted: a peer rank failed while waiting for "
                        f"source={source} tag={tag}"
                    )
                if not self._cond.wait(timeout):
                    raise MPIError(
                        f"recv timed out after {timeout}s waiting for "
                        f"source={source} tag={tag}"
                    )
                index = find()
            return self._items.pop(index)


class World:
    """Shared state of one threaded MPI world: one mailbox per rank."""

    def __init__(self, size: int):
        if size < 1:
            raise MPIError(f"world size must be >= 1, got {size}")
        self.size = size
        self.mailboxes = [Mailbox() for _ in range(size)]

    def abort(self) -> None:
        """Poison every rank's mailbox after a rank death, so peers blocked
        in receives or collectives fail fast instead of timing out."""
        for mailbox in self.mailboxes:
            mailbox.poison()


class ThreadEndpoint(Endpoint):
    """One rank's view of a threaded :class:`World`."""

    def __init__(self, world: World, rank: int):
        if not 0 <= rank < world.size:
            raise MPIError(f"rank {rank} out of range for world of {world.size}")
        self.world = world
        self.rank = rank
        self.size = world.size

    def send(self, dest: int, message: Message) -> None:
        self.world.mailboxes[dest].put(message)

    def recv(self, source: int, tag: int, timeout: float) -> Message:
        return self.world.mailboxes[self.rank].get(source, tag, timeout)


@register_transport
class ThreadTransport(Transport):
    """Run every rank as a daemon thread sharing one :class:`World`.

    Ranks share the host interpreter, so a ``kill`` fault-plan rule
    cannot take one down without taking everything: injected kills
    degrade to an in-rank :class:`~repro.mpi.faultinject.FaultInjected`
    raise, exercising the same fail-fast abort path a real rank error
    takes.
    """

    name = "thread"

    def __init__(self, fault_plan=None):
        self.fault_plan = faultinject.parse_fault_plan(fault_plan)

    def run(
        self,
        world_size: int,
        main: Callable[..., Any],
        args: tuple = (),
        timeout: float = JOIN_TIMEOUT,
    ) -> list[Any]:
        from repro.mpi.comm import Comm  # local import: comm builds on this package

        world = World(world_size)

        def rank_main(rank: int) -> Any:
            endpoint = ThreadEndpoint(world, rank)
            try:
                faultinject.fire("rendezvous", rank=rank)
                return main(Comm(endpoint), *args)
            except BaseException:
                world.abort()
                raise

        return run_rank_threads(world_size, rank_main, "mpi-rank", timeout, self.fault_plan)
