"""The MPI programming interface (stands in for MVAPICH2's API surface).

The paper runs DataMPI over MVAPICH2-2.0b.  This module provides the MPI
subset DataMPI needs — point-to-point send/receive with source and tag
matching, barrier, and a handful of collectives.  *How* ranks execute and
how bytes cross between them is delegated to a pluggable transport
endpoint (see :mod:`repro.mpi.transport`): threads in one process, forked
processes over sockets, or a deterministic inline scheduler.
Whatever the backend, message delivery is FIFO per (source, destination)
pair, matching MPI's non-overtaking guarantee.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Any, Callable

from repro.common.errors import MPIError
from repro.mpi.transport.base import (
    ANY_SOURCE,
    ANY_TAG,
    RECV_TIMEOUT,
    Endpoint,
    Message,
)

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "RECV_TIMEOUT",
    "Comm",
    "Message",
]


class Comm:
    """One rank's handle on the world — the object user code programs against.

    ``Comm(endpoint)`` wraps any transport endpoint.  Every collective —
    barrier included — is built from the endpoint's send/recv, so all
    backends share one semantics.
    """

    def __init__(self, endpoint: Endpoint):
        self.endpoint = endpoint
        self.rank = endpoint.rank
        self._collective_seq = 0

    @property
    def size(self) -> int:
        return self.endpoint.size

    # -- point to point -------------------------------------------------------

    def send(self, dest: int, payload: Any, tag: int = 0) -> None:
        """Deliver ``payload`` to ``dest`` (asynchronous, buffered).

        User tags lie in ``[0, _COLLECTIVE_TAG_BASE)``; the tags above
        belong to the collectives, so a user message can never satisfy a
        collective's receive.

        Mutable byte buffers (``bytearray``, writable ``memoryview``) are
        snapshotted here: every backend then delivers the bytes as they
        were at the moment of the send, even when the transport passes
        payloads by reference (thread, inline).
        """
        if not 0 <= tag < self._COLLECTIVE_TAG_BASE:
            raise MPIError(
                f"tag must be in [0, {self._COLLECTIVE_TAG_BASE}), got {tag}"
            )
        self._send(dest, payload, tag)

    def _send(self, dest: int, payload: Any, tag: int) -> None:
        """:meth:`send` without the user tag range check (collectives)."""
        if not 0 <= dest < self.size:
            raise MPIError(f"send to invalid rank {dest}")
        if isinstance(payload, bytearray) or (
                isinstance(payload, memoryview) and not payload.readonly):
            payload = bytes(payload)
        self.endpoint.send(dest, Message(self.rank, tag, payload))

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float = RECV_TIMEOUT,
        *,
        buffer: bool = False,
    ) -> Message:
        """Block until a matching message arrives; returns the full message.

        Byte payloads arrive as ``bytes`` regardless of backend.  Pass
        ``buffer=True`` to accept read-only ``memoryview`` payloads where
        the transport can skip a copy (thread and inline hand a sender's
        read-only view over by reference).  The views are safe to hold,
        but they do not pickle — code that returns payloads from ``main``
        or stores them across process boundaries should use the
        default.
        """
        message = self.endpoint.recv(source, tag, timeout)
        if not buffer and isinstance(message.payload, memoryview):
            message = Message(message.source, message.tag,
                              bytes(message.payload))
        return message

    # -- collectives ----------------------------------------------------------

    _COLLECTIVE_TAG_BASE = 1 << 20

    def _collective_tag(self, kind: int) -> int:
        """Unique tag per collective *call*, agreed upon by every rank.

        SPMD code executes collectives in the same order on all ranks, so a
        per-``Comm`` call counter sequences them: without it, a fast rank's
        message for collective N+1 could satisfy a slow rank's pending
        receive for collective N of the same kind.
        """
        sequence = self._collective_seq
        self._collective_seq += 1
        return self._COLLECTIVE_TAG_BASE + sequence * 8 + kind

    def scatter(self, payloads: list[Any] | None, root: int = 0,
                timeout: float = RECV_TIMEOUT) -> Any:
        """Send ``payloads[i]`` from ``root`` to rank ``i``; every rank
        returns its own slot (MPI_Scatter).

        Only the root's ``payloads`` is read — it must hold one entry per
        rank, and the root keeps ``payloads[root]`` without sending it.
        ``timeout`` bounds how long a non-root rank waits for the root's
        message.  Control loops that legitimately idle between rounds — a
        serving world parked at its job announcement — pass their idle
        budget here instead of inheriting the point-to-point default.
        """
        tag = self._collective_tag(1)
        if self.rank == root:
            count = len(payloads or ())
            if count != self.size:
                raise MPIError(f"scatter needs {self.size} payloads, got {count}")
            for dest, payload in enumerate(payloads):
                if dest != root:
                    self._send(dest, payload, tag)
            return payloads[root]
        return self.recv(source=root, tag=tag, timeout=timeout).payload

    def bcast(self, payload: Any, root: int = 0,
              timeout: float = RECV_TIMEOUT) -> Any:
        """Broadcast ``payload`` from ``root``; every rank returns it.

        A :meth:`scatter` of the one payload to every rank; ``timeout`` is
        scatter's.
        """
        payloads = [payload] * self.size if self.rank == root else None
        return self.scatter(payloads, root, timeout)

    def gather(self, payload: Any, root: int = 0) -> list[Any] | None:
        """Gather one value from every rank at ``root`` (rank order)."""
        tag = self._collective_tag(2)
        if self.rank == root:
            values: list[Any] = [None] * self.size
            values[root] = payload
            for _ in range(self.size - 1):
                message = self.recv(tag=tag)
                values[message.source] = message.payload
            return values
        self._send(root, payload, tag)
        return None

    def allgather(self, payload: Any) -> list[Any]:
        """Gather at rank 0 then broadcast: every rank gets the full list."""
        gathered = self.gather(payload, root=0)
        return self.bcast(gathered, root=0)

    def alltoall(self, chunks: list[Any]) -> list[Any]:
        """Exchange ``chunks[i]`` with rank ``i``; returns received chunks
        indexed by source rank."""
        if len(chunks) != self.size:
            raise MPIError(
                f"alltoall needs {self.size} chunks, got {len(chunks)}"
            )
        tag = self._collective_tag(3)
        received: list[Any] = [None] * self.size
        received[self.rank] = chunks[self.rank]
        # Pairs exchange in one global order, the lower rank sending
        # first: a chunk larger than the pair's send buffering then always
        # meets a rank receiving it, never one blocked in a send of its own.
        for low, high in itertools.combinations(range(self.size), 2):
            if self.rank == low:
                self._send(high, chunks[high], tag)
                received[high] = self.recv(high, tag).payload
            elif self.rank == high:
                received[low] = self.recv(low, tag).payload
                self._send(low, chunks[low], tag)
        return received

    def allreduce(self, value: Any,
                  op: Callable[[Any, Any], Any] | None = None) -> Any:
        """Reduce a value across ranks (default: sum) and share the result.

        A left fold in rank order, so every rank computes the same result.
        """
        return functools.reduce(op or operator.add, self.allgather(value))

    def barrier(self, timeout: float = RECV_TIMEOUT) -> None:
        """Wait until every rank in the world reaches the barrier.

        Every rank reports to rank 0, then rank 0 releases every rank;
        ``timeout`` bounds each receive.  A peer's death wakes the waiting
        ranks through their backend's receive poison.
        """
        tag = self._collective_tag(4)
        if self.rank == 0:
            for source in range(1, self.size):
                self.recv(source, tag, timeout)
            for dest in range(1, self.size):
                self._send(dest, None, tag)
        else:
            self._send(0, None, tag)
            self.recv(0, tag, timeout)
