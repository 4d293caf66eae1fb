"""The ``shm`` transport: ranks are forked processes on one host, joined by
socket pairs made before the fork.

The name is historical — kept because the CLI, ``REPRO_TRANSPORT`` and
the bench workloads select this backend by it — and this backend no
longer uses shared memory.  :meth:`ShmTransport.run` builds one
``socket.socketpair()`` per rank pair and one control pair per rank,
then forks the ranks.  Each rank runs the tcp transport's
:class:`~repro.mpi.transport.tcp.TcpEndpoint` over the ends it owns, so
both process transports move a frame one way: one send path, one
receive loop, one wire format (:mod:`repro.mpi.transport.codec`).  What
differs from ``tcp`` is how the world forms: no rendezvous, no listener,
no handshake — the sockets exist before the fork, and nothing outside
the run's own processes can reach them.

Each rank closes every end it does not own, and the launcher closes its
copies of the ranks' ends once they are forked, so a rank's death EOFs
its peers' sockets at once.  The launcher keeps the control ends: it
poisons the ranks still running with a ``KIND_ABORT`` frame when one
fails, and once every outcome is in it sends each rank ``KIND_SHUTDOWN``.
Until then a finished rank keeps reading its sockets
(:meth:`~repro.mpi.transport.tcp.TcpEndpoint.await_verdict`), so a peer
still sending to it never blocks.  Outcomes travel over result pipes
under the shared rank supervisor (:mod:`repro.mpi.transport.ranks`).
"""

from __future__ import annotations

import socket
from functools import partial
from multiprocessing.connection import Connection
from typing import Any, Callable

from repro.common.errors import MPIError
from repro.mpi import faultinject
from repro.mpi.transport import channel
from repro.mpi.transport.base import (
    JOIN_TIMEOUT,
    Transport,
    raise_rank_errors,
    register_transport,
)
from repro.mpi.transport.ranks import (
    ForkedRanks,
    collect_outcomes,
    fork_context,
    report_outcome,
)
from repro.mpi.transport.tcp import (
    KIND_ABORT,
    KIND_SHUTDOWN,
    SHUTDOWN_GRACE,
    TcpEndpoint,
)


@register_transport
class ShmTransport(Transport):
    """Fork one process per rank; join the ranks by pre-forked socket pairs."""

    name = "shm"

    def __init__(self, fault_plan=None):
        self._ctx = fork_context("shm transport", "use the thread transport instead")
        # Ranks are real processes: kill rules hard-exit the child and
        # the parent reports "died without reporting a result" (fail
        # fast — only the tcp transport rebuilds worlds).
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
        ctx = self._ctx

        # links[r][p] is rank r's end of the (r, p) pair; controls[r] is
        # (the launcher's end, rank r's end).  Every pair joins ``pairs``
        # the moment it exists, so the finally below also closes a fabric
        # whose construction failed part way (descriptors exhausted).
        pairs: list[tuple[socket.socket, socket.socket]] = []
        links: list[list[socket.socket | None]] = [
            [None] * world_size for _ in range(world_size)
        ]
        controls: list[tuple[socket.socket, socket.socket]] = []
        result_pipes: list[tuple[Connection, Connection]] = []
        ranks = ForkedRanks(ctx)

        def child(rank: int) -> None:
            control = controls[rank][1]
            mine = {control, *links[rank]}
            channel.close_quietly(
                *(end for pair in pairs for end in pair if end not in mine))
            endpoint = TcpEndpoint(rank, world_size, links[rank], control)
            try:
                faultinject.fire("rendezvous", rank=rank)
                outcome = ("ok", main(Comm(endpoint), *args))
            except BaseException as exc:  # noqa: BLE001 - reported to parent
                outcome = ("err", exc)
            report_outcome(result_pipes[rank][1].send, rank, outcome)
            # Peers may still be sending: keep reading until the launcher
            # says the whole world is done.
            endpoint.await_verdict(SHUTDOWN_GRACE)
            endpoint.close()

        def read(rank: int) -> tuple[str, Any] | None:
            try:
                return result_pipes[rank][0].recv()
            except EOFError:
                return None

        def poison(still_running: list[int]) -> None:
            for rank in still_running:
                channel.try_send_frame(controls[rank][0], KIND_ABORT)

        try:
            for low in range(world_size):
                for high in range(low + 1, world_size):
                    sock, peer = socket.socketpair()
                    pairs.append((sock, peer))
                    links[low][high], links[high][low] = sock, peer
            for _ in range(world_size):
                sock, peer = socket.socketpair()
                pairs.append((sock, peer))
                controls.append((sock, peer))
            result_pipes.extend(ctx.Pipe(duplex=False) for _ in range(world_size))
            for rank in range(world_size):
                ranks.spawn(f"mpi-rank-{rank}", partial(child, rank),
                            self.fault_plan)
            channel.close_quietly(*(end for row in links for end in row),
                                  *(end for _, end in controls))
            results, errors, _dead = collect_outcomes(
                [reader for reader, _ in result_pipes], read, poison, timeout,
                ranks.processes,
            )
        finally:
            for launcher_end, _ in controls:
                channel.try_send_frame(launcher_end, KIND_SHUTDOWN)
            ranks.reap()
            for sock, peer in pairs:
                sock.close()
                peer.close()
            for reader, writer in result_pipes:
                reader.close()
                writer.close()
        raise_rank_errors(errors)
        return results
