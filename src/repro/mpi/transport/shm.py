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
its peers' sockets at once.  The launcher keeps the control ends, and a
rank lives exactly as a tcp rank does
(:func:`~repro.mpi.transport.tcp.serve_rank`): it reports its outcome as
a frame on its control socket, poisons its peers when it fails, and
keeps reading until the launcher's ``KIND_SHUTDOWN``, so a peer still
sending to it never blocks.  Collection, poison and reaping are the
shared rank supervisor's (:mod:`repro.mpi.transport.ranks`).
"""

from __future__ import annotations

import socket
import time
from functools import partial
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
    KIND_SHUTDOWN,
    ForkedRanks,
    collect_outcomes,
    fork_context,
)
from repro.mpi.transport.tcp import TcpEndpoint, serve_rank


@register_transport
class ShmTransport(Transport):
    """Fork one process per rank; join the ranks by pre-forked socket pairs."""

    name = "shm"

    def __init__(self, fault_plan=None):
        self._ctx = fork_context("shm transport", "use the thread transport instead")
        # Ranks are real processes: kill and drop rules hard-exit the
        # child and the parent reports "died without reporting a result"
        # (fail fast — only the tcp transport rebuilds worlds).
        self.fault_plan = faultinject.parse_fault_plan(fault_plan)

    def run(
        self,
        world_size: int,
        main: Callable[..., Any],
        args: tuple = (),
        timeout: float = JOIN_TIMEOUT,
    ) -> list[Any]:
        if world_size < 1:
            raise MPIError(f"world size must be >= 1, got {world_size}")
        deadline = time.monotonic() + timeout

        # links[r][p] is rank r's end of the (r, p) pair; controls[r] is
        # (the launcher's end, rank r's end).  Every pair joins ``pairs``
        # the moment it exists, so the finally below also closes a fabric
        # whose construction failed part way (descriptors exhausted).
        pairs: list[tuple[socket.socket, socket.socket]] = []
        links: list[list[socket.socket | None]] = [
            [None] * world_size for _ in range(world_size)
        ]
        controls: list[tuple[socket.socket, socket.socket]] = []
        ranks = ForkedRanks(self._ctx)

        def child(rank: int) -> None:
            control = controls[rank][1]
            mine = {control, *links[rank]}
            channel.close_quietly(
                *(end for pair in pairs for end in pair if end not in mine))

            def rank_main(comm: Any) -> Any:
                faultinject.fire("rendezvous", rank=rank)
                return main(comm, *args)

            serve_rank(TcpEndpoint(rank, world_size, links[rank], control),
                       rank_main, deadline)

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
            for rank in range(world_size):
                ranks.spawn(f"mpi-rank-{rank}", partial(child, rank),
                            self.fault_plan)
            channel.close_quietly(*(end for row in links for end in row),
                                  *(end for _, end in controls))
            results, errors, _dead = collect_outcomes(
                [launcher_end for launcher_end, _ in controls], timeout,
                ranks.processes, deadline,
            )
        finally:
            for launcher_end, _ in controls:
                channel.try_send_frame(launcher_end, KIND_SHUTDOWN)
            ranks.reap()
            for sock, peer in pairs:
                sock.close()
                peer.close()
        raise_rank_errors(errors)
        return results
