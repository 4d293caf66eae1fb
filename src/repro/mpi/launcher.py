"""SPMD launcher: run one function on every rank over a chosen transport.

``mpi_run`` is the moral equivalent of ``mpirun -np N``: it resolves a
transport backend (threads, processes forked over socket pairs, the
deterministic inline scheduler, or TCP socket pairs), spawns N ranks,
hands each a
:class:`~repro.mpi.comm.Comm`, and collects per-rank return values.  If
any rank raises, the first exception is re-raised in the caller (wrapped
in :class:`~repro.common.errors.MPIError`) after all ranks have been
reaped, so no rank leaks.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.mpi.transport import JOIN_TIMEOUT, Transport, get_transport


def mpi_run(
    world_size: int,
    main: Callable[..., Any],
    args: tuple = (),
    timeout: float = JOIN_TIMEOUT,
    transport: str | Transport | None = None,
) -> list[Any]:
    """Run ``main(comm, *args)`` on ``world_size`` ranks; returns results by rank.

    ``transport`` is a backend name (``thread``, ``shm``, ``inline``,
    ``tcp``), a
    :class:`Transport` instance, or ``None`` for the default (``thread``,
    overridable via the ``REPRO_TRANSPORT`` environment variable).

    Examples:
        Every rank contributes to a sum gathered at rank 0:

        >>> from repro.mpi import mpi_run
        >>> def main(comm):
        ...     gathered = comm.gather(comm.rank, root=0)
        ...     return sum(gathered) if comm.rank == 0 else None
        >>> mpi_run(4, main, transport="inline")
        [6, None, None, None]
    """
    return get_transport(transport).run(world_size, main, args, timeout)
