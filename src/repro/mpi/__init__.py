"""MPI substrate: ranks, point-to-point messaging, collectives, transports."""

from repro.mpi.comm import ANY_SOURCE, ANY_TAG, Comm, Message
from repro.mpi.launcher import mpi_run
from repro.mpi.transport import (
    InlineTransport,
    ShmTransport,
    TcpTransport,
    ThreadTransport,
    Transport,
    World,
    available_transports,
    get_transport,
)

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Comm",
    "InlineTransport",
    "Message",
    "ShmTransport",
    "TcpTransport",
    "ThreadTransport",
    "Transport",
    "World",
    "available_transports",
    "get_transport",
    "mpi_run",
]
