"""Pluggable IPC transports for the MPI substrate.

Importing this package registers the built-in backends:

* ``thread`` — ranks as threads in one process (default);
* ``shm``    — ranks as forked processes on one host, joined by socket
  pairs made before the fork and driven by the tcp backend's endpoint
  (the name is historical: no shared memory is used);
* ``inline`` — deterministic cooperative scheduling for unit tests;
* ``tcp``    — ranks as processes (or machines) joined by socket pairs,
  with a rendezvous step so ranks can live anywhere reachable.
"""

from repro.mpi.transport.base import (
    ANY_SOURCE,
    ANY_TAG,
    DEFAULT_TRANSPORT,
    JOIN_TIMEOUT,
    RECV_TIMEOUT,
    TRANSPORT_ENV_VAR,
    Endpoint,
    Message,
    Transport,
    available_transports,
    default_transport_name,
    get_transport,
    register_transport,
    world_generation,
)
from repro.mpi.transport.channel import (
    AUTHKEY_ENV_VAR,
    parse_address,
    parse_authkey,
    resolve_authkey,
)
from repro.mpi.transport.codec import (
    BATCH_FLUSH_BYTES,
    BATCH_ITEM_MAX,
    FMT_BATCH,
    FMT_PICKLE,
    FMT_RAW,
    MAX_FRAME_BYTES,
    PICKLE_PROTOCOL,
    WIRE_HEADER,
    decode_batch,
    decode_payload,
    encode_batch,
    encode_payload,
)
from repro.mpi.transport.inline import InlineEndpoint, InlineTransport
from repro.mpi.transport.shm import ShmTransport
from repro.mpi.transport.tcp import (
    TcpEndpoint,
    TcpTransport,
    TcpWorldServer,
    join_world,
    parse_hosts,
)
from repro.mpi.transport.thread import (
    Mailbox,
    ThreadEndpoint,
    ThreadTransport,
    World,
)

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "AUTHKEY_ENV_VAR",
    "BATCH_FLUSH_BYTES",
    "BATCH_ITEM_MAX",
    "DEFAULT_TRANSPORT",
    "FMT_BATCH",
    "FMT_PICKLE",
    "FMT_RAW",
    "JOIN_TIMEOUT",
    "MAX_FRAME_BYTES",
    "PICKLE_PROTOCOL",
    "RECV_TIMEOUT",
    "TRANSPORT_ENV_VAR",
    "WIRE_HEADER",
    "Endpoint",
    "InlineEndpoint",
    "InlineTransport",
    "Mailbox",
    "Message",
    "ShmTransport",
    "TcpEndpoint",
    "TcpTransport",
    "TcpWorldServer",
    "ThreadEndpoint",
    "ThreadTransport",
    "Transport",
    "World",
    "available_transports",
    "decode_batch",
    "decode_payload",
    "default_transport_name",
    "encode_batch",
    "encode_payload",
    "get_transport",
    "join_world",
    "parse_address",
    "parse_authkey",
    "parse_hosts",
    "register_transport",
    "resolve_authkey",
    "world_generation",
]
