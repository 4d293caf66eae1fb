"""Task-facing contexts: the DataMPI programming interface.

``OContext.send`` and ``AContext.recv`` are the Python counterparts of
DataMPI's ``MPI_D_Send(key, value)`` / ``MPI_D_Recv()``.  An O task is a
function ``o_task(ctx, split)`` that emits key-value pairs; an A task is
a function ``a_task(ctx)`` that consumes them (in key order when sorting
is enabled) and returns its output.

A partitioner must be a pure function of ``(key, num_a)`` — equal keys
have to meet at one A task — and under a combiner ``OContext`` relies on
it: a key is routed once per buffer window, not once per record.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Any, Iterator

from repro.common.errors import CommunicatorError
from repro.common.kv import KeyValue
from repro.mpi import faultinject
from repro.datampi.buffers import PartitionedSendBuffer
from repro.datampi.communicator import TAG_EOF, BipartiteComm
from repro.datampi.partition import Partitioner, hash_partitioner, validate_partition
from repro.storage import ChunkStore, KVCache


class OContext:
    """Context handed to O tasks; ``send`` is the MPI_D_Send equivalent.

    ``send`` routes every record; a combiner (a job that expects repeated
    keys) binds ``_send_remembering`` over it, once, at construction.
    """

    def __init__(
        self,
        bcomm: BipartiteComm,
        *,
        partitioner: Partitioner | None = None,
        sort: bool = True,
        combiner=None,
        send_buffer_bytes: int | None = None,
        cache: KVCache | None = None,
        superstep: int | None = None,
    ):
        self._bcomm = bcomm
        self._partitioner = partitioner or hash_partitioner
        self._num_a = bcomm.num_a
        self._closed = False
        #: Where each key of the current buffer window went; emptied at
        #: every flushed chunk, so it never outgrows the send buffers.
        self._routes: dict[Any, int] = {}
        if combiner is not None:
            self.send = self._send_remembering
        #: Rank-lifetime KV cache (iteration/streaming modes); None in
        #: run-once jobs, whose ranks do not outlive a single superstep.
        self.cache = cache
        #: 1-based iteration (or streaming window) this context serves;
        #: None in run-once jobs.
        self.superstep = superstep
        kwargs = {"sort": sort, "combiner": combiner}
        if send_buffer_bytes is not None:
            kwargs["threshold_bytes"] = send_buffer_bytes

        # The ``shuffle`` fault point fires per flushed chunk — after some
        # chunks may already be in flight, before the EOFs — which is the
        # window where a death leaves peers mid-protocol.  Per-chunk (not
        # per-record) keeps the hot send path untouched.
        routes = self._routes  # not ``self``: a combiner-less context stays acyclic
        #: Per A task, the chunk ``close``'s flush left to ride its EOF;
        #: empty until ``close`` sizes it, so earlier chunks leave at once.
        last: list[bytes | None] = []
        self._last = last

        def chunk_sink(a_index: int, payload: bytes) -> None:
            routes.clear()
            faultinject.fire(
                "shuffle", rank=bcomm.comm.rank, superstep=superstep
            )
            if last:
                last[a_index] = payload
            else:
                bcomm.send_chunk(a_index, payload)

        self._buffer = PartitionedSendBuffer(bcomm.num_a, chunk_sink, **kwargs)

    @property
    def rank(self) -> int:
        return self._bcomm.o_index

    @property
    def num_o(self) -> int:
        return self._bcomm.num_o

    @property
    def num_a(self) -> int:
        return self._bcomm.num_a

    def send(self, key: Any, value: Any) -> None:
        """Emit one key-value pair toward its A task (pipelined)."""
        if self._closed:
            raise CommunicatorError("send after O context was closed")
        num_a = self._num_a
        destination = self._partitioner(key, num_a)
        if not 0 <= destination < num_a:
            validate_partition(destination, num_a)  # raises its message
        self._buffer.add(destination, key, value)

    def _send_remembering(self, key: Any, value: Any) -> None:
        """``send`` with one partitioner call per distinct key per buffer
        window.  Only a key whose *exact* type is ``str``, ``int`` or
        ``bytes`` is remembered: for those ``==`` means the same encoding,
        hence the same hash partition.  ``1``, ``True`` and ``1.0`` are equal
        but encode, so may route, differently; they, tuples, subclasses and
        unhashable keys are routed on every send.  A route is stored only
        once it is known to be in range."""
        if self._closed:
            raise CommunicatorError("send after O context was closed")
        kind = type(key)
        remembered = kind is str or kind is int or kind is bytes
        destination = self._routes.get(key) if remembered else None
        if destination is None:
            num_a = self._num_a
            destination = self._partitioner(key, num_a)
            if not 0 <= destination < num_a:
                validate_partition(destination, num_a)  # raises its message
            if remembered:
                self._routes[key] = destination
        self._buffer.add(destination, key, value)

    def close(self) -> None:
        """Flush remaining buffers and signal EOF to every A task; each A
        task's last chunk rides its EOF instead of a message of its own.

        EOF flows even when the final flush raises (carrying the chunks
        flushed before it): A ranks must never block on a failed O task,
        and iterative supersteps rely on the EOF count staying exact so the
        failure can propagate through the control channel instead of a
        receive timeout.
        """
        if self._closed:
            return
        self._last[:] = [None] * self._num_a
        try:
            self._buffer.flush_all()
        finally:
            self._routes.clear()
            self._bcomm.send_eof(self._last)
            self._closed = True

    @property
    def counters(self) -> dict[str, int]:
        return {
            "o.records_emitted": self._buffer.records_buffered,
            "o.records_sent": self._buffer.records_sent,
            "o.bytes_sent": self._buffer.bytes_sent,
            "o.chunks_sent": self._buffer.chunks_sent,
            "o.records_combined_away": self._buffer.records_combined_away,
        }


class AContext:
    """Context handed to A tasks; ``recv`` is the MPI_D_Recv equivalent."""

    def __init__(self, bcomm: BipartiteComm | None, store: ChunkStore, *,
                 sort: bool = True, a_index: int | None = None, num_o: int = 0,
                 cache: KVCache | None = None, superstep: int | None = None):
        self._bcomm = bcomm
        self._store = store
        self._sort = sort
        self.cache = cache
        self.superstep = superstep
        self._a_index = a_index if a_index is not None else (
            bcomm.a_index if bcomm is not None else 0
        )
        self._num_o = num_o or (bcomm.num_o if bcomm is not None else 0)
        self._drained = bcomm is None  # restored-from-checkpoint contexts skip drain
        self._iterator: Iterator[KeyValue] | None = None
        self.records_received = 0
        self.bytes_received = 0

    @property
    def rank(self) -> int:
        return self._a_index

    def drain(self) -> None:
        """Receive chunks until every O task has sent EOF (the implicit
        data-movement phase).  An EOF's payload, when not ``None``, is its
        O task's last chunk."""
        if self._drained:
            return
        assert self._bcomm is not None
        eof_remaining = self._num_o
        sequence_of: dict[int, int] = {}
        while eof_remaining > 0:
            message = self._bcomm.recv_any()
            if message.payload is not None:
                # Origin-stamp each chunk so downstream merge order is
                # canonical even when transports deliver out of order.
                sequence = sequence_of.get(message.source, 0)
                sequence_of[message.source] = sequence + 1
                self._store.add(message.payload, origin=(message.source, sequence))
                self.bytes_received += len(message.payload)
            if message.tag == TAG_EOF:
                eof_remaining -= 1
        self._drained = True

    def _ensure_iterator(self) -> Iterator[KeyValue]:
        self.drain()
        if self._iterator is None:
            self._iterator = self._store.merged(sort=self._sort)
        return self._iterator

    def recv(self) -> KeyValue | None:
        """Next key-value record, or ``None`` when input is exhausted."""
        iterator = self._ensure_iterator()
        record = next(iterator, None)
        if record is not None:
            self.records_received += 1
        return record

    def __iter__(self) -> Iterator[KeyValue]:
        iterator = self._ensure_iterator()
        for record in iterator:
            self.records_received += 1
            yield record

    def grouped(self) -> Iterator[tuple[Any, list[Any]]]:
        """Iterate ``(key, [values])`` groups.

        With sorting enabled this streams ``itertools.groupby`` runs; with
        sorting disabled it must accumulate every group (documented memory
        cost), preserving first-seen key order: hashable keys through a
        dict, an unhashable one (a list is a wire type) by an equality scan.
        """
        if self._sort:
            for key, group in itertools.groupby(self, key=itemgetter(0)):
                yield key, [record.value for record in group]
        else:
            groups: list[tuple[Any, list[Any]]] = []
            index: dict[Any, list[Any]] = {}
            for key, value in self:
                fresh: list[Any] = []
                try:
                    values = index.setdefault(key, fresh)
                except TypeError:
                    values = next((held for seen, held in groups if seen == key), fresh)
                if values is fresh:
                    groups.append((key, values))
                values.append(value)
            yield from groups

    @property
    def counters(self) -> dict[str, int]:
        return {
            "a.records_received": self.records_received,
            "a.bytes_received": self.bytes_received,
            "a.spills": self._store.spills,
            "a.bytes_spilled": self._store.bytes_spilled,
            "a.spill_reads": self._store.spill_reads,
        }

    def cleanup(self) -> None:
        self._store.cleanup()
