"""Shared-memory transport: ranks are OS processes, payloads ride rings.

This backend removes the GIL from the hot path the paper is about.  Each
rank is a forked process under :mod:`repro.mpi.transport.ranks`' rank
supervisor; every ordered (sender, receiver) pair gets

* a **ring buffer** in one ``multiprocessing.shared_memory`` segment for
  ``bytes`` payloads — the encoded key-value chunks DataMPI moves — so
  bulk data crosses the process boundary without ever passing through
  pickle; small chunks are *batched* into one ring slot
  (:data:`BATCH_ITEM_MAX` / :data:`BATCH_FLUSH_BYTES`) so a stream of
  kilobyte chunks costs one descriptor and one copy-out per slot, and
  the receive side hands the merge read-only ``memoryview`` slices that
  decode in place;
* a descriptor **pipe** carrying typed binary frames (the
  :mod:`repro.mpi.transport.codec` header — no pickled tuples), which
  doubles as the channel for oversized or non-bytes payloads
  (collectives' Python objects, EOF markers).

The single-producer/single-consumer ring keeps MPI's per-(source,
destination) non-overtaking guarantee for free: descriptors leave the
pipe in send order, ring space is reclaimed in the same order, and a
batch preserves the order of the sends it coalesced.  Pending batches
are flushed before every receive and when a rank finishes, so batching
can never deadlock a waiting peer.
"""

from __future__ import annotations

import struct
import time
from functools import partial
from multiprocessing import shared_memory
from multiprocessing.connection import Connection, wait as connection_wait
from typing import Any, Callable

from repro.common.errors import MPIError
from repro.mpi import faultinject
from repro.mpi.transport.base import (
    JOIN_TIMEOUT,
    Message,
    PolledEndpoint,
    Transport,
    raise_rank_errors,
    register_transport,
)
from repro.mpi.transport.codec import (
    FMT_BATCH,
    FMT_RAW,
    WIRE_HEADER,
    as_buffer,
    decode_batch,
    decode_payload,
    encode_batch,
    encode_payload,
)
from repro.mpi.transport.ranks import (
    ForkedRanks,
    collect_outcomes,
    fork_context,
    report_outcome,
)

#: Per-(sender, receiver) ring capacity for chunk payloads.
DEFAULT_RING_BYTES = 1 << 20

#: ``bytes`` payloads at most this large are coalesced into one batched
#: ring slot instead of being written (and descriptor-signalled) one by
#: one.  Clamped to the ring capacity for small test rings.
BATCH_ITEM_MAX = 16 * 1024

#: Flush an open batch once its encoded size reaches this many bytes.
BATCH_FLUSH_BYTES = 64 * 1024

_HEADER = struct.Struct(">QQ")  # monotonic (head, tail) byte counters

_BATCH_ITEM_OVERHEAD = struct.calcsize(">qI")  # codec's per-item header

#: Descriptor frame kinds on the data pipes (codec WIRE_HEADER.kind).
_KIND_INLINE = 1  #: payload rides the pipe frame itself (fmt says how)
_KIND_RING = 2    #: payload is in the ring at (offset, length)
_KIND_BATCH = 3   #: a batch of small payloads is in the ring

#: Ring reference carried by _KIND_RING / _KIND_BATCH descriptors.
_RING_REF = struct.Struct(">QQ")

_CTRL_ABORT = b"ABRT"


class ShmRing:
    """SPSC byte ring over one shared-memory segment.

    ``head``/``tail`` are monotonically increasing counters stored in the
    segment header and guarded by a fork-shared condition; payloads are
    contiguous (a write that would straddle the end skips to offset 0).
    """

    def __init__(self, ctx, capacity: int):
        if capacity < 1:
            raise MPIError(f"ring capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._shm = shared_memory.SharedMemory(
            create=True, size=_HEADER.size + capacity
        )
        self._shm.buf[: _HEADER.size] = _HEADER.pack(0, 0)
        self._cond = ctx.Condition()

    # -- header helpers (call with the condition held) -------------------------

    def _counters(self) -> tuple[int, int]:
        return _HEADER.unpack_from(self._shm.buf, 0)

    def _store(self, head: int, tail: int) -> None:
        self._shm.buf[: _HEADER.size] = _HEADER.pack(head, tail)

    # -- producer --------------------------------------------------------------

    def write(self, data, timeout: float) -> int:
        """Copy ``data`` (any bytes-like) into the ring; returns its offset.
        Blocks until the consumer has freed enough space; raises MPIError
        past ``timeout``."""
        data = as_buffer(data)
        length = data.nbytes
        if length > self.capacity:
            raise MPIError(
                f"payload of {length} bytes exceeds ring capacity {self.capacity}"
            )
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                head, tail = self._counters()
                position = head % self.capacity
                # A payload never wraps: skip the tail-end remainder if short.
                skip = 0 if length <= self.capacity - position else self.capacity - position
                if head + skip + length - tail <= self.capacity:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._cond.wait(remaining):
                    raise MPIError(
                        f"ring write stalled {timeout}s waiting for "
                        f"{length} free bytes (receiver not draining?)"
                    )
            head += skip
            position = head % self.capacity
            start = _HEADER.size + position
            self._shm.buf[start : start + length] = data
            self._store(head + length, tail)
            return position

    # -- consumer --------------------------------------------------------------

    def read(self, position: int, length: int) -> bytes:
        """Copy one payload out and release its space (consumption happens in
        descriptor order, which equals allocation order for an SPSC ring)."""
        start = _HEADER.size + position
        data = bytes(self._shm.buf[start : start + length])
        with self._cond:
            head, tail = self._counters()
            tail_position = tail % self.capacity
            if tail_position != position:
                # The producer skipped the tail-end remainder to keep the
                # payload contiguous; release that dead space too.
                tail += self.capacity - tail_position
            self._store(head, tail + length)
            self._cond.notify_all()
        return data

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        self._shm.close()

    def unlink(self) -> None:
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass


class ShmEndpoint(PolledEndpoint):
    """One rank's process-local handle on the pipes-and-rings fabric."""

    def __init__(
        self,
        rank: int,
        size: int,
        send_conns: list[Connection | None],   # [dest] -> writer end
        recv_conns: list[Connection | None],   # [source] -> reader end
        send_rings: list[ShmRing | None],      # [dest] -> this rank's outgoing ring
        recv_rings: list[ShmRing | None],      # [source] -> incoming ring
        control: Connection,
    ):
        super().__init__()
        self.rank = rank
        self.size = size
        self._send_conns = send_conns
        self._recv_conns = recv_conns
        self._send_rings = send_rings
        self._recv_rings = recv_rings
        self._control = control
        self._source_of = {id(conn): s for s, conn in enumerate(recv_conns) if conn}
        # Per-destination batch of small bytes payloads awaiting one ring
        # slot.  Thresholds clamp to the ring capacity so tiny test rings
        # still batch (or degrade to per-payload slots) correctly.
        capacity = next((r.capacity for r in send_rings if r is not None), 0)
        self._batch_item_max = min(
            BATCH_ITEM_MAX, max(0, capacity - _BATCH_ITEM_OVERHEAD)
        )
        self._batch_flush_bytes = min(BATCH_FLUSH_BYTES, capacity)
        self._batch_items: list[list[tuple[int, memoryview]]] = [
            [] for _ in range(size)
        ]
        self._batch_bytes = [0] * size

    def send(self, dest: int, message: Message) -> None:
        if dest == self.rank:
            # Loopback: no process boundary to cross.
            self._stash.append(message)
            return
        payload = message.payload
        conn = self._send_conns[dest]
        assert conn is not None
        ring = self._send_rings[dest]
        view = (as_buffer(payload)
                if isinstance(payload, (bytes, bytearray, memoryview)) else None)
        if (view is not None and ring is not None
                and view.nbytes <= self._batch_item_max):
            self._batch_add(dest, message.tag, view)
            return
        # FIFO: anything already batched for this peer goes first.
        self._flush_batch(dest)
        if view is not None and ring is not None and view.nbytes <= ring.capacity:
            offset = ring.write(view, JOIN_TIMEOUT)
            conn.send_bytes(
                WIRE_HEADER.pack(_KIND_RING, FMT_RAW, self.rank,
                                 message.tag, _RING_REF.size)
                + _RING_REF.pack(offset, view.nbytes)
            )
            return
        # Objects, and bytes larger than the ring, ride the pipe frame.
        fmt, parts, total = encode_payload(payload)
        conn.send_bytes(b"".join([
            WIRE_HEADER.pack(_KIND_INLINE, fmt, self.rank,
                             message.tag, total),
            *parts,
        ]))

    # -- sender-side batching --------------------------------------------------

    def _batch_add(self, dest: int, tag: int, view: memoryview) -> None:
        cost = _BATCH_ITEM_OVERHEAD + view.nbytes
        items = self._batch_items[dest]
        ring = self._send_rings[dest]
        assert ring is not None
        if items and self._batch_bytes[dest] + cost > ring.capacity:
            self._flush_batch(dest)
            items = self._batch_items[dest]
        items.append((tag, view))
        self._batch_bytes[dest] += cost
        if self._batch_bytes[dest] >= self._batch_flush_bytes:
            self._flush_batch(dest)

    def _flush_batch(self, dest: int) -> None:
        items = self._batch_items[dest]
        if not items:
            return
        data = encode_batch(items)
        self._batch_items[dest] = []
        self._batch_bytes[dest] = 0
        ring = self._send_rings[dest]
        conn = self._send_conns[dest]
        assert ring is not None and conn is not None
        offset = ring.write(data, JOIN_TIMEOUT)
        conn.send_bytes(
            WIRE_HEADER.pack(_KIND_BATCH, FMT_BATCH, self.rank, 0,
                             _RING_REF.size)
            + _RING_REF.pack(offset, len(data))
        )

    def flush_sends(self) -> None:
        """Push every pending batch out — called before every receive and
        when the rank finishes, so no peer can wait on a payload parked in
        a local batch."""
        for dest, items in enumerate(self._batch_items):
            if items:
                self._flush_batch(dest)

    def recv(self, source: int, tag: int, timeout: float) -> Message:
        self.flush_sends()
        return super().recv(source, tag, timeout)

    def _poll(self, timeout: float) -> None:
        """Drain every readable connection into the stash (ring payloads are
        copied out immediately so ring space frees in order).

        Batched slots are read out of the ring once and split into
        read-only ``memoryview`` slices — one slice per message — so the
        A-side merge decodes records in place instead of copying each
        small chunk out individually.
        """
        conns = [c for c in self._recv_conns if c is not None] + [self._control]
        ready = connection_wait(conns, timeout)
        for conn in ready:
            if conn is self._control:
                self._control.recv_bytes()
                self._aborted = True
                continue
            source = self._source_of[id(conn)]
            raw = conn.recv_bytes()
            try:
                kind, fmt, _source, tag, length = WIRE_HEADER.unpack_from(raw)
            except struct.error as exc:
                raise MPIError(f"corrupt shm descriptor: {exc}") from exc
            body = memoryview(raw)[WIRE_HEADER.size:]
            if body.nbytes != length:
                raise MPIError(
                    f"corrupt shm descriptor: header claims {length} "
                    f"bytes, frame carries {body.nbytes}"
                )
            if kind == _KIND_RING:
                offset, size = _RING_REF.unpack(body)
                ring = self._recv_rings[source]
                assert ring is not None
                self._stash.append(Message(source, tag, ring.read(offset, size)))
            elif kind == _KIND_BATCH:
                offset, size = _RING_REF.unpack(body)
                ring = self._recv_rings[source]
                assert ring is not None
                for item_tag, payload in decode_batch(ring.read(offset, size)):
                    self._stash.append(Message(source, item_tag, payload))
            elif kind == _KIND_INLINE:
                payload: Any = decode_payload(fmt, body)
                self._stash.append(Message(source, tag, payload))
            else:
                raise MPIError(f"unknown shm descriptor kind {kind}")


def _destroy_rings(rings: list[list[ShmRing | None]]) -> None:
    """Close and unlink every ring, unconditionally.

    Unlink must not depend on a clean close: if ``close`` raises (e.g. a
    buffer still exported somewhere after an abort), skipping ``unlink``
    would leak the kernel object until reboot.  Each ring is destroyed
    independently so one bad ring cannot shadow the rest.
    """
    for row in rings:
        for ring in row:
            if ring is None:
                continue
            try:
                ring.close()
            except Exception:  # noqa: BLE001 - cleanup must reach unlink
                pass
            try:
                ring.unlink()
            except Exception:  # noqa: BLE001 - one bad ring must not
                pass           # shadow the rest (or the real rank error)


@register_transport
class ShmTransport(Transport):
    """Fork one process per rank; move chunks through shared-memory rings."""

    name = "shm"

    def __init__(self, ring_bytes: int = DEFAULT_RING_BYTES, fault_plan=None):
        self._ctx = fork_context("shm transport", "use the thread transport instead")
        self.ring_bytes = ring_bytes
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

        # Fabric: rings[s][d] and data pipes carry s -> d traffic.  All of
        # it is built *inside* the try below: a failure mid-construction
        # (shared-memory space or file descriptors exhausted) must still
        # unlink every segment already created, or the kernel keeps them
        # until reboot and the resource tracker complains at exit.
        rings: list[list[ShmRing | None]] = []
        data_readers: list[list[Connection | None]] = [
            [None] * world_size for _ in range(world_size)
        ]
        data_writers: list[list[Connection | None]] = [
            [None] * world_size for _ in range(world_size)
        ]
        control_pipes: list[tuple[Connection, Connection]] = []
        result_pipes: list[tuple[Connection, Connection]] = []
        ranks = ForkedRanks(ctx)

        def child(rank: int) -> None:
            endpoint = ShmEndpoint(
                rank=rank,
                size=world_size,
                send_conns=[data_writers[rank][d] for d in range(world_size)],
                recv_conns=[data_readers[s][rank] for s in range(world_size)],
                send_rings=rings[rank],
                recv_rings=[rings[s][rank] for s in range(world_size)],
                control=control_pipes[rank][0],
            )
            try:
                faultinject.fire("rendezvous", rank=rank)
                result = main(Comm(endpoint), *args)
                # Anything still parked in a send batch must reach its
                # peer before this rank reports success and exits.
                endpoint.flush_sends()
                outcome = ("ok", result)
            except BaseException as exc:  # noqa: BLE001 - reported to parent
                outcome = ("err", exc)
            report_outcome(result_pipes[rank][1].send, rank, outcome)

        def read(rank: int) -> tuple[str, Any] | None:
            try:
                return result_pipes[rank][0].recv()
            except EOFError:
                return None

        def poison(still_running: list[int]) -> None:
            for rank in still_running:
                try:
                    control_pipes[rank][1].send_bytes(_CTRL_ABORT)
                except OSError:
                    pass

        try:
            for s in range(world_size):
                row: list[ShmRing | None] = []
                rings.append(row)  # appended first: a failed row still cleans up
                for d in range(world_size):
                    row.append(ShmRing(ctx, self.ring_bytes) if s != d else None)
            for s in range(world_size):
                for d in range(world_size):
                    if s == d:
                        continue
                    reader, writer = ctx.Pipe(duplex=False)
                    data_readers[s][d] = reader  # read end, owned by rank d
                    data_writers[s][d] = writer  # write end, owned by rank s
            control_pipes.extend(ctx.Pipe(duplex=False) for _ in range(world_size))
            result_pipes.extend(ctx.Pipe(duplex=False) for _ in range(world_size))
            for rank in range(world_size):
                ranks.spawn(f"mpi-rank-{rank}", partial(child, rank),
                            self.fault_plan)
            results, errors, _dead = collect_outcomes(
                [reader for reader, _ in result_pipes], read, poison, timeout,
                ranks.processes,
            )
        finally:
            ranks.reap()
            _destroy_rings(rings)
            for grid in (data_readers, data_writers):
                for row in grid:
                    for conn in row:
                        if conn is not None:
                            conn.close()
            for reader, writer in control_pipes + result_pipes:
                reader.close()
                writer.close()
        raise_rank_errors(errors)
        return results
