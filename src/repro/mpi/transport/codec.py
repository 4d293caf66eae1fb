"""Typed binary data-plane codec shared by the tcp and shm transports.

The paper's DataMPI wins come from a lean communication layer, so the
data plane here must not tax every chunk with a serializer.  This module
defines one wire format for both process transports:

* a struct-packed **frame header** — ``kind / fmt / source / tag /
  payload length`` (:data:`WIRE_HEADER`) — so framing never depends on a
  serializer and a reader can always resynchronise a stream by length;
* three **payload formats**:

  - :data:`FMT_RAW` — the payload *is* the bytes, verbatim.  ``bytes``
    chunk payloads (the encoded key-value chunks DataMPI moves) travel
    this way and never pass through ``pickle`` in either direction;
  - :data:`FMT_PICKLE` — control-plane objects (collective payloads,
    EOF markers, outcome tuples) as a pickle protocol-5 body with
    out-of-band buffers carried as raw trailers, so even buffer-bearing
    control objects keep their bulk outside the pickle stream;
  - :data:`FMT_BATCH` — several small ``(tag, payload)`` items packed
    into one body (:func:`encode_batch`), decoded back into zero-copy
    ``memoryview`` slices (:func:`decode_batch`).  No transport sends
    it; the bench ladder still times the round trip.

* **vectored socket writes** (:func:`sendmsg_all`): a frame goes out as
  header + raw buffer parts via ``socket.sendmsg``, with no
  header+payload concatenation copy on the hot path.

Security note: :data:`FMT_RAW` payloads are returned as inert ``bytes``
— a crafted frame whose body happens to contain pickle opcodes is simply
delivered as those bytes, never unpickled.  :data:`FMT_PICKLE` frames do
unpickle, so sockets must be authenticated before they reach the frame
layer (see :mod:`repro.mpi.transport.channel`) — or, like the shm
transport's socket pairs, be made before the fork and reachable by no
other process.
"""

from __future__ import annotations

import pickle
import socket
import struct
from typing import Any, Iterable

from repro.common.errors import MPIError

#: One pickle protocol everywhere (control plane, checkpoints, modes).
#: Protocol 5 is required for the out-of-band buffer path.
PICKLE_PROTOCOL = 5

#: Frame header: kind (u8), payload format (u8), source rank (i32, -1
#: when not meaningful), tag (i64), payload length (u64).
WIRE_HEADER = struct.Struct(">BBiqQ")

#: Hard cap on a single frame's payload.  Honest peers never approach it
#: (DataMPI chunks at kilobytes); its job is to stop a hostile or
#: corrupt length field from demanding a multi-gigabyte allocation — and,
#: symmetrically, to refuse an oversized frame at *send* time with a
#: clear local error instead of a corrupt-stream error on the peer.
MAX_FRAME_BYTES = 1 << 30

FMT_RAW = 0     #: payload is the bytes, verbatim (never pickled)
FMT_PICKLE = 1  #: pickle-5 body + out-of-band buffer trailers
FMT_BATCH = 2   #: packed (tag, payload) items (see encode_batch)

_OOB_COUNT = struct.Struct(">I")   # number of out-of-band buffers
_OOB_LEN = struct.Struct(">Q")     # body / per-buffer length
_BATCH_ITEM = struct.Struct(">qI")  # per-item tag (i64), length (u32)

#: Largest single item allowed in a batch (the u32 length field's range).
BATCH_ITEM_LIMIT = (1 << 32) - 1

#: The batch shape the bench ladder's ``codec.batch_roundtrip_s`` rung
#: times (no transport batches): items up to this many bytes, a batch
#: flushed at :data:`BATCH_FLUSH_BYTES`.
BATCH_ITEM_MAX = 16 * 1024
BATCH_FLUSH_BYTES = 64 * 1024


def as_buffer(data: Any) -> memoryview:
    """A C-contiguous 1-D byte view of any bytes-like object."""
    view = data if isinstance(data, memoryview) else memoryview(data)
    if view.format != "B" or view.ndim != 1:
        if not view.contiguous:
            view = memoryview(bytes(view))
        view = view.cast("B")
    return view


# -- payload encoding ----------------------------------------------------------


def encode_payload(payload: Any) -> tuple[int, list[Any], int]:
    """Encode one payload as ``(fmt, parts, total_length)``.

    ``parts`` is a list of buffer objects to be written back-to-back;
    bytes-like payloads come back as a single :data:`FMT_RAW` part (the
    caller's buffer itself — zero-copy, never pickled), anything else as
    a :data:`FMT_PICKLE` body plus raw out-of-band buffer trailers.
    """
    if isinstance(payload, (bytes, bytearray, memoryview)):
        view = as_buffer(payload)
        return FMT_RAW, [view], view.nbytes
    buffers: list[pickle.PickleBuffer] = []
    body = pickle.dumps(payload, protocol=PICKLE_PROTOCOL,
                        buffer_callback=buffers.append)
    parts: list[Any] = [_OOB_COUNT.pack(len(buffers)),
                   _OOB_LEN.pack(len(body)), body]
    total = _OOB_COUNT.size + _OOB_LEN.size + len(body)
    for buf in buffers:
        raw = buf.raw()
        parts.append(_OOB_LEN.pack(raw.nbytes))
        parts.append(raw)
        total += _OOB_LEN.size + raw.nbytes
    return FMT_PICKLE, parts, total


def decode_payload(fmt: int, data: Any) -> Any:
    """Invert :func:`encode_payload` for one received payload body.

    :data:`FMT_RAW` bodies come back as ``bytes`` without interpretation;
    :data:`FMT_PICKLE` bodies are unpickled with their out-of-band
    buffers.  Truncated or trailing bytes raise :class:`MPIError` — a
    framing layer that silently tolerated either would be hiding exactly
    the desync bugs this codec exists to surface.
    """
    if fmt == FMT_RAW:
        return data if isinstance(data, bytes) else bytes(data)
    if fmt != FMT_PICKLE:
        raise MPIError(f"unknown payload format {fmt} (corrupt stream?)")
    view = as_buffer(data)
    try:
        (nbufs,) = _OOB_COUNT.unpack_from(view, 0)
        offset = _OOB_COUNT.size
        (body_len,) = _OOB_LEN.unpack_from(view, offset)
    except struct.error as exc:
        raise MPIError(f"truncated control payload: {exc}") from exc
    offset += _OOB_LEN.size
    body = view[offset:offset + body_len]
    if body.nbytes != body_len:
        raise MPIError("truncated control payload (body cut short)")
    offset += body_len
    buffers: list[memoryview] = []
    for _ in range(nbufs):
        try:
            (length,) = _OOB_LEN.unpack_from(view, offset)
        except struct.error as exc:
            raise MPIError(f"truncated out-of-band buffer table: {exc}") from exc
        offset += _OOB_LEN.size
        buf = view[offset:offset + length]
        if buf.nbytes != length:
            raise MPIError("truncated out-of-band buffer (cut short)")
        buffers.append(buf)
        offset += length
    if offset != view.nbytes:
        raise MPIError(
            f"control payload carries {view.nbytes - offset} trailing "
            f"byte(s) (corrupt stream?)"
        )
    return pickle.loads(body, buffers=buffers)


# -- small-payload batching ----------------------------------------------------


def encode_batch(items: Iterable[tuple[int, Any]]) -> bytearray:
    """Pack ``(tag, payload)`` items into one :data:`FMT_BATCH` body.

    Each item is a tag/length header plus the payload bytes verbatim, in
    order — so a batch preserves per-pair FIFO by construction.
    """
    out = bytearray()
    for tag, payload in items:
        view = as_buffer(payload)
        if view.nbytes > BATCH_ITEM_LIMIT:
            raise MPIError(
                f"batch item of {view.nbytes} bytes exceeds the u32 "
                f"length field"
            )
        out += _BATCH_ITEM.pack(tag, view.nbytes)
        out += view
    return out


def decode_batch(data: Any) -> list[tuple[int, memoryview]]:
    """Unpack one batch body into ``(tag, payload_view)`` items.

    The views are read-only zero-copy slices of ``data`` — the receive
    path hands them straight to the merge so records decode in place.
    """
    view = as_buffer(data)
    if not view.readonly:
        view = view.toreadonly()
    items: list[tuple[int, memoryview]] = []
    offset = 0
    while offset < view.nbytes:
        try:
            tag, length = _BATCH_ITEM.unpack_from(view, offset)
        except struct.error as exc:
            raise MPIError(f"truncated batch item header: {exc}") from exc
        offset += _BATCH_ITEM.size
        payload = view[offset:offset + length]
        if payload.nbytes != length:
            raise MPIError(
                f"corrupt batch: item claims {length} bytes, "
                f"{payload.nbytes} remain"
            )
        items.append((tag, payload))
        offset += length
    return items


# -- socket framing ------------------------------------------------------------


def recv_exact(sock: socket.socket, length: int) -> bytes | None:
    """Read exactly ``length`` bytes; ``None`` on clean EOF at a read
    boundary; raises :class:`MPIError` on EOF mid-read.

    A ``socket.timeout`` with zero bytes consumed propagates unchanged —
    that is a bounded read electing to give up, the stream is still
    aligned.  A timeout *after* partial bytes raises :class:`MPIError`
    instead: the unread remainder would make every subsequent read parse
    garbage as a header, so the connection must be treated as torn.
    """
    if length == 0:
        return b""
    parts: list[bytes] = []
    received = 0
    while received < length:
        try:
            data = sock.recv(min(1 << 16, length - received))
        except socket.timeout:
            if received:
                raise MPIError(
                    f"connection torn: timed out after {received} of "
                    f"{length} bytes (stream misaligned)"
                ) from None
            raise
        except OSError as exc:
            raise MPIError(f"connection lost mid-frame: {exc}") from exc
        if not data:
            if received == 0:
                return None
            raise MPIError("connection closed mid-frame (truncated message)")
        parts.append(data)
        received += len(data)
    return parts[0] if len(parts) == 1 else b"".join(parts)


def sendmsg_all(sock: socket.socket, parts: Iterable[Any]) -> None:
    """Write every buffer in ``parts`` back-to-back (vectored, no concat).

    Uses ``socket.sendmsg`` with a partial-write retry loop; falls back
    to ``sendall`` on sockets without ``sendmsg``.
    """
    views = [v for v in (as_buffer(p) for p in parts) if v.nbytes]
    if not views:
        return
    sender = getattr(sock, "sendmsg", None)
    if sender is None:
        sock.sendall(b"".join(views))
        return
    while views:
        sent = sender(views)
        while views and sent >= views[0].nbytes:
            sent -= views[0].nbytes
            views.pop(0)
        if views and sent:
            views[0] = views[0][sent:]


def send_frame(
    sock: socket.socket,
    kind: int,
    tag: int = 0,
    obj: Any = None,
    *,
    source: int = -1,
    max_bytes: int = MAX_FRAME_BYTES,
) -> None:
    """Send one frame: header + payload parts, as one vectored write.

    ``obj`` is encoded via :func:`encode_payload`, so a bytes-like object
    goes out verbatim as :data:`FMT_RAW`.  Oversized frames raise
    :class:`MPIError` locally *before* any byte is written, so the stream
    stays aligned and the error lands on the sender, not as peer-side
    corruption.
    """
    fmt, parts, total = encode_payload(obj)
    if total > max_bytes:
        raise MPIError(
            f"refusing to send a {total}-byte frame: exceeds the "
            f"{max_bytes}-byte frame cap (split the payload)"
        )
    header = WIRE_HEADER.pack(kind, fmt, source, tag, total)
    sendmsg_all(sock, [header, *parts])


def recv_frame(
    sock: socket.socket, *, max_bytes: int = MAX_FRAME_BYTES
) -> tuple[int, int, Any] | None:
    """Receive one frame as ``(kind, tag, obj)``; ``None`` on clean EOF.

    :data:`FMT_RAW` payloads come back as inert ``bytes``;
    :data:`FMT_PICKLE` payloads unpickle, so callers must only hand this
    sockets that have cleared the authentication handshake first.  Any
    timeout past the first header byte marks the stream torn
    (:class:`MPIError`), because a partially consumed frame can never be
    re-synchronised.
    """
    header = recv_exact(sock, WIRE_HEADER.size)
    if header is None:
        return None
    kind, fmt, _source, tag, length = WIRE_HEADER.unpack(header)
    if length > max_bytes:
        raise MPIError(
            f"frame length {length} exceeds the {max_bytes}-byte cap "
            f"(corrupt stream or hostile peer)"
        )
    try:
        body = recv_exact(sock, length)
    except socket.timeout:
        raise MPIError(
            "connection torn: timed out between a frame's header and its "
            "payload (stream misaligned)"
        ) from None
    if body is None:
        raise MPIError("connection closed mid-frame (missing payload)")
    return kind, tag, decode_payload(fmt, body)
