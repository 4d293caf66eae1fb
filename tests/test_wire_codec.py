"""Property and adversarial tests for the typed binary wire codec.

The codec (:mod:`repro.mpi.transport.codec`) is the data-plane contract
shared by the tcp and shm transports: struct-packed headers, FMT_RAW
bytes that never touch pickle, pickle-5 out-of-band control payloads,
and batched small chunks.  These tests pin the format down two ways:

* **round-trip properties** (hypothesis): encode/decode is the identity
  for arbitrary payload objects, raw byte strings, and batches;
* **adversarial framing**: truncated headers, corrupt lengths, EOF and
  timeouts landing mid-frame must raise :class:`MPIError` (a torn
  stream), while clean EOF / clean timeout at a frame boundary keep
  their ordinary meanings.
"""

from __future__ import annotations

import pickle
import pickletools
import socket
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import MPIError
from repro.mpi.transport.codec import (
    FMT_PICKLE,
    FMT_RAW,
    WIRE_HEADER,
    decode_batch,
    decode_payload,
    encode_batch,
    encode_payload,
    recv_exact,
    recv_frame,
    send_frame,
)

TAG = st.integers(min_value=-(2**63), max_value=2**63 - 1)
PAYLOAD_OBJECTS = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.text(max_size=20)
    | st.binary(max_size=64),
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10,
)


def _decode_parts(fmt: int, parts: list) -> object:
    return decode_payload(fmt, b"".join(bytes(p) for p in parts))


class TestPayloadRoundTrip:
    @given(payload=st.binary(max_size=4096))
    def test_bytes_go_raw_and_round_trip(self, payload: bytes):
        fmt, parts, total = encode_payload(payload)
        assert fmt == FMT_RAW
        assert total == len(payload)
        # The single part is the caller's buffer itself (zero-copy) and
        # is delivered verbatim — pickle never sees it.
        assert _decode_parts(fmt, parts) == payload

    @given(payload=PAYLOAD_OBJECTS)
    def test_objects_round_trip_through_pickle5(self, payload):
        fmt, parts, total = encode_payload(payload)
        assert fmt in (FMT_RAW, FMT_PICKLE)
        assert total == sum(memoryview(bytes(p)).nbytes for p in parts)
        assert _decode_parts(fmt, parts) == payload

    def test_buffer_bearing_object_uses_out_of_band_trailer(self):
        bulk = bytearray(b"x" * 4096)
        fmt, parts, _ = encode_payload(("meta", pickle.PickleBuffer(bulk)))
        assert fmt == FMT_PICKLE
        # The 4 KiB of bulk must ride a raw trailer, not the pickle body.
        body_len = struct.unpack_from(">Q", bytes(parts[1]))[0]
        assert body_len < 1024

    def test_memoryview_and_bytearray_are_raw(self):
        for payload in (bytearray(b"abc"), memoryview(b"abc")):
            fmt, parts, total = encode_payload(payload)
            assert fmt == FMT_RAW and total == 3
            assert _decode_parts(fmt, parts) == b"abc"

    def test_decoded_raw_is_inert_bytes(self):
        # A payload that *is* a valid pickle stream still comes back as
        # the literal bytes — FMT_RAW is never unpickled.
        evil = pickle.dumps({"boom": True})
        fmt, parts, _ = encode_payload(evil)
        out = _decode_parts(fmt, parts)
        assert out == evil and isinstance(out, bytes)


def _pickle_body(parts: list) -> bytes:
    """The pickle body of an encoded :data:`FMT_PICKLE` payload."""
    return bytes(parts[2])


MEMO_OPCODES = {"PUT", "BINPUT", "LONG_BINPUT", "MEMOIZE"}


class Text(str):
    """A ``str`` subclass: not an atom."""


class Leaf:
    """A plain object: not an atom."""


class TestMemoFreeFrames:
    """A tree of atoms — lists, tuples and dicts over exact atoms, no list
    or dict reached twice — is pickled without the memo; anything that
    shares an object or closes a cycle keeps it, identity and all."""

    @given(payload=PAYLOAD_OBJECTS)
    def test_a_tree_of_atoms_writes_no_memo_opcode(self, payload):
        fmt, parts, _ = encode_payload(payload)
        if fmt == FMT_RAW:
            return
        opcodes = {op.name for op, _arg, _pos in pickletools.genops(_pickle_body(parts))}
        assert not opcodes & MEMO_OPCODES
        assert _decode_parts(fmt, parts) == payload

    def test_a_rank_outcome_of_many_strings(self):
        outcome = (1, "ok", ("a", ["line %06d" % i for i in range(50_000)],
                             {"a.records": 50_000, "a.seconds": 0.25}))
        fmt, parts, _ = encode_payload(outcome)
        opcodes = {op.name for op, _arg, _pos in pickletools.genops(_pickle_body(parts))}
        assert fmt == FMT_PICKLE and not opcodes & MEMO_OPCODES
        assert _decode_parts(fmt, parts) == outcome

    def test_shared_and_cyclic_payloads_keep_their_identity(self):
        shared = ["x", 1]
        cyclic: list = []
        cyclic.append(cyclic)
        table = {"k": 1}
        for payload in ([shared, shared], (shared, (shared,)), cyclic,
                        {"a": table, "b": [table]}):
            fmt, parts, _ = encode_payload(payload)
            opcodes = {op.name for op, _arg, _pos in pickletools.genops(_pickle_body(parts))}
            assert opcodes & MEMO_OPCODES
            decoded = _decode_parts(fmt, parts)
            if payload is cyclic:
                assert decoded[0] is decoded
            elif isinstance(payload, dict):
                assert decoded["a"] is decoded["b"][0] and decoded["a"] == table
            else:
                first, second = decoded[0], decoded[1]
                assert (first is second) if isinstance(payload, list) else \
                    (first is second[0])
                assert first == shared

    @pytest.mark.parametrize("payload", [
        [Text("subclass")], {1, 2}, ("x", frozenset({1})), [1, Leaf()],
    ], ids=["str-subclass", "set", "frozenset", "object"])
    def test_anything_else_keeps_the_memo_path(self, payload):
        fmt, parts, _ = encode_payload(payload)
        opcodes = {op.name for op, _arg, _pos in pickletools.genops(_pickle_body(parts))}
        assert fmt == FMT_PICKLE and opcodes & MEMO_OPCODES


class TestPayloadCorruption:
    def test_unknown_format_rejected(self):
        with pytest.raises(MPIError, match="unknown payload format"):
            decode_payload(7, b"whatever")

    def test_truncated_header_rejected(self):
        with pytest.raises(MPIError, match="truncated control payload"):
            decode_payload(FMT_PICKLE, b"\x00\x00")

    def test_truncated_body_rejected(self):
        fmt, parts, _ = encode_payload({"k": 1})
        wire = b"".join(bytes(p) for p in parts)
        with pytest.raises(MPIError, match="cut short|truncated"):
            decode_payload(fmt, wire[:-1])

    def test_trailing_garbage_rejected(self):
        fmt, parts, _ = encode_payload({"k": 1})
        wire = b"".join(bytes(p) for p in parts)
        with pytest.raises(MPIError, match="trailing"):
            decode_payload(fmt, wire + b"\x00")

    def test_truncated_buffer_table_rejected(self):
        fmt, parts, _ = encode_payload(pickle.PickleBuffer(b"z" * 256))
        wire = b"".join(bytes(p) for p in parts)
        with pytest.raises(MPIError, match="out-of-band buffer|cut short"):
            decode_payload(fmt, wire[:-200])


class TestBatchRoundTrip:
    @given(items=st.lists(st.tuples(TAG, st.binary(max_size=256)), max_size=16))
    def test_batch_round_trips_tags_and_payloads(self, items):
        decoded = decode_batch(encode_batch(items))
        assert [(t, bytes(v)) for t, v in decoded] == items

    @given(items=st.lists(st.tuples(TAG, st.binary(max_size=64)), max_size=8))
    def test_batch_views_are_readonly_zero_copy(self, items):
        for _, view in decode_batch(encode_batch(items)):
            assert isinstance(view, memoryview) and view.readonly

    def test_truncated_item_header_rejected(self):
        wire = encode_batch([(1, b"abc")])
        with pytest.raises(MPIError, match="truncated batch item header"):
            decode_batch(bytes(wire)[: struct.calcsize(">qI") - 2])

    def test_corrupt_length_rejected(self):
        wire = bytearray(encode_batch([(1, b"abc")]))
        # Inflate the u32 length field past the actual payload.
        struct.pack_into(">I", wire, 8, 9999)
        with pytest.raises(MPIError, match="corrupt batch"):
            decode_batch(wire)

    def test_empty_batch_decodes_empty(self):
        assert decode_batch(encode_batch([])) == []


class _FrameSocket:
    """A socketpair where the test scripts the peer's raw bytes."""

    def __enter__(self):
        self.reader, self.writer = socket.socketpair()
        self.reader.settimeout(5.0)
        return self

    def __exit__(self, *exc):
        for sock in (self.reader, self.writer):
            sock.close()
        return False


class TestSocketFraming:
    def test_frame_round_trip_over_socketpair(self):
        with _FrameSocket() as pair:
            send_frame(pair.writer, 3, tag=7, obj={"step": 1}, source=2)
            send_frame(pair.writer, 4, tag=9, obj=b"raw-chunk")
            assert recv_frame(pair.reader) == (3, 7, {"step": 1})
            kind, tag, body = recv_frame(pair.reader)
            assert (kind, tag) == (4, 9)
            assert body == b"raw-chunk" and isinstance(body, bytes)

    def test_clean_eof_returns_none(self):
        with _FrameSocket() as pair:
            pair.writer.close()
            assert recv_frame(pair.reader) is None

    def test_eof_inside_header_is_torn_stream(self):
        with _FrameSocket() as pair:
            pair.writer.sendall(b"\x01\x00\x00")  # 3 of WIRE_HEADER.size bytes
            pair.writer.close()
            with pytest.raises(MPIError, match="closed mid-frame"):
                recv_frame(pair.reader)

    def test_eof_between_header_and_payload_is_torn_stream(self):
        with _FrameSocket() as pair:
            pair.writer.sendall(WIRE_HEADER.pack(1, FMT_RAW, 0, 0, 100))
            pair.writer.close()
            with pytest.raises(MPIError, match="missing payload"):
                recv_frame(pair.reader)

    def test_timeout_at_frame_boundary_stays_a_timeout(self):
        # Zero bytes consumed: the stream is still aligned, so a bounded
        # read gives up with the ordinary socket.timeout.
        with _FrameSocket() as pair:
            pair.reader.settimeout(0.05)
            with pytest.raises(socket.timeout):
                recv_frame(pair.reader)

    def test_timeout_mid_header_is_torn_stream(self):
        with _FrameSocket() as pair:
            pair.reader.settimeout(0.2)
            pair.writer.sendall(b"\x01\x00")  # partial header, then silence
            with pytest.raises(MPIError, match="stream misaligned"):
                recv_frame(pair.reader)

    def test_timeout_between_header_and_payload_is_torn_stream(self):
        with _FrameSocket() as pair:
            pair.reader.settimeout(0.2)
            pair.writer.sendall(WIRE_HEADER.pack(1, FMT_RAW, 0, 0, 64))
            with pytest.raises(MPIError, match="header and its payload"):
                recv_frame(pair.reader)

    def test_recv_exact_partial_then_timeout_is_torn_stream(self):
        with _FrameSocket() as pair:
            pair.reader.settimeout(0.2)
            pair.writer.sendall(b"1234")
            with pytest.raises(MPIError, match="timed out after 4 of 10"):
                recv_exact(pair.reader, 10)

    def test_oversized_length_field_rejected_by_reader(self):
        with _FrameSocket() as pair:
            pair.writer.sendall(WIRE_HEADER.pack(1, FMT_RAW, 0, 0, 1 << 40))
            with pytest.raises(MPIError, match="exceeds the .*cap"):
                recv_frame(pair.reader)

    def test_oversized_frame_rejected_locally_at_send(self):
        with _FrameSocket() as pair:
            with pytest.raises(MPIError, match="refusing to send"):
                send_frame(pair.writer, 1, obj=b"x" * 64, max_bytes=16)
            # Nothing was written: the peer sees only what comes next.
            send_frame(pair.writer, 2, obj=b"ok", max_bytes=1024)
            assert recv_frame(pair.reader) == (2, 0, b"ok")

    def test_crafted_pickle_bytes_stay_inert(self, tmp_path):
        flag = tmp_path / "pwned"

        class Evil:
            def __reduce__(self):
                return (flag.write_text, ("boom",))

        wire = pickle.dumps(Evil())
        with _FrameSocket() as pair:
            # An FMT_RAW frame whose body is a working pickle bomb.
            pair.writer.sendall(
                WIRE_HEADER.pack(1, FMT_RAW, 0, 0, len(wire)) + wire
            )
            kind, _, body = recv_frame(pair.reader)
            assert kind == 1 and body == wire
        assert not flag.exists(), "FMT_RAW payload was unpickled"

    @settings(max_examples=25, deadline=None)
    @given(payload=st.binary(min_size=0, max_size=1 << 16))
    def test_large_raw_frames_survive_vectored_writes(self, payload: bytes):
        with _FrameSocket() as pair:
            error: list[BaseException] = []

            def pump():
                try:
                    send_frame(pair.writer, 1, tag=5, obj=payload)
                except BaseException as exc:  # noqa: BLE001
                    error.append(exc)

            writer = threading.Thread(target=pump)
            writer.start()
            frame = recv_frame(pair.reader)
            writer.join(5.0)
            assert not error
            assert frame == (1, 5, payload)
