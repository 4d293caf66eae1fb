"""Unit and property tests for the key-value record codec."""

import math
import random
import struct
import sys
import tracemalloc
import types
import zlib

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.bigdatabench.toseqfile import to_sequence_file
from repro.common import kv
from repro.common.kv import (
    KeyValue,
    decode_chunk,
    decode_record,
    decode_stream,
    encode_record,
    encode_stream,
    record_size,
)
from repro.datampi.partition import hash_partitioner

fields = st.one_of(
    st.text(max_size=40),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False, allow_infinity=False),
    st.binary(max_size=40),
    st.booleans(),
    st.none(),
)


class TestRecordCodec:
    def test_string_roundtrip(self):
        record, offset = decode_record(encode_record("word", 1))
        assert record == KeyValue("word", 1)

    def test_bytes_roundtrip(self):
        record, _ = decode_record(encode_record(b"\x00\xff", b"payload"))
        assert record.key == b"\x00\xff"
        assert record.value == b"payload"

    def test_none_value(self):
        record, _ = decode_record(encode_record("k", None))
        assert record.value is None

    def test_bool_distinct_from_int(self):
        record, _ = decode_record(encode_record(True, False))
        assert record.key is True
        assert record.value is False

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            encode_record(object(), 1)

    @given(fields, fields)
    def test_roundtrip_property(self, key, value):
        record, consumed = decode_record(encode_record(key, value))
        assert record == KeyValue(key, value)
        assert consumed == len(encode_record(key, value))


class TestStreamCodec:
    def test_empty_stream(self):
        assert list(decode_stream(b"")) == []

    def test_multi_record_stream(self):
        records = [("a", 1), ("b", 2), ("c", 3)]
        decoded = list(decode_stream(encode_stream(records)))
        assert decoded == [KeyValue(k, v) for k, v in records]

    @given(st.lists(st.tuples(fields, fields), max_size=20))
    def test_stream_roundtrip_property(self, records):
        decoded = list(decode_stream(encode_stream(records)))
        assert decoded == [KeyValue(k, v) for k, v in records]


class TestRecordSize:
    def test_accounts_for_string_bytes(self):
        assert record_size("abc", "") == 8 + 3

    def test_accounts_for_unicode(self):
        assert record_size("é", "") == 8 + 2

    def test_numbers_are_fixed_width(self):
        assert record_size(1, 2.5) == 8 + 8 + 8

    def test_nested_containers(self):
        size = record_size("k", [1.0, 2.0])
        assert size == 8 + 1 + (8 + 8 + 4)

    def test_keyvalue_method_matches_function(self):
        kv = KeyValue("key", "value")
        assert kv.serialized_size() == record_size("key", "value")

    @given(fields, fields)
    def test_size_positive(self, key, value):
        assert record_size(key, value) >= 8


# ---------------------------------------------------------------------------
# Reference codec: the general, one-helper-call-per-field implementation the
# exact-type kernels in ``repro.common.kv`` replaced.  Kept here, whole and
# independent of the module under test, so the differential properties below
# compare the kernels with something they cannot share a bug with.  The
# packed ``W`` dict field is restated here one entry at a time.
# ---------------------------------------------------------------------------

_REF_LEN = struct.Struct(">II")
_REF_ITEM = struct.Struct(">I")


def _ref_field_size(obj):
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, memoryview):
        return obj.nbytes
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, float)):
        return 8
    if obj is None:
        return 0
    if isinstance(obj, (list, tuple)):
        return sum(_ref_field_size(item) for item in obj) + 4
    if isinstance(obj, dict):
        return sum(_ref_field_size(k) + _ref_field_size(v)
                   for k, v in obj.items()) + 4
    return len(repr(obj))


def _ref_encode_items(items):
    out = bytearray()
    for item in items:
        encoded = _ref_encode_field(item)
        out += _REF_ITEM.pack(len(encoded)) + encoded
    return bytes(out)


def _ref_encode_field(obj):
    if isinstance(obj, bytes):
        return b"B" + obj
    if isinstance(obj, str):
        return b"S" + obj.encode("utf-8")
    if isinstance(obj, bool):
        return b"T" if obj else b"F"
    if isinstance(obj, int):
        return b"I" + str(obj).encode("ascii")
    if isinstance(obj, float):
        return b"D" + struct.pack(">d", obj)
    if obj is None:
        return b"N"
    if isinstance(obj, tuple):
        return b"U" + _ref_encode_items(obj)
    if isinstance(obj, list):
        return b"L" + _ref_encode_items(obj)
    if isinstance(obj, dict):
        return _ref_encode_weights(obj) or _ref_encode_map(obj)
    raise TypeError(f"cannot encode field of type {type(obj).__name__}")


def _ref_encode_map(obj):
    return b"M" + _ref_encode_items(item for pair in obj.items() for item in pair)


def _ref_encode_weights(obj):
    """The packed rule, one entry at a time: a non-empty, exact ``dict`` of
    exact ``int`` keys within 64 bits to exact ``float`` values is ``W``,
    the narrowest signed key width, every key, then every value."""
    if type(obj) is not dict or not obj or not all(
            type(key) is int and -(2**63) <= key < 2**63 and type(value) is float
            for key, value in obj.items()):
        return None
    width = next(width for width in (1, 2, 4, 8)
                 if all(-(2 ** (8 * width - 1)) <= key < 2 ** (8 * width - 1)
                        for key in obj))
    return (b"W" + bytes([width])
            + b"".join(key.to_bytes(width, "big", signed=True) for key in obj)
            + b"".join(struct.pack(">d", value) for value in obj.values()))


def _ref_decode_items(payload):
    items, offset = [], 0
    while offset < len(payload):
        (length,) = _REF_ITEM.unpack_from(payload, offset)
        offset += _REF_ITEM.size
        items.append(_ref_decode_field(payload[offset:offset + length]))
        offset += length
    return items


def _ref_decode_field(data):
    tag, payload = bytes(data[:1]), data[1:]
    if tag == b"B":
        return bytes(payload)
    if tag == b"S":
        return str(payload, "utf-8")
    if tag in (b"T", b"F"):
        return tag == b"T"
    if tag == b"I":
        return int(bytes(payload))
    if tag == b"D":
        return struct.unpack(">d", payload)[0]
    if tag == b"N":
        return None
    if tag == b"U":
        return tuple(_ref_decode_items(payload))
    if tag == b"L":
        return _ref_decode_items(payload)
    if tag == b"M":
        flat = _ref_decode_items(payload)
        return dict(zip(flat[0::2], flat[1::2]))
    if tag == b"W":
        payload = bytes(payload)
        width = payload[0]
        count = (len(payload) - 1) // (width + 8)
        keys = [int.from_bytes(payload[1 + i * width:1 + (i + 1) * width],
                               "big", signed=True) for i in range(count)]
        base = 1 + count * width
        values = [struct.unpack(">d", payload[base + 8 * i:base + 8 * i + 8])[0]
                  for i in range(count)]
        return dict(zip(keys, values))
    raise ValueError(f"unknown field tag {tag!r}")


def _ref_encode_record(key, value):
    key_bytes, value_bytes = _ref_encode_field(key), _ref_encode_field(value)
    return _REF_LEN.pack(len(key_bytes), len(value_bytes)) + key_bytes + value_bytes


def _ref_encode_stream(records):
    return b"".join(_ref_encode_record(key, value) for key, value in records)


def _ref_decode_stream(data):
    offset = 0
    while offset < len(data):
        key_len, value_len = _REF_LEN.unpack_from(data, offset)
        start = offset + _REF_LEN.size
        offset = start + key_len + value_len
        yield KeyValue(_ref_decode_field(data[start:start + key_len]),
                       _ref_decode_field(data[start + key_len:offset]))


class Word(str):
    """A ``str`` subclass: must take the general chain, not the exact-type
    front, and still encode as a plain string."""


#: Leaves the ``fields`` strategy does not reach: non-ASCII and astral
#: text, a str subclass, ints beyond 64 bits.  ``fields`` already draws
#: ``True`` next to ``1`` and negative ints.
leaves = st.one_of(
    fields,
    st.text(alphabet="aé中\U0001F600\U00010348", max_size=12),
    st.text(max_size=8).map(Word),
    st.sampled_from([2**70, -(2**70), 1, True, 0, False]),
)
hashable_leaves = st.one_of(
    st.text(max_size=8), st.integers(), st.booleans(), st.none(),
    st.binary(max_size=8),
)
#: What ``W`` packs: K-means' ``dict(vector.weights)``.  Keys reach both
#: ends of every width; values reach NaN with payloads (compared by bit
#: pattern), infinities, ``-0.0`` and subnormals; insertion order is drawn.
WIDTH_EDGES = [0, 127, -128, 128, -129, 2**15, -(2**15) - 1, 2**31, -(2**31) - 1,
               2**63 - 1, -(2**63)]
ODD_FLOATS = [math.nan, -math.nan, struct.unpack(">d", bytes.fromhex("7ff0000000000001"))[0],
              math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-308]
numeric_maps = st.lists(
    st.tuples(st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from(WIDTH_EDGES)),
              st.one_of(st.floats(), st.sampled_from(ODD_FLOATS))),
    min_size=1, max_size=12,
).flatmap(lambda pairs: st.permutations(pairs)).map(dict)
values = st.recursive(
    st.one_of(leaves, numeric_maps),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(hashable_leaves, inner, max_size=4),
    ),
    max_leaves=8,
)
record_lists = st.lists(st.tuples(leaves, values), max_size=12)


#: Chunks that must ship as columns: exact ``str`` keys, values all
#: ``None`` or all exact ``int`` within 64 bits.
column_keys = st.text(alphabet="abz \x00é中\U0001F600", max_size=6)
columnar_lists = st.one_of(
    st.lists(st.tuples(column_keys, st.none()), min_size=1, max_size=12),
    st.lists(st.tuples(column_keys, st.integers(-(2**63), 2**63 - 1)),
             min_size=1, max_size=12),
)

MARKER = 0xC0
HEAD = struct.Struct(">BBBI")


def _is_columnar(records):
    """The selection rule, restated without the module under test."""
    kinds = {type(value) for _key, value in records}
    return (bool(records)
            and all(type(key) is str for key, _value in records)
            and (kinds == {type(None)} or (
                kinds == {int} and all(-(2**63) <= value < 2**63
                                       for _key, value in records))))


def _exactly(obj):
    """``obj`` as nested ``(type, …)`` tuples, each float as its bit
    pattern and each dict as its items in order — what "the same" means
    for decoded data: ``True`` is not ``1``, NaN is its own payload."""
    if type(obj) is float:
        return float, struct.pack(">d", obj)
    if isinstance(obj, dict):
        return type(obj), tuple(map(_exactly, obj.items()))
    if isinstance(obj, (list, tuple)):
        return type(obj), tuple(map(_exactly, obj))
    return type(obj), obj


def _same(decoded, reference):
    """Equal records of equal types, bit for bit."""
    return _exactly(decoded) == _exactly(reference)


def _decodes_to(chunk, reference):
    for data in (chunk, memoryview(chunk)):
        decoded = list(decode_stream(data))
        assert _same(decoded, reference)
        assert all(type(record) is KeyValue for record in decoded)


class TestKernelsAgainstReference:
    @given(st.one_of(record_lists, columnar_lists))
    @example([("a", True), ("b", 1)])
    @example([("a", 1), ("b", True)])
    @example([(Word("w"), None)])
    @example([("k", 2**63)])
    @example([("j", 0), ("k", -(2**63) - 1)])
    @example([("k", 1.5)])
    @example([("k", b"v")])
    @example([("line", "line")])
    @example([("a", 1), ("b", None), ("c", 3)])
    @example([(7, None)])
    @example([("a", None), (7, None)])
    @example([(3, ({2**40: 0.5, -7: math.nan, 12: -0.0}, 1))])
    @example([])
    def test_encode_bytes_equal_reference(self, records):
        """The record stream is the reference's, byte for byte; a columnar
        chunk decodes to what the reference decodes of its own encoding."""
        stream = encode_stream(records)
        assert encode_stream(iter(records)) == stream
        for key, value in records:
            assert encode_record(key, value) == _ref_encode_record(key, value)
        if not _is_columnar(records):
            assert stream == _ref_encode_stream(records)
            assert stream[:1] != bytes([MARKER])
            return
        assert stream[0] == MARKER
        _decodes_to(stream, list(_ref_decode_stream(_ref_encode_stream(records))))

    @given(record_lists)
    @example([(1, ({5: 0.25, 300: math.inf}, 1)), (2, {-1: 5e-324})])
    def test_decode_equals_reference_over_bytes_and_views(self, records):
        stream = _ref_encode_stream(records)
        reference = list(_ref_decode_stream(stream))
        for data in (stream, memoryview(stream)):
            decoded = list(decode_stream(data))
            assert _same(decoded, reference)
            assert all(type(record) is KeyValue for record in decoded)
            offset, singles = 0, []
            while offset < len(stream):
                record, offset = decode_record(data, offset)
                singles.append(record)
            assert _same(singles, reference)

    @given(leaves, values)
    def test_record_size_equals_reference(self, key, value):
        assert record_size(key, value) == (
            8 + _ref_field_size(key) + _ref_field_size(value))
        view = memoryview(b"abcdef")
        assert record_size(view, bytearray(b"xy")) == 8 + 6 + 2

    def test_hash_partitioner_unchanged(self):
        pinned = {"word": 1672872424, "h\u00e9llo": 1278500628,
                  "\U0001F600": 2020677715, 2**70: 2942373536,
                  True: 193789234}
        for key, crc in pinned.items():
            assert zlib.crc32(encode_record(key, None)) == crc
            assert hash_partitioner(key, 7) == crc % 7
        rng = random.Random(17)
        alphabet = "abcxyz \u00e9\u4e2d\U0001F600"
        for index in range(1000):
            key = rng.choice([
                "".join(rng.choice(alphabet) for _ in range(rng.randrange(12))),
                rng.randrange(-10**6, 10**6), rng.random(), index % 2 == 0,
                (index, "k"), None, Word("w%d" % index),
            ])
            parts = rng.randrange(1, 9)
            assert hash_partitioner(key, parts) == (
                zlib.crc32(_ref_encode_record(key, None)) % parts)


#: Columnar chunks for :func:`decode_chunk`: all-ASCII keys (the sliced
#: text path) next to ones that mix in two-byte, CJK and astral
#: characters (the per-key fallback), empty keys, and values at both ends
#: of every column width.
resident_keys = st.one_of(
    st.text(alphabet="ab z\x00~", max_size=6),
    column_keys,
)
resident_lists = st.one_of(
    st.lists(st.tuples(resident_keys, st.none()), min_size=1, max_size=12),
    st.lists(st.tuples(resident_keys, st.one_of(
        st.integers(-(2**63), 2**63 - 1), st.sampled_from(WIDTH_EDGES))),
        min_size=1, max_size=12),
)


class TestDecodeChunk:
    """:func:`decode_chunk` is :func:`decode_stream`, listed, in either
    layout and over ``bytes`` or a view."""

    @given(st.one_of(resident_lists, record_lists))
    @example([("ascii", None), ("", None)])
    @example([("abc", 0), ("", 127), ("de", -128)])
    @example([("h\u00e9", 128), ("", -129)])
    @example([("x", 2**15)])
    @example([("\U0001F600x", 2**31), ("", -(2**63)), ("a", 2**63 - 1)])
    @example([("k", 1.5)])
    @example([])
    def test_equals_the_lazy_decoder(self, records):
        chunk = encode_stream(records)
        for data in (chunk, memoryview(chunk)):
            decoded = decode_chunk(data)
            assert (type(decoded) is list) == (chunk[:1] == bytes([MARKER]))
            decoded = list(decoded)
            assert _same(decoded, list(decode_stream(data)))
            assert all(type(record) is KeyValue for record in decoded)

    def test_a_key_cut_inside_a_character_raises(self):
        """The body decodes whole, but a length column that splits a
        character must not slice the text as if it were ASCII."""
        chunk = bytearray(encode_stream([("\u00e9", None), ("a", None)]))
        chunk[HEAD.size:HEAD.size + 2] = b"\x01\x02"  # same sum, split "é"
        with pytest.raises(UnicodeDecodeError):
            list(decode_stream(bytes(chunk)))
        with pytest.raises(UnicodeDecodeError):
            decode_chunk(bytes(chunk))


class TestTruncatedStream:
    """A stream cut anywhere but a record boundary must raise — never
    decode a short slice into a shortened string."""

    RECORDS = [("hello", "world"), ("abc", "defghij"), ("k", 12345)]

    def test_the_silent_case(self):
        stream = encode_stream(self.RECORDS[:2])[:-3]
        with pytest.raises(ValueError, match="truncated record at offset 20"):
            list(decode_stream(stream))

    @pytest.mark.parametrize("wrap", [bytes, memoryview])
    def test_every_proper_prefix(self, wrap):
        stream = encode_stream(self.RECORDS)
        boundaries = {}
        for count in range(len(self.RECORDS) + 1):
            boundaries[len(encode_stream(self.RECORDS[:count]))] = count
        whole = [KeyValue(*record) for record in self.RECORDS]
        for cut in range(len(stream)):
            data, seen = wrap(stream[:cut]), []
            if cut in boundaries:
                assert list(decode_stream(data)) == whole[:boundaries[cut]]
                continue
            with pytest.raises(ValueError, match="truncated record") as info:
                for record in decode_stream(data):
                    seen.append(record)
            # Whole records before the tear are fine; nothing wrong after.
            assert seen == whole[:len(seen)]
            offset = len(encode_stream(self.RECORDS[:len(seen)]))
            assert f"offset {offset}:" in str(info.value)
            assert f"{cut - offset} remain" in str(info.value)
            with pytest.raises(ValueError, match="truncated record"):
                decode_record(data, offset)

    def test_message_names_promised_and_remaining(self):
        stream = encode_stream([("hello", "world")])
        with pytest.raises(ValueError) as info:
            decode_record(stream[:-1])
        assert str(info.value) == (
            "truncated record at offset 0: 20 bytes promised, 19 remain")
        with pytest.raises(ValueError, match="8 bytes promised, 5 remain"):
            decode_record(stream[:5])

    def test_empty_field_still_rejected(self):
        for stream in (struct.pack(">II", 0, 1) + b"N",
                       struct.pack(">II", 2, 0) + b"Sk",
                       struct.pack(">II", 0, 0)):
            with pytest.raises(ValueError, match="unknown field tag b''"):
                list(decode_stream(stream))
            with pytest.raises(ValueError, match="unknown field tag b''"):
                decode_record(stream)


def _widths(chunk):
    """``(key-length width, value width, count)`` of a columnar chunk."""
    marker, length_width, value_width, count = HEAD.unpack_from(chunk)
    assert marker == MARKER
    return length_width, value_width, count


def _roundtrips(records):
    chunk = encode_stream(records)
    _decodes_to(chunk, [KeyValue(*record) for record in records])
    return chunk


class TestColumnarLayout:
    """Each column takes the narrowest fixed width that holds it."""

    @pytest.mark.parametrize("values, width", [
        ([0, 127, -128], 1), ([128], 2), ([-129], 2),
        ([32767, -32768], 2), ([32768], 4), ([-32769], 4),
        ([2**31 - 1, -(2**31)], 4), ([2**31], 8), ([-(2**31) - 1], 8),
        ([2**63 - 1], 8), ([-(2**63)], 8), ([2**63 - 1, -(2**63), 0], 8),
    ])
    def test_value_width(self, values, width):
        records = [("k%d" % index, value) for index, value in enumerate(values)]
        chunk = _roundtrips(records)
        assert _widths(chunk) == (1, width, len(values))
        assert len(chunk) == HEAD.size + sum(
            1 + len(key) + width for key, _value in records)

    @pytest.mark.parametrize("longest, width", [
        (0, 1), (255, 1), (256, 2), (65_535, 2), (65_536, 4)])
    def test_key_length_width(self, longest, width):
        records = [("", None), ("x" * longest, None), ("tail", None)]
        chunk = _roundtrips(records)
        assert _widths(chunk) == (width, 0, 3)
        assert len(chunk) == HEAD.size + 3 * width + longest + 4

    def test_length_column_counts_utf8_bytes_not_characters(self):
        # 128 two-byte characters: 128 fits one byte as a character count,
        # 256 does not as a byte count.
        records = [("é" * 128, 1), ("", 2), ("中\U0001F600", 3), ("\x00", 4)]
        chunk = _roundtrips(records)
        assert _widths(chunk) == (2, 1, 4)
        assert len(chunk) == HEAD.size + 4 * 2 + (256 + 0 + 7 + 1) + 4 * 1

    def test_one_record_and_empty_chunks(self):
        assert _roundtrips([("only", None)]) == (
            bytes([MARKER, 1, 0, 0, 0, 0, 1, 4]) + b"only")
        assert _roundtrips([("", -1)]) == bytes([MARKER, 1, 1, 0, 0, 0, 1, 0, 0xFF])
        assert encode_stream([]) == encode_stream(iter([])) == b""
        # Never produced, still well formed: a header that promises nothing.
        assert list(decode_stream(bytes([MARKER, 1, 0, 0, 0, 0, 0]))) == []

    def test_a_record_that_is_not_a_pair_is_still_refused(self):
        for records in ([("a", None, "dropped?")], [("a", None), ("b",)]):
            with pytest.raises(ValueError, match="unpack"):
                encode_stream(records)

    def test_record_stream_cannot_start_with_the_marker(self, monkeypatch):
        """A first key of 3 GiB or more would put the marker first; too
        big to build here, so the length field is faked."""

        def pack(key_len, value_len):
            return struct.pack(">II", key_len + 0xC000_0000, value_len)

        assert encode_stream([("k", "v")])[0] == 0
        monkeypatch.setattr(kv, "_LEN", types.SimpleNamespace(pack=pack))
        with pytest.raises(ValueError, match="below 3 GiB"):
            encode_stream([("k", "v")])


class TestTornColumnarChunk:
    """Everything is checked before the first record: a damaged columnar
    chunk yields nothing at all."""

    CHUNKS = {
        "str-none": [("hello", None), ("", None), ("wörld", None)],
        "str-int": [("hello", 1), ("abc", -70_000), ("", 3)],
    }

    @staticmethod
    def _raises_before_first_record(data, match):
        seen = []
        with pytest.raises(ValueError, match=match):
            for record in decode_stream(data):
                seen.append(record)
        assert seen == []

    @pytest.mark.parametrize("wrap", [bytes, memoryview])
    @pytest.mark.parametrize("name", sorted(CHUNKS))
    def test_every_proper_prefix(self, name, wrap):
        chunk = encode_stream(self.CHUNKS[name])
        assert chunk[0] == MARKER
        for cut in range(1, len(chunk)):
            self._raises_before_first_record(
                wrap(chunk[:cut]), f"bytes promised, {cut} present")
        assert list(decode_stream(wrap(chunk[:0]))) == []

    @pytest.mark.parametrize("name", sorted(CHUNKS))
    def test_trailing_bytes(self, name):
        chunk = encode_stream(self.CHUNKS[name])
        self._raises_before_first_record(
            chunk + b"\x00", f"{len(chunk)} bytes promised, {len(chunk) + 1} present")

    @pytest.mark.parametrize("name", sorted(CHUNKS))
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_length_column_that_does_not_add_up(self, name, delta):
        damaged = bytearray(encode_stream(self.CHUNKS[name]))
        damaged[HEAD.size] += delta  # the first key's length
        self._raises_before_first_record(bytes(damaged), "torn columnar chunk")

    @pytest.mark.parametrize("position, code", [
        (1, 0), (1, 3), (1, 8), (2, 3), (2, 16), (2, 255)])
    def test_unknown_column_code(self, position, code):
        damaged = bytearray(encode_stream(self.CHUNKS["str-int"]))
        damaged[position] = code
        self._raises_before_first_record(bytes(damaged), "unknown column code")

    def test_count_far_beyond_the_chunk(self):
        damaged = bytearray(encode_stream(self.CHUNKS["str-int"]))
        damaged[3:7] = b"\xff\xff\xff\xff"
        self._raises_before_first_record(bytes(damaged), "torn columnar chunk")


def _same_error(data):
    """The ``ValueError`` text :func:`decode_stream` raises for ``data``,
    after checking that :func:`decode_chunk` raises it too, word for word."""
    with pytest.raises(ValueError) as lazy:
        list(decode_stream(data))
    with pytest.raises(ValueError) as whole:
        decode_chunk(data)
    assert str(whole.value) == str(lazy.value)
    return str(lazy.value)


class TestTornColumnarChunkAtOnce:
    """:func:`decode_chunk` makes :class:`TestTornColumnarChunk`'s checks,
    with its messages: every case there, through both decoders."""

    CHUNKS = TestTornColumnarChunk.CHUNKS

    @pytest.mark.parametrize("wrap", [bytes, memoryview])
    @pytest.mark.parametrize("name", sorted(CHUNKS))
    def test_every_proper_prefix(self, name, wrap):
        chunk = encode_stream(self.CHUNKS[name])
        for cut in range(1, len(chunk)):
            assert f"bytes promised, {cut} present" in _same_error(wrap(chunk[:cut]))
        assert list(decode_chunk(wrap(chunk[:0]))) == []

    @pytest.mark.parametrize("name", sorted(CHUNKS))
    def test_trailing_bytes(self, name):
        chunk = encode_stream(self.CHUNKS[name])
        assert _same_error(chunk + b"\x00") == (
            f"torn columnar chunk: {len(chunk)} bytes promised, {len(chunk) + 1} present")

    @pytest.mark.parametrize("name", sorted(CHUNKS))
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_length_column_that_does_not_add_up(self, name, delta):
        damaged = bytearray(encode_stream(self.CHUNKS[name]))
        damaged[HEAD.size] += delta
        assert _same_error(bytes(damaged)).startswith("torn columnar chunk")

    @pytest.mark.parametrize("position, code", [
        (1, 0), (1, 3), (1, 8), (2, 3), (2, 16), (2, 255)])
    def test_unknown_column_code(self, position, code):
        damaged = bytearray(encode_stream(self.CHUNKS["str-int"]))
        damaged[position] = code
        assert _same_error(bytes(damaged)).startswith("unknown column code")

    def test_count_far_beyond_the_chunk(self):
        damaged = bytearray(encode_stream(self.CHUNKS["str-int"]))
        damaged[3:7] = b"\xff\xff\xff\xff"
        assert _same_error(bytes(damaged)).startswith("torn columnar chunk")

    def test_a_torn_record_stream_still_yields_its_whole_records(self):
        records = [("c", 4.0), ("d", 5.0)]
        seen = []
        with pytest.raises(ValueError, match="truncated record"):
            for record in decode_chunk(encode_stream(records)[:-1]):
                seen.append(tuple(record))
        assert seen == records[:1]


class FloatSub(float):
    """A ``float`` subclass: a dict holding one is not packed."""


class DictSub(dict):
    """A ``dict`` subclass: not packed, whatever it holds."""


class TestPackedWeights:
    """A non-empty, exact ``dict`` of 64-bit ``int`` to ``float`` ships as
    ``W``; every other dict is the ``M`` field, byte for byte."""

    WEIGHTS = {1: 0.5, -300: math.nan, 2**40: -0.0}

    @pytest.mark.parametrize("keys, width", [
        ([0, 127, -128], 1), ([128], 2), ([-(2**15)], 2), ([2**15], 4),
        ([-(2**31)], 4), ([2**31], 8), ([2**63 - 1, -(2**63)], 8)])
    def test_key_width_and_size(self, keys, width):
        weights = dict.fromkeys(keys, 1.5)
        field = kv._encode_field(weights)
        assert field[:2] == bytes([ord("W"), width])
        assert len(field) == 2 + len(keys) * (width + 8)
        for data in (field, memoryview(field)):
            decoded = kv._decode_field(data)
            assert _same(decoded, weights)

    def test_a_kmeans_record(self):
        """Header, ``I5``, then ``U`` of the ``W`` field and ``I1``: ten
        bytes a weight with two-byte keys, against ≈ 21 as ``M``.  The send
        buffer's charge, ``record_size``, stays the unpacked size."""
        weights = {dim * 37: 0.1 * dim for dim in range(32)}
        packed = encode_record(5, (weights, 1))
        assert len(packed) == 8 + 2 + 1 + (4 + 2 + 32 * (2 + 8)) + (4 + 2)
        assert len(_ref_encode_map(weights)) == 673
        assert record_size(5, (weights, 1)) == 8 + 8 + (4 + (4 + 32 * 16) + 8)

    @pytest.mark.parametrize("obj", [
        {True: 1.0}, {1: 1.0, False: 2.0}, {2**63: 1.0}, {-(2**63) - 1: 1.0},
        {1: 1}, {1: FloatSub(1.0)}, DictSub({1: 1.0}), {}, {1: 1.0, 2: 2},
        {1: 1.0, "a": 2.0}, {1.0: 1.0}])
    def test_everything_else_is_the_map_field(self, obj):
        field = kv._encode_field(obj)
        assert field == _ref_encode_map(obj)
        decoded = kv._decode_field(field)
        assert type(decoded) is dict and _same(decoded, _ref_decode_field(field))

    @given(st.one_of(
        numeric_maps,
        st.dictionaries(st.one_of(st.integers(), st.booleans()),
                        st.one_of(st.floats(), st.integers(), st.booleans()),
                        max_size=6),
        st.dictionaries(st.integers(), values, max_size=4),
        st.dictionaries(st.integers(), st.floats(), max_size=4).map(DictSub),
        st.dictionaries(st.integers(), st.floats().map(FloatSub), max_size=4),
    ))
    @example({})
    @example({True: 1.0, 2: 2.0})
    @example({1: 1, 2: 2.0})
    @example({1: {2: 3.0}})
    def test_weight_dict_size_equals_the_walk(self, weights):
        """The exact ``int -> float`` dict's ``16 * len + 4`` is the walk's
        charge; bool keys, int values, subclasses and nested values take
        the walk itself."""
        assert kv._field_size(weights) == _ref_field_size(weights)

    @pytest.mark.parametrize("wrap", [bytes, memoryview])
    def test_every_proper_prefix_in_a_record_stream(self, wrap):
        """The field carries no count, like ``M``, ``L`` and ``U``: its
        length is the enclosing record's, and a cut anywhere in the record
        raises."""
        stream = encode_stream([(3, (self.WEIGHTS, 1))])
        for cut in range(1, len(stream)):
            with pytest.raises(ValueError, match="truncated record"):
                list(decode_stream(wrap(stream[:cut])))

    @pytest.mark.parametrize("wrap", [bytes, memoryview])
    def test_every_proper_prefix_off_an_entry(self, wrap):
        """A bare field cut anywhere but after whole entries raises; cut
        after ``k`` whole entries it is a shorter field of ``k`` entries,
        as an ``M`` field cut between items is a shorter map."""
        field = kv._encode_field(self.WEIGHTS)
        width = field[1]
        for cut in range(len(field)):
            whole, spare = divmod(cut - 2, width + 8)
            if cut > 2 and not spare:
                assert len(kv._decode_field(wrap(field[:cut]))) == whole
                continue
            with pytest.raises(ValueError):
                kv._decode_field(wrap(field[:cut]))
        one = kv._encode_field({7: 2.5})
        for cut in range(len(one)):
            with pytest.raises(ValueError):
                kv._decode_field(wrap(one[:cut]))

    def test_trailing_byte(self):
        field = kv._encode_field(self.WEIGHTS)
        with pytest.raises(ValueError, match="torn weight field"):
            kv._decode_field(field + b"\x00")

    @pytest.mark.parametrize("code", [0, 3, 5, 16, 255])
    def test_unknown_width_code(self, code):
        damaged = bytearray(kv._encode_field(self.WEIGHTS))
        damaged[1] = code
        with pytest.raises(ValueError, match="unknown key width"):
            kv._decode_field(bytes(damaged))


def _python_calls(function):
    """Python-level ``call`` events (function entries and generator
    resumes) while ``function`` runs — machine-independent, no timing."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(previous)
    return calls


class TestKernelsStayKernels:
    """No per-record Python frame may come back: a columnar chunk decodes
    and encodes without one call event per record."""

    N = 10_000
    CHUNKS = {
        "str-none": [("line %06d of text" % i, None) for i in range(N)],
        "str-int": [("word%d" % i, i) for i in range(N)],
    }

    @pytest.mark.parametrize("name", sorted(CHUNKS))
    def test_decode_is_one_resume_per_record(self, name):
        view = memoryview(encode_stream(self.CHUNKS[name]))
        decoded = []
        calls = _python_calls(lambda: decoded.extend(decode_stream(view)))
        assert len(decoded) == self.N
        assert calls <= 50

    @pytest.mark.parametrize("records", [
        CHUNKS["str-none"],
        [("w\u00f6rd%d" % i, i) for i in range(N)],
    ], ids=["ascii-body", "non-ascii-body"])
    def test_decode_chunk_makes_no_per_record_call(self, records):
        view = memoryview(encode_stream(records))
        decoded = []
        calls = _python_calls(lambda: decoded.extend(decode_chunk(view)))
        assert decoded == [KeyValue(*record) for record in records]
        assert calls <= 50

    @pytest.mark.parametrize("name", sorted(CHUNKS))
    def test_encode_makes_no_per_record_call(self, name):
        records = self.CHUNKS[name]
        assert _python_calls(lambda: encode_stream(records)) <= 50

    def test_a_weight_map_packs_and_unpacks_in_c(self):
        """A 10 000-entry ``W`` field, inside a K-means record."""
        record = [(3, ({dim: dim / 7 for dim in range(-5_000, 5_000)}, 1))]
        calls = _python_calls(lambda: encode_stream(record))
        assert calls <= 50
        stream = encode_stream(record)
        decoded = []
        calls = _python_calls(lambda: decoded.extend(decode_stream(stream)))
        assert _same(decoded, [KeyValue(*record[0])])
        assert calls <= 50

    @pytest.mark.parametrize("name", sorted(CHUNKS))
    def test_decode_is_lazy(self, name):
        """Opening a chunk and taking its first record allocates O(1):
        the decoder never holds the chunk as records, so a spilled chunk
        stays in its mapped segment while the merge advances."""
        view = memoryview(encode_stream(self.CHUNKS[name]))
        tracemalloc.start()
        try:
            first = next(decode_stream(view))
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first == KeyValue(*self.CHUNKS[name][0])
        assert peak < 4096


def test_sequence_files_stay_on_the_record_stream():
    """``(str, str)`` is not a columnar shape: ToSeqFile's raw size — the
    numerator of the measured compression ratio the Normal Sort model
    uses — is still 10 framing bytes a record plus the line twice."""
    lines = ["plain ascii", "", "h\u00e9llo w\u00f6rld", "\U0001F600 astral"]
    assert to_sequence_file(lines).raw_bytes == sum(
        2 * len(line.encode()) + 10 for line in lines)
