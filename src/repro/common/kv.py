"""Key-value records — the unit of data in every engine in this library.

DataMPI's central idea (Section 2.3 of the paper) is that Big Data
communication is key-value based rather than buffer based.  All three
engines in this reproduction (Hadoop, Spark, DataMPI) exchange
:class:`KeyValue` records, and the serialization here defines the byte
sizes the performance models charge to disks and networks.

One record on the wire is a ``>II`` header (encoded key and value
lengths) followed by the two fields, each one tag byte plus payload.
The size/encode/decode kernels handle exact ``str``, ``None`` and ``int``
inline; the general ``isinstance`` chains are the only fallback.

A non-empty dict whose type is exactly ``dict``, whose keys are all exact
64-bit ``int`` and whose values are all exact ``float`` — K-means'
``dict(vector.weights)`` — is the ``W`` field: one width byte, the keys
at the narrowest of 1/2/4/8 signed bytes, then the values as ``>d``, in
insertion order.  Every other dict is the ``M`` field of length-prefixed
items.  ``record_size`` charges both the same.

A *chunk* (:func:`encode_columns`, or :func:`encode_stream` over pairs) is
those records back to back — unless every key is exactly ``str`` and the
values are all ``None`` or all exact 64-bit ``int``.  Such a chunk ships
as columns: a 7-byte header, the key lengths, the joined UTF-8 keys and
the values, each column at the narrowest fixed width that holds it.
Only the data selects the layout, only this module knows it; every
decoder reads it off the first byte.  :func:`decode_stream` is lazy in
either layout, for chunks the reader must not make resident (a spilled
chunk in its mapped segment); :func:`decode_columns` turns a resident
chunk into a key list and a value list, in one pass for a columnar one,
and :func:`decode_chunk` builds its records from those lists.  The send
buffers and the A-side merge hold records as such column pairs and put
them in key order with :func:`sort_columns`: no tuple per record exists
until the A task takes one.
"""

from __future__ import annotations

import struct
from itertools import accumulate, chain, pairwise, repeat, starmap
from operator import itemgetter
from typing import Any, Iterable, Iterator, NamedTuple


class KeyValue(NamedTuple):
    """An immutable key-value record."""

    key: Any
    value: Any

    def serialized_size(self) -> int:
        """Best-effort size in bytes of the encoded record."""
        return record_size(self.key, self.value)


_INT = frozenset({int})
_FLOAT = frozenset({float})


def _field_size(obj: Any) -> int:
    # Exact-type front for the leaves the shuffle carries; everything
    # else (bool, bytes, views, containers, subclasses) takes the chain.
    kind = type(obj)
    if kind is str:
        return len(obj) if obj.isascii() else len(obj.encode("utf-8"))
    if obj is None:
        return 0
    if kind is int or kind is float:
        return 8
    if kind is dict and set(map(type, obj)) <= _INT and \
            set(map(type, obj.values())) <= _FLOAT:
        # A weight dict: the walk below charges it 8 + 8 an entry, plus 4,
        # but type sets check its entries without a frame per entry.
        return 16 * len(obj) + 4
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, memoryview):
        # A view (``Comm.recv(buffer=True)``, a slice of a larger buffer)
        # is sized by its bytes: repr(), the opaque-object fallback, would
        # under-count every byte budget it passes through.
        return obj.nbytes
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, int):
        return 8
    if isinstance(obj, float):
        return 8
    if isinstance(obj, (list, tuple)):
        return sum(_field_size(item) for item in obj) + 4
    if isinstance(obj, dict):
        return sum(_field_size(k) + _field_size(v) for k, v in obj.items()) + 4
    # Fall back to the repr; good enough for cost accounting of rare types.
    return len(repr(obj))


def record_size(key: Any, value: Any) -> int:
    """Size in bytes of one encoded record (4-byte length prefix per field)."""
    return 8 + _field_size(key) + _field_size(value)


_LEN = struct.Struct(">II")


_ITEM_LEN = struct.Struct(">I")


def _encode_items(items: Iterable[Any]) -> bytes:
    out = bytearray()
    for item in items:
        encoded = _encode_field(item)
        out += _ITEM_LEN.pack(len(encoded))
        out += encoded
    return bytes(out)


def _decode_items(payload: bytes | memoryview) -> list[Any]:
    items: list[Any] = []
    offset = 0
    while offset < len(payload):
        (length,) = _ITEM_LEN.unpack_from(payload, offset)
        offset += _ITEM_LEN.size
        items.append(_decode_field(payload[offset:offset + length]))
        offset += length
    return items


def _encode_field(obj: Any) -> bytes:
    kind = type(obj)
    if kind is str:
        return b"S" + obj.encode("utf-8")
    if obj is None:
        return b"N"
    if kind is int:
        return b"I%d" % obj
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
    if isinstance(obj, tuple):
        return b"U" + _encode_items(obj)
    if isinstance(obj, list):
        return b"L" + _encode_items(obj)
    if isinstance(obj, dict):
        return _encode_weights(obj) or b"M" + _encode_items(
            item for pair in obj.items() for item in pair
        )
    raise TypeError(f"cannot encode field of type {type(obj).__name__}")


def _encode_weights(obj: dict[Any, Any]) -> bytes | None:
    """A non-empty, exact ``dict`` of exact ``int`` keys within 64 bits to
    exact ``float`` values as a ``W`` field — one width byte, the keys as
    one column at that width, the values as one ``>d`` column — else
    ``None``."""
    values = list(obj.values())
    if (type(obj) is not dict or set(map(type, obj)) != {int}
            or set(map(type, values)) != {float}):
        return None
    keys = _pack_column(list(obj), _VALUE_COLUMNS)
    if keys is None:  # a key past 64 bits
        return None
    return b"".join((b"W", bytes((keys[0],)), keys[1],
                     struct.pack(f">{len(values)}d", *values)))


def _decode_weights(payload: bytes | memoryview) -> dict[int, float]:
    """The dict a ``W`` payload holds; a payload whose width code or length
    does not add up raises ``ValueError``."""
    if not len(payload) or payload[0] not in _VALUE_COLUMNS:
        raise ValueError(f"unknown key width in weight field {bytes(payload[:1])!r}")
    width = payload[0]
    count, spare = divmod(len(payload) - 1, width + 8)
    if spare or not count:
        raise ValueError(f"torn weight field: {len(payload) - 1} bytes "
                         f"are not whole {width}+8-byte entries")
    keys = struct.unpack_from(f">{count}{_VALUE_COLUMNS[width]}", payload, 1)
    values = struct.unpack_from(f">{count}d", payload, 1 + count * width)
    return dict(zip(keys, values))


# Field tag markers as ints: indexing bytes *or* a memoryview yields an
# int, so one dispatch serves both the copying and the zero-copy path.
_T_BYTES, _T_STR, _T_TRUE, _T_FALSE = ord("B"), ord("S"), ord("T"), ord("F")
_T_INT, _T_FLOAT, _T_NONE = ord("I"), ord("D"), ord("N")
_T_TUPLE, _T_LIST, _T_DICT, _T_WEIGHTS = ord("U"), ord("L"), ord("M"), ord("W")


def _decode_field(data: bytes | memoryview) -> Any:
    """Decode one encoded field from ``bytes`` or a ``memoryview``.

    Memoryview input decodes in place: container fields recurse over
    zero-copy slices, and only leaf values materialise new objects.
    """
    if not len(data):
        raise ValueError("unknown field tag b''")
    tag, payload = data[0], data[1:]
    if tag == _T_BYTES:
        return payload if isinstance(payload, bytes) else bytes(payload)
    if tag == _T_STR:
        return str(payload, "utf-8")
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT:
        return int(payload if isinstance(payload, bytes) else bytes(payload))
    if tag == _T_FLOAT:
        return struct.unpack(">d", payload)[0]
    if tag == _T_NONE:
        return None
    if tag == _T_TUPLE:
        return tuple(_decode_items(payload))
    if tag == _T_LIST:
        return _decode_items(payload)
    if tag == _T_DICT:
        flat = _decode_items(payload)
        return dict(zip(flat[0::2], flat[1::2]))
    if tag == _T_WEIGHTS:
        return _decode_weights(payload)
    raise ValueError(f"unknown field tag {bytes(data[:1])!r}")


def encode_record(key: Any, value: Any) -> bytes:
    """Encode one record to bytes (length-prefixed key and value fields)."""
    key_bytes = _encode_field(key)
    value_bytes = _encode_field(value)
    return _LEN.pack(len(key_bytes), len(value_bytes)) + key_bytes + value_bytes


def _truncated(offset: int, promised: int, remaining: int) -> ValueError:
    return ValueError(f"truncated record at offset {offset}: "
                      f"{promised} bytes promised, {remaining} remain")


def decode_record(data: bytes | memoryview,
                  offset: int = 0) -> tuple[KeyValue, int]:
    """Decode one record at ``offset``; returns ``(record, next_offset)``.

    ``data`` may be ``bytes`` or a ``memoryview``; with a view the field
    payloads are sliced without copying (the transport's zero-copy read
    path decodes records straight out of a shared batch buffer).  A
    record that runs past the end of ``data`` raises ``ValueError``
    instead of decoding a short slice.
    """
    start = offset + _LEN.size
    if start > len(data):
        raise _truncated(offset, _LEN.size, len(data) - offset)
    key_len, value_len = _LEN.unpack_from(data, offset)
    middle = start + key_len
    stop = middle + value_len
    if stop > len(data):
        raise _truncated(offset, stop - offset, len(data) - offset)
    return KeyValue(_decode_field(data[start:middle]),
                    _decode_field(data[middle:stop])), stop


#: First byte of a columnar chunk.  A record stream starts with the top
#: byte of its first key's ``>I`` length, which :func:`encode_stream` keeps
#: below this (it refuses a first key of 3 GiB or more).
_MARKER = 0xC0
#: Marker, key-length column code, value column code, record count.
_HEAD = struct.Struct(">BBBI")
#: Column code == bytes per number, narrowest first; value code 0 is no
#: column at all: every value is ``None``.
_LENGTH_COLUMNS = {1: "B", 2: "H", 4: "I"}
_VALUE_COLUMNS = {1: "b", 2: "h", 4: "i", 8: "q"}


def _pack_column(numbers: list[int],
                 columns: dict[int, str]) -> tuple[int, bytes] | None:
    """``(width, column)`` at the narrowest width holding every number —
    found by ``struct.pack`` refusing, not by a Python scan — else ``None``."""
    for width, letter in columns.items():
        try:
            return width, struct.pack(f">{len(numbers)}{letter}", *numbers)
        except struct.error:
            continue
    return None


def encode_stream(records: Iterable[tuple[Any, Any]]) -> bytes:
    """Encode an iterable of ``(key, value)`` pairs into one chunk: the
    pairs split into a key and a value column for :func:`encode_columns`.
    """
    if not isinstance(records, list):
        records = list(records)
    if set(map(len, records)) - {2}:
        return _encode_records(records)  # its unpacking names the bad record
    return encode_columns(list(map(itemgetter(0), records)),
                          list(map(itemgetter(1), records)))


def encode_columns(keys: list[Any], values: list[Any]) -> bytes:
    """Encode the records ``(keys[i], values[i])`` into one chunk.

    Columns ship as columns when every key is an exact ``str`` and every
    value ``None``, or every value an exact 64-bit ``int``: a ``str``
    subclass, ``bool`` or ``float`` that ``==`` a plain key or value may
    encode differently, so it keeps the record stream.  The choice and
    the packing are C-level passes over the whole chunk, no per-record
    bytecode.  Any other chunk is the record stream.
    """
    if not keys:
        return b""
    kinds = set(map(type, values))
    if set(map(type, keys)) == {str} and kinds in ({int}, {type(None)}):
        text = "".join(keys)
        # An ASCII body has one byte per character; otherwise encode per key.
        lengths = _pack_column(
            list(map(len, keys if text.isascii() else map(str.encode, keys))),
            _LENGTH_COLUMNS)
        column = _pack_column(values, _VALUE_COLUMNS) if kinds == {int} else (0, b"")
        # No column holds a 4 GiB key or an int past 64 bits: the record stream does.
        if lengths is not None and column is not None:
            return b"".join((_HEAD.pack(_MARKER, lengths[0], column[0], len(keys)),
                             lengths[1], text.encode("utf-8"), column[1]))
    return _encode_records(zip(keys, values))


def _encode_records(records: Iterable[tuple[Any, Any]]) -> bytes:
    """The record stream, the O side's per-record kernel: exact ``str`` /
    ``None`` / ``int`` fields are encoded inline, all others through
    :func:`_encode_field`."""
    parts: list[bytes] = []
    pack, general = _LEN.pack, _encode_field
    for key, value in records:
        if type(key) is str:
            key_bytes = b"S" + key.encode("utf-8")
        else:
            key_bytes = general(key)
        kind = type(value)
        if value is None:
            value_bytes = b"N"
        elif kind is int:
            value_bytes = b"I%d" % value
        elif kind is str:
            value_bytes = b"S" + value.encode("utf-8")
        else:
            value_bytes = general(value)
        parts += (pack(len(key_bytes), len(value_bytes)), key_bytes, value_bytes)
    if parts[0][0] >= _MARKER:  # no transport frame cap on thread/inline
        raise ValueError("the first key of a chunk must encode below 3 GiB")
    return b"".join(parts)


def sort_columns(keys: list[Any], values: list[Any]) -> tuple[list[Any], list[Any]]:
    """``keys`` and ``values`` in stable key order: the permutation that
    ``sorted(zip(keys, values), key=itemgetter(0))`` applies, with no
    pair built.

    All-``None`` values need no permutation, so ``keys`` is sorted in
    place and both lists come back; otherwise one index sort reorders
    two new lists.  Either way ``values[i]`` stays with ``keys[i]``.
    """
    if values.count(None) == len(values):
        keys.sort()
        return keys, values
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return list(map(keys.__getitem__, order)), list(map(values.__getitem__, order))


def decode_stream(data: bytes | memoryview) -> Iterator[KeyValue]:
    """Decode all records from :func:`encode_stream` output (``bytes`` or
    ``memoryview`` — views decode in place), whichever layout it chose.

    Either way the result is lazy: a chunk mapped from a spill segment is
    read as the caller advances and never becomes resident as records.
    """
    if len(data) and data[0] == _MARKER:
        return _decode_columns(memoryview(data))
    return _decode_records(data)


def decode_columns(data: bytes | memoryview) -> tuple[list[Any], list[Any]]:
    """The keys and the values of one chunk that is already in memory, as
    two lists in :func:`decode_stream`'s record order.

    A columnar chunk decodes at once, after the same checks: its whole key
    body is one UTF-8 decode, and an ASCII body (as many characters as
    bytes) is sliced into keys as text; any other body falls back to one
    decode per key.  A record stream is decoded whole, then split.  Only
    for resident chunks: the lists hold every record of the chunk.
    """
    if not (len(data) and data[0] == _MARKER):
        records = list(_decode_records(data))
        return list(map(itemgetter(0), records)), list(map(itemgetter(1), records))
    view = memoryview(data)
    lengths, values, body, stop = _columns(view, resident=True)
    text = str(view[body:stop], "utf-8")
    spans = starmap(slice, pairwise(accumulate(lengths, initial=0)))
    if len(text) == stop - body:
        keys = list(map(text.__getitem__, spans))
    else:
        keys = list(map(str, map(view[body:stop].__getitem__, spans), repeat("utf-8")))
    return keys, list(values)


def decode_chunk(data: bytes | memoryview) -> list[KeyValue] | Iterator[KeyValue]:
    """The records of one chunk that is already in memory, as
    :func:`decode_stream` yields them.

    A columnar chunk is :func:`decode_columns`' two lists, paired.  A
    record stream is :func:`decode_stream`'s lazy generator, so a torn one
    still yields its whole records first.
    """
    if not (len(data) and data[0] == _MARKER):
        return _decode_records(data)
    return list(map(tuple.__new__, repeat(KeyValue), zip(*decode_columns(data))))


def _torn(promised: int, present: int) -> ValueError:
    return ValueError(f"torn columnar chunk: {promised} bytes promised, {present} present")


def _columns(view: memoryview, resident: bool) -> tuple[
        Iterable[int], Iterable[int | None], int, int]:
    """``(key lengths, values, body, stop)`` of a columnar chunk whose keys
    are ``view[body:stop]``.

    Every check a decoder makes is here, before the first record: known
    codes, and header + columns + the sum of the key lengths ==
    ``len(view)`` — a torn, padded or inconsistent chunk raises
    ``ValueError`` and yields nothing.  A ``resident`` chunk's numbers come
    back unpacked, as tuples; otherwise as iterators that read ``view`` as
    they advance, so checking a spilled chunk allocates no column.  No
    value column is ``count`` ``None`` values either way.
    """
    total = len(view)
    if total < _HEAD.size:
        raise _torn(_HEAD.size, total)
    _marker, length_width, value_width, count = _HEAD.unpack_from(view)
    if length_width not in _LENGTH_COLUMNS or (
            value_width and value_width not in _VALUE_COLUMNS):
        raise ValueError(f"unknown column code in chunk header "
                         f"{bytes(view[:_HEAD.size])!r}")
    body = _HEAD.size + count * length_width
    stop = total - count * value_width
    if body > stop:
        raise _torn(body + total - stop, total)
    letter = _LENGTH_COLUMNS[length_width]
    column = view[_HEAD.size:body]
    lengths: Iterable[int]
    if resident:
        lengths = struct.unpack(f">{count}{letter}", column)
        keys_size = sum(lengths)
    else:
        keys_size = sum(chain.from_iterable(struct.iter_unpack(">" + letter, column)))
        lengths = chain.from_iterable(struct.iter_unpack(">" + letter, column))
    if body + keys_size != stop:
        raise _torn(body + keys_size + total - stop, total)
    values: Iterable[int | None] = repeat(None, count)
    if value_width:
        letter = _VALUE_COLUMNS[value_width]
        values = (struct.unpack_from(f">{count}{letter}", view, stop) if resident
                  else chain.from_iterable(struct.iter_unpack(">" + letter, view[stop:])))
    return lengths, values, body, stop


def _decode_columns(view: memoryview) -> Iterator[KeyValue]:
    """The records of a columnar chunk, as one chain of C iterators.

    The chain is O(1) Python objects however many records there are; each
    key is sliced out of ``view`` as the caller advances.
    """
    lengths, values, body, stop = _columns(view, resident=False)
    keys = map(str, map(view.__getitem__,
                        starmap(slice, pairwise(accumulate(lengths, initial=body)))),
               repeat("utf-8"))
    return map(tuple.__new__, repeat(KeyValue), zip(keys, values))


def _decode_records(data: bytes | memoryview) -> Iterator[KeyValue]:
    """The A side's per-record kernel: ``str`` / ``None`` / ``int`` fields
    are built straight off the slice, every other tag goes through
    :func:`_decode_field` — one generator resume per record, no helper
    frames.  A stream cut off a record boundary raises ``ValueError``.
    """
    unpack, header, general = _LEN.unpack_from, _LEN.size, _decode_field
    new, end, offset = tuple.__new__, len(data), 0
    while offset < end:
        start = offset + header
        if start > end:
            raise _truncated(offset, header, end - offset)
        key_len, value_len = unpack(data, offset)
        middle = start + key_len
        stop = middle + value_len
        if stop > end:
            raise _truncated(offset, stop - offset, end - offset)
        if key_len and data[start] == _T_STR:
            key = str(data[start + 1:middle], "utf-8")
        else:
            key = general(data[start:middle])
        tag = data[middle] if value_len else 0
        if tag == _T_NONE:
            value = None
        elif tag == _T_INT:
            value = int(bytes(data[middle + 1:stop]))
        elif tag == _T_STR:
            value = str(data[middle + 1:stop], "utf-8")
        else:
            value = general(data[middle:stop])
        yield new(KeyValue, (key, value))
        offset = stop
