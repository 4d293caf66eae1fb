"""O-side partitioned send buffers — the pipelining half of DataMPI.

Each O task keeps one buffer per destination A task, charged in bytes
against a send threshold.  When a buffer reaches it, it is *flushed*:
sorted by key (DataMPI delivers key-ordered data to A tasks), optionally
run through a combiner, encoded, and sent immediately — while the O task
keeps computing.  This is the "data movement is pipelining with the
computation overlapped in O tasks" design of Section 2.3, and it is why
DataMPI's shuffle is largely complete by the time the O phase ends
(Section 4.4's network analysis).

The *tuple path* (``sort=False``, or no combiner) holds each
destination's records as two columns, a key list and a value list — no
tuple per record — and charges each record its ``record_size``, the
record-stream size.  A flush puts both lists in stable key order with
``sort_columns`` (the keys alone when every value is ``None``, else one
index sort) and hands them to ``encode_columns``, which may still pack
the chunk as columns.

With ``sort`` and a combiner the buffer *groups on arrival*: a
destination holds ``{key: [values]}``, and is charged what it holds and
will ship — a new key the record it will ship, a repeat the 8-byte list
slot it takes.  A destination that reaches the threshold is first
*folded*: every multi-value list becomes ``[combiner(key, values)]`` and
the charge drops to the record-stream bytes the table would ship.  It
ships only if that is still at least half the threshold, so a window
lasts until its *distinct* keys fill the buffer — Section 4.4's
WordCount, whose small dictionary makes "few intermediate data", ships
one chunk per destination at close.  Memory stays bounded by the
threshold (a charge counts at least every key's bytes and a slot per
held value), and folding costs O(1) per byte charged, amortised: a fold
that does not ship passes once over a table that charges under half the
threshold, and frees more than half a threshold of charge.  A combiner
may therefore run more than once on a key, including on its own output.
The first unhashable key (a list) moves the buffer to the tuple path for
good.

Encoded chunks leave here as ``bytes`` and stay binary all the way to
the A task: the transports move them verbatim (``FMT_RAW`` — never
through pickle), one frame per chunk.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterable

from repro.common.errors import DataMPIError
from repro.common.kv import encode_columns, encode_stream, record_size, sort_columns

#: Default flush threshold per destination buffer: bytes held, and under a
#: combiner bytes to ship — a WordCount window of a few thousand distinct
#: words never reaches it and leaves at close.
DEFAULT_SEND_BUFFER_BYTES = 256 * 1024

#: What a grouped repeat is charged: the list slot holding its value.
_SLOT = 8

Combiner = Callable[[Any, list[Any]], Any]


class PartitionedSendBuffer:
    """Per-destination buffering with threshold-triggered pipelined sends.

    ``add``/``flush`` are the tuple path; ``sort`` + combiner binds the
    grouping pair over them, once, at construction — no per-record test.
    """

    def __init__(
        self,
        num_destinations: int,
        send: Callable[[int, bytes], None],
        *,
        sort: bool = True,
        combiner: Combiner | None = None,
        threshold_bytes: int = DEFAULT_SEND_BUFFER_BYTES,
    ):
        if num_destinations < 1:
            raise DataMPIError(f"need >= 1 destination, got {num_destinations}")
        if threshold_bytes < 1:
            raise DataMPIError(f"threshold must be >= 1 byte, got {threshold_bytes}")
        self._send = send
        self._sort = sort
        self._combiner = combiner
        self._threshold = threshold_bytes
        #: Per destination, the held records' keys and values, in arrival order.
        self._keys: list[list[Any]] = [[] for _ in range(num_destinations)]
        self._values: list[list[Any]] = [[] for _ in range(num_destinations)]
        self._bytes: list[int] = [0] * num_destinations
        self.records_buffered = 0
        self.records_sent = 0
        self.bytes_sent = 0
        self.chunks_sent = 0
        self.records_combined_away = 0
        if sort and combiner is not None:
            #: Per destination, ``{first-seen key: [values in arrival order]}``.
            self._tables: list[dict[Any, list[Any]]] = [{} for _ in range(num_destinations)]
            #: Per destination, ``Σ record_size(key, values[0])`` over its
            #: table: the record-stream bytes it would ship once folded.
            self._shipping: list[int] = [0] * num_destinations
            self.add = self._add_grouped
            self.flush = self._flush_grouped

    def add(self, destination: int, key: Any, value: Any) -> None:
        """Buffer one record; flush the destination if over threshold."""
        self._keys[destination].append(key)
        self._values[destination].append(value)
        buffered = self._bytes[destination] + record_size(key, value)
        self._bytes[destination] = buffered
        self.records_buffered += 1
        if buffered >= self._threshold:
            self.flush(destination)

    def flush(self, destination: int) -> None:
        """Sort/combine/encode and send one destination's buffer."""
        keys = self._keys[destination]
        if not keys:
            return
        values = self._values[destination]
        if self._sort:
            keys, values = sort_columns(keys, values)
        if self._combiner is None:
            self._ship(destination, encode_columns(keys, values), len(keys), 0)
        else:
            records = self._combine(zip(keys, values))
            self._ship(destination, encode_stream(records), len(records),
                       len(keys) - len(records))
        self._keys[destination] = []
        self._values[destination] = []

    def _ship(self, destination: int, payload: bytes, shipped: int,
              combined_away: int) -> None:
        """The tail of every flush: ``payload`` encodes ``shipped`` records.
        Nothing is counted or released unless the send returns: a failed
        flush can be retried."""
        self._send(destination, payload)
        self.records_sent += shipped
        self.records_combined_away += combined_away
        self.bytes_sent += len(payload)
        self.chunks_sent += 1
        self._bytes[destination] = 0

    def _add_grouped(self, destination: int, key: Any, value: Any) -> None:
        """``add``, filing the value under its key: a new key is charged the
        record it will ship, a repeat its list slot."""
        table = self._tables[destination]
        try:
            values = table.get(key)
        except TypeError:  # unhashable key: this buffer cannot group
            self._ungroup()
            self.add(destination, key, value)
            return
        if values is None:
            table[key] = [value]
            charge = record_size(key, value)
            self._shipping[destination] += charge
        else:
            values.append(value)
            charge = _SLOT
        buffered = self._bytes[destination] + charge
        self._bytes[destination] = buffered
        self.records_buffered += 1
        if buffered >= self._threshold:
            self._fold(destination)

    def _fold(self, destination: int) -> None:
        """Combine each repeated key's values in place, charge the table
        what it would ship, and ship it if that is still at least half the
        threshold.  A fold is a combine that happened: it counts at once,
        key by key, even if a later key's combiner raises."""
        table = self._tables[destination]
        combiner = self._combiner
        assert combiner is not None
        shipping = self._shipping[destination]
        folded = 0
        try:
            for key, values in table.items():
                if len(values) > 1:
                    value = combiner(key, values)
                    shipping += record_size(key, value) - record_size(key, values[0])
                    folded += len(values) - 1
                    table[key] = [value]
        finally:
            self.records_combined_away += folded
            self._bytes[destination] += (shipping - self._shipping[destination]
                                         - _SLOT * folded)
            self._shipping[destination] = shipping
        if 2 * shipping >= self._threshold:
            self._flush_grouped(destination)

    def _flush_grouped(self, destination: int) -> None:
        """``flush`` of a table: its keys sorted, each with ``values[0]`` or
        ``combiner(key, values)`` (first-seen key object, values in arrival
        order)."""
        table = self._tables[destination]
        if not table:
            return
        combiner = self._combiner
        assert combiner is not None
        records = [
            (key, values[0] if len(values) == 1 else combiner(key, values))
            for key, values in sorted(table.items(), key=itemgetter(0))
        ]
        self._ship(destination, encode_stream(records), len(records),
                   sum(map(len, table.values())) - len(records))
        self._tables[destination] = {}
        self._shipping[destination] = 0

    def _ungroup(self) -> None:
        """Hand every table to the tuple path, for good, each held record
        charged its ``record_size`` again.  Each key's arrival order
        survives, which is all the flush's stable sort keeps."""
        self._keys = [
            [key for key, values in table.items() for _ in values]
            for table in self._tables
        ]
        self._values = [
            [value for values in table.values() for value in values]
            for table in self._tables
        ]
        self._bytes = [sum(map(record_size, keys, values))
                       for keys, values in zip(self._keys, self._values)]
        del self._tables, self._shipping, self.add, self.flush  # the class's own pair
        for destination, buffered in enumerate(self._bytes):
            if buffered >= self._threshold:
                self.flush(destination)

    def _combine(self, records: Iterable[tuple[Any, Any]]) -> list[tuple[Any, Any]]:
        """Apply the combiner to runs of equal keys: ``sort=False`` or an
        unhashable key (records must be sorted, or at least grouped; without
        sorting the combiner still reduces any adjacent duplicates)."""
        combined: list[tuple[Any, Any]] = []
        run_key: Any = None
        run_values: list[Any] = []
        for key, value in records:
            if run_values and key == run_key:
                run_values.append(value)
            else:
                if run_values:
                    combined.append((run_key, self._apply(run_key, run_values)))
                run_key, run_values = key, [value]
        if run_values:
            combined.append((run_key, self._apply(run_key, run_values)))
        return combined

    def _apply(self, key: Any, values: list[Any]) -> Any:
        if len(values) == 1:
            return values[0]
        assert self._combiner is not None
        return self._combiner(key, values)

    def flush_all(self) -> None:
        """Flush every destination (called when the O task finishes)."""
        for destination in range(len(self._keys)):
            self.flush(destination)

    @property
    def buffered_bytes(self) -> int:
        return sum(self._bytes)
