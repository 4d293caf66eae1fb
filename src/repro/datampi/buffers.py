"""O-side partitioned send buffers — the pipelining half of DataMPI.

Each O task keeps one buffer per destination A task, charged per record
by ``record_size`` — not by the bytes it will ship: nothing is encoded
until the flush, and ``encode_stream`` may pack the chunk as columns.  When
a buffer exceeds the send threshold it is *flushed*: sorted by key (DataMPI
delivers key-ordered data to A tasks), optionally run through a combiner,
encoded, and sent immediately — while the O task keeps computing.  This
is the "data movement is pipelining with the computation overlapped in O
tasks" design of Section 2.3, and it is why DataMPI's shuffle is largely
complete by the time the O phase ends (Section 4.4's network analysis).

With ``sort`` and a combiner the buffer *groups on arrival*: a
destination holds ``{key: [values]}``, not ``(key, value)`` tuples, so a
repeat of a buffered key costs a dict lookup and an append — no tuple, no
slot in the flush sort, no turn of the combine scan.  Bytes are still
charged per record, so flush boundaries and chunks are byte-identical to
sort-then-combine.  The first unhashable key (a list) moves the buffer to
the tuple path, which serves ``sort=False`` and combiner-less jobs as ever.

Encoded chunks leave here as ``bytes`` and stay binary all the way to
the A task: the transports move them verbatim (``FMT_RAW`` — never
through pickle), and the shm backend coalesces chunks below its batch
threshold into a single ring slot, so a small ``threshold_bytes`` here
does not translate into per-chunk descriptor traffic.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable

from repro.common.errors import DataMPIError
from repro.common.kv import encode_stream, record_size

#: Default flush threshold per destination buffer.  It counts *pre-combine*
#: ``record_size`` bytes, not shipped bytes: every record added counts,
#: repeats included, at its record-stream size, so a "256 KiB" WordCount
#: buffer ships ≈ 18 KB (columnar) chunks.
DEFAULT_SEND_BUFFER_BYTES = 256 * 1024

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
        self._records: list[list[tuple[Any, Any]]] = [[] for _ in range(num_destinations)]
        self._bytes: list[int] = [0] * num_destinations
        self.records_buffered = 0
        self.records_sent = 0
        self.bytes_sent = 0
        self.chunks_sent = 0
        self.records_combined_away = 0
        if sort and combiner is not None:
            #: Per destination, ``{first-seen key: [values in arrival order]}``.
            self._tables: list[dict[Any, list[Any]]] = [{} for _ in range(num_destinations)]
            self.add = self._add_grouped
            self.flush = self._flush_grouped

    def add(self, destination: int, key: Any, value: Any) -> None:
        """Buffer one record; flush the destination if over threshold."""
        self._records[destination].append((key, value))
        buffered = self._bytes[destination] + record_size(key, value)
        self._bytes[destination] = buffered
        self.records_buffered += 1
        if buffered >= self._threshold:
            self.flush(destination)

    def flush(self, destination: int) -> None:
        """Sort/combine/encode and send one destination's buffer."""
        records = self._records[destination]
        if not records:
            return
        if self._sort:
            records.sort(key=itemgetter(0))
        if self._combiner is not None:
            records = self._combine(records)
        self._ship(destination, records)
        self._records[destination] = []

    def _ship(self, destination: int, records: list[tuple[Any, Any]]) -> None:
        """The tail of every flush.  Nothing is counted or released unless
        the send returns: a failed flush can be retried."""
        payload = encode_stream(records)
        self._send(destination, payload)
        self.records_sent += len(records)
        self.bytes_sent += len(payload)
        self.chunks_sent += 1
        self._bytes[destination] = 0

    def _add_grouped(self, destination: int, key: Any, value: Any) -> None:
        """``add``, filing the value under its key; charged ``record_size``
        like any record, so flushes fall where the tuple path puts them."""
        table = self._tables[destination]
        try:
            values = table.get(key)
        except TypeError:  # unhashable key: this buffer cannot group
            self._ungroup()
            self.add(destination, key, value)
            return
        if values is None:
            table[key] = [value]
        else:
            values.append(value)
        buffered = self._bytes[destination] + record_size(key, value)
        self._bytes[destination] = buffered
        self.records_buffered += 1
        if buffered >= self._threshold:
            self._flush_grouped(destination)

    def _flush_grouped(self, destination: int) -> None:
        """``flush`` of a table: what a stable sort and ``_combine`` make of
        the same records (first-seen key object, values in arrival order)."""
        table = self._tables[destination]
        if not table:
            return
        combiner = self._combiner
        assert combiner is not None
        records = [
            (key, values[0] if len(values) == 1 else combiner(key, values))
            for key, values in sorted(table.items(), key=itemgetter(0))
        ]
        self.records_combined_away += sum(map(len, table.values())) - len(records)
        self._ship(destination, records)
        self._tables[destination] = {}

    def _ungroup(self) -> None:
        """Hand every table to the tuple path, for good.  Each key's arrival
        order survives, which is all the flush's stable sort keeps."""
        self._records = [
            [(key, value) for key, values in table.items() for value in values]
            for table in self._tables
        ]
        del self._tables, self.add, self.flush  # the class's own pair again

    def _combine(self, records: list[tuple[Any, Any]]) -> list[tuple[Any, Any]]:
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
        self.records_combined_away += len(records) - len(combined)
        return combined

    def _apply(self, key: Any, values: list[Any]) -> Any:
        if len(values) == 1:
            return values[0]
        assert self._combiner is not None
        return self._combiner(key, values)

    def flush_all(self) -> None:
        """Flush every destination (called when the O task finishes)."""
        for destination in range(len(self._records)):
            self.flush(destination)

    @property
    def buffered_bytes(self) -> int:
        return sum(self._bytes)
