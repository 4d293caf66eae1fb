"""O-side partitioned send buffers — the pipelining half of DataMPI.

Each O task keeps one buffer per destination A task, charged per record
by ``record_size`` (nothing is encoded until the flush).  When a buffer
exceeds the send threshold it is *flushed*: sorted by key (DataMPI
delivers key-ordered data to A tasks), optionally run through a combiner,
encoded, and sent immediately — while the O task keeps computing.  This
is the "data movement is pipelining with the computation overlapped in O
tasks" design of Section 2.3, and it is why DataMPI's shuffle is largely
complete by the time the O phase ends (Section 4.4's network analysis).

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

#: Default flush threshold per destination buffer (bytes of encoded data).
DEFAULT_SEND_BUFFER_BYTES = 256 * 1024

Combiner = Callable[[Any, list[Any]], Any]


class PartitionedSendBuffer:
    """Per-destination buffering with threshold-triggered pipelined sends."""

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
        payload = encode_stream(records)
        self._send(destination, payload)
        self.records_sent += len(records)
        self.bytes_sent += len(payload)
        self.chunks_sent += 1
        self._records[destination] = []
        self._bytes[destination] = 0

    def _combine(self, records: list[tuple[Any, Any]]) -> list[tuple[Any, Any]]:
        """Apply the combiner to runs of equal keys (records must be sorted,
        or at least grouped; without sorting the combiner still reduces any
        adjacent duplicates, mirroring a best-effort combiner)."""
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
