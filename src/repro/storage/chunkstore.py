"""A-side receive store: chunk accumulation over a SpillStore, sorted merge.

DataMPI is *data-centric* (Section 2.3): intermediate data is partitioned
and stored "in memory or disk" at the receiving worker, and A tasks then
read it locally.  The :class:`ChunkStore` accumulates the sorted chunks
sent by O tasks; payloads live in a :class:`~repro.storage.spill.SpillStore`
whose budget is the spill threshold, so when the buffered total exceeds
it the least-recently-received chunks move to mmap-backed segment files
and stream back lazily during the merge.  The merged iterator yields
records in global key order when sorting is enabled.  When nothing
spilled, every chunk decodes to a key list and a value list
(``decode_columns``), the lists are concatenated and put in stable key
order once (``sort_columns``), and each ``KeyValue`` is built only as
the A task takes it.  As soon as any chunk spilled the merge is a lazy
k-way merge (``heapq.merge``): a chunk still in memory decodes in one
pass (``decode_chunk``), a spilled chunk streams out of its segment
(``decode_stream``) and never becomes resident as records.

Chunks carry an *origin* — ``(source O rank, per-source sequence)`` — and
both paths visit chunks in origin order.  A stable sort and
``heapq.merge`` alike break key ties by position, so without a canonical
order the output for equal keys (and any floating-point reduction over
it) would depend on chunk *arrival* order, which true multiprocess
transports cannot guarantee.  With origins, every transport backend
produces byte-identical output — whether a given chunk spilled or not.
"""

from __future__ import annotations

import heapq
import itertools
from operator import itemgetter
from typing import Any, Iterator

from repro.common.kv import (
    KeyValue,
    decode_chunk,
    decode_columns,
    decode_stream,
    sort_columns,
)
from repro.storage.spill import DEFAULT_SPILL_BYTES, SpillStore

#: Chunk origin: (source O rank, per-source sequence number).
Origin = tuple[int, int]


class ChunkStore:
    """Holds received chunks up to a memory budget, spilling LRU to disk."""

    def __init__(self, spill_threshold: int = DEFAULT_SPILL_BYTES,
                 spill_dir: str | None = None) -> None:
        self._spill = SpillStore(budget_bytes=spill_threshold,
                                 spill_dir=spill_dir)
        self._auto_sequence = 0

    def add(self, chunk: bytes | bytearray | memoryview,
            origin: Origin | None = None) -> None:
        """Store one encoded chunk (already key-sorted by the sender).

        ``chunk`` is ``bytes`` or a read-only ``memoryview`` — the thread
        and inline backends hand a sender's view over by reference, and
        the store keeps it as-is (spilling and decoding both work
        straight from a view, so no copy is made on the way in).

        ``origin`` identifies where the chunk came from; when omitted an
        insertion-order origin is assigned, so callers that never pass one
        keep arrival order.
        """
        if origin is None:
            origin = (0, self._auto_sequence)
            self._auto_sequence += 1
        self._spill.put(origin, chunk)

    def merged(self, sort: bool = True) -> Iterator[KeyValue]:
        """Iterate all records; in global key order when ``sort`` is true.

        Key ties break by chunk origin, so the stream is identical no
        matter in which order chunks arrived (or which of them spilled).
        A store that never spilled sorts the origin-ordered concatenation
        of its chunks' key and value columns once: Timsort finds the
        presorted runs, and a stable sort breaks ties exactly as
        ``heapq.merge`` does by iterator position.  Without ``sort`` it
        hands out that concatenation as it is, each chunk opened when the
        previous one is exhausted.  With any chunk spilled the merge stays
        lazy — ``decode_stream`` reads a spilled chunk out of its mapped
        segment as the merge advances, in either chunk layout, so a
        dataset that spilled because it outgrew memory is never
        materialized as records.  A chunk that is still resident decodes
        in one pass: to columns through ``decode_columns`` for the sort of
        a never-spilled store, to records through ``decode_chunk`` in the
        other paths.
        """
        spill = self._spill
        origins = sorted(spill.keys())
        spilled = [spill.is_spilled(origin) for origin in origins]
        if sort and not any(spilled):
            keys: list[Any] = []
            values: list[Any] = []
            for origin in origins:
                chunk_keys, chunk_values = decode_columns(spill.get(origin))
                keys += chunk_keys
                values += chunk_values
            keys, values = sort_columns(keys, values)
            return map(tuple.__new__, itertools.repeat(KeyValue), zip(keys, values))
        chunks = (decode_stream(spill.get(origin)) if lazy
                  else decode_chunk(spill.get(origin))
                  for origin, lazy in zip(origins, spilled))
        if not any(spilled):
            return itertools.chain.from_iterable(chunks)
        iterators = list(map(iter, chunks))
        if sort:
            return heapq.merge(*iterators, key=itemgetter(0))
        return itertools.chain.from_iterable(iterators)

    def raw_chunks(self) -> list[bytes]:
        """All encoded chunks in origin order (spilled chunks are read
        back into memory; used by checkpointing, which re-encodes them to
        its own layout)."""
        return [bytes(self._spill.get(origin))
                for origin in sorted(self._spill.keys())]

    # -- accounting ------------------------------------------------------------

    @property
    def memory_bytes(self) -> int:
        """Encoded chunk bytes currently resident in memory."""
        return self._spill.in_memory_bytes

    @property
    def bytes_spilled(self) -> int:
        """Cumulative chunk bytes written to segment files."""
        return self._spill.bytes_spilled

    @property
    def spill_reads(self) -> int:
        """Chunk reads served from a mapped segment instead of memory."""
        return self._spill.spill_reads

    @property
    def spills(self) -> int:
        """Eviction events (segment files created)."""
        return self._spill.spills

    @property
    def segment_files(self) -> list[str]:
        """Live segment file paths (diagnostics and leak tests)."""
        return self._spill.segment_files

    # -- lifecycle -------------------------------------------------------------

    def reset(self) -> None:
        """Empty the store for reuse by the next superstep.

        Iteration and Streaming modes keep one store per A rank alive
        across supersteps; resetting drops chunks, segment files, and
        counters while retaining the owned spill directory so repeated
        windows do not churn temp directories.
        """
        self._spill.reset()
        self._auto_sequence = 0

    def cleanup(self) -> None:
        """Delete segment files and the owned temp directory."""
        self._spill.cleanup()
        self._auto_sequence = 0
