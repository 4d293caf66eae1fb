"""Per-rank in-memory KV cache for cross-superstep data reuse.

The DataMPI spec's Iteration mode keeps task processes alive across
supersteps so that iteration *i+1* can read iteration *i*'s data locally
instead of re-partitioning and re-sending it.  This cache is the local
half of that design: each rank owns one :class:`KVCache`, the iterative
driver pins O-side input splits and A-side outputs in it, and user tasks
may stash their own cross-iteration state (``ctx.cache``).

Sizes are accounted with :func:`repro.common.kv.record_size` — the same
cost model the send buffers charge to the network — so a cache hit's
``hit_bytes`` is directly comparable to the ``o.bytes_sent`` counter it
saved.  ``record_size`` sizes ``memoryview``/``bytearray`` payloads by
their byte length, so entries held as views charge the budget exactly.  Eviction is LRU; an entry larger than the whole
capacity is rejected rather than thrashing the cache empty.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Iterator

from repro.common.errors import DataMPIError
from repro.common.kv import record_size


class KVCache:
    """LRU key-value cache with ``record_size``-based byte accounting.

    Examples:
        >>> from repro.storage import KVCache
        >>> cache = KVCache(capacity_bytes=1024)
        >>> cache.put("o.splits", [b"chunk-0", b"chunk-1"])
        True
        >>> cache.get("o.splits")
        [b'chunk-0', b'chunk-1']
        >>> cache.get("absent", "fallback")
        'fallback'
        >>> cache.counters["cache.hits"], cache.counters["cache.misses"]
        (1, 1)

        Oversized entries are rejected outright instead of emptying the
        cache to no avail:

        >>> cache.put("huge", b"x" * 4096)
        False
    """

    def __init__(self, capacity_bytes: int | None = None) -> None:
        if capacity_bytes is not None and capacity_bytes < 1:
            raise DataMPIError(
                f"cache capacity must be positive or None, got {capacity_bytes}"
            )
        self.capacity_bytes = capacity_bytes
        self._entries: OrderedDict[Any, tuple[Any, int]] = OrderedDict()
        self.used_bytes = 0
        self.hits = 0
        self.misses = 0
        self.hit_bytes = 0
        self.evictions = 0
        self.rejected = 0

    # -- core operations -------------------------------------------------------

    def put(self, key: Any, value: Any) -> bool:
        """Store ``value`` under ``key``; returns False if it cannot fit.

        Replacing an existing key re-accounts its size.  When a capacity is
        set, least-recently-used entries are evicted until the new entry
        fits; an entry bigger than the whole capacity is rejected (storing
        it would merely empty the cache and still overflow).
        """
        size = record_size(key, value)
        if self.capacity_bytes is not None and size > self.capacity_bytes:
            self.discard(key)  # a stale smaller value must not linger
            self.rejected += 1
            return False
        self.discard(key)
        while (
            self.capacity_bytes is not None
            and self._entries
            and self.used_bytes + size > self.capacity_bytes
        ):
            self._evict_lru()
        self._entries[key] = (value, size)
        self.used_bytes += size
        return True

    def get(self, key: Any, default: Any = None) -> Any:
        """Return the cached value (counting a hit) or ``default`` (a miss)."""
        entry = self._entries.get(key)
        if entry is None:  # entries are (value, size) tuples, never None
            self.misses += 1
            return default
        self._entries.move_to_end(key)
        value, size = entry
        self.hits += 1
        self.hit_bytes += size
        return value

    def discard(self, key: Any) -> bool:
        """Remove ``key`` if present (no eviction counted); True if removed."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self.used_bytes -= entry[1]
        return True

    def evict(self, key: Any) -> bool:
        """Explicitly evict ``key``; True if it was present."""
        if self.discard(key):
            self.evictions += 1
            return True
        return False

    def _evict_lru(self) -> None:
        _key, (_value, size) = self._entries.popitem(last=False)
        self.used_bytes -= size
        self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()
        self.used_bytes = 0

    # -- introspection ---------------------------------------------------------

    def __contains__(self, key: Any) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._entries)

    def size_of(self, key: Any) -> int | None:
        """Accounted byte size of one entry, or None if absent."""
        entry = self._entries.get(key)
        return None if entry is None else entry[1]

    @property
    def counters(self) -> dict[str, int]:
        return {
            "cache.hits": self.hits,
            "cache.misses": self.misses,
            "cache.hit_bytes": self.hit_bytes,
            "cache.evictions": self.evictions,
            "cache.rejected": self.rejected,
        }
