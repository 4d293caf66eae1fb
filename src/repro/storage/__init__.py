"""``repro.storage`` — the data plane's storage layer.

The stable surface for everything that holds key-value payloads at rest
between the shuffle and the compute:

* :class:`KVCache` — per-rank LRU cache for cross-superstep reuse
  (Iteration mode's locality win), byte-accounted with ``record_size``.
* :class:`SpillStore` — memory-budgeted byte store that evicts LRU
  payloads to mmap-backed segment files and rehydrates them as read-only
  ``memoryview`` slices (the beyond-RAM data plane).
* :class:`ChunkStore` — the A-side receive store, a :class:`SpillStore`
  of origin-stamped shuffle chunks with a canonical k-way merge.
* :class:`StorageConfig` — the one value object carrying the budgets
  (``cache_bytes``, ``spill_threshold``) and spill placement
  (``spill_dir``); ``DataMPIConf.storage`` holds one and every driver
  builds its per-rank cache/store from it.
"""

from repro.storage.chunkstore import ChunkStore, Origin
from repro.storage.config import StorageConfig
from repro.storage.kvcache import KVCache
from repro.storage.spill import DEFAULT_SPILL_BYTES, SpillStore, map_segment

__all__ = [
    "ChunkStore",
    "DEFAULT_SPILL_BYTES",
    "KVCache",
    "Origin",
    "SpillStore",
    "StorageConfig",
    "map_segment",
]
