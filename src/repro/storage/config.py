"""One value object for every storage knob a DataMPI job carries.

:class:`StorageConfig` is the one place the cache capacity, the spill
threshold and the spill directory are decided:
:class:`~repro.datampi.job.DataMPIConf` carries one, and drivers build
their per-rank stores from it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.storage.chunkstore import ChunkStore
from repro.storage.kvcache import KVCache
from repro.storage.spill import DEFAULT_SPILL_BYTES


@dataclass(frozen=True)
class StorageConfig:
    """Memory budgets and spill placement for one job's ranks.

    Examples:
        >>> from repro.storage import StorageConfig
        >>> config = StorageConfig(cache_bytes=1 << 20, spill_threshold=4096)
        >>> cache = config.make_cache()
        >>> cache.capacity_bytes
        1048576
        >>> store = config.make_store()
        >>> store.add(b"chunk")
        >>> store.memory_bytes
        5
        >>> store.cleanup()
    """

    #: Capacity of the per-rank cross-superstep KV cache (None = unbounded).
    cache_bytes: int | None = None
    #: Directory receiving spill segment files (None = a per-store owned
    #: temp directory).  One shared directory may serve many ranks —
    #: segment file names are unique per store.
    spill_dir: str | None = None
    #: In-memory budget of each A rank's chunk store; received chunk
    #: bytes beyond it are evicted LRU to segment files.
    spill_threshold: int = DEFAULT_SPILL_BYTES

    def __post_init__(self) -> None:
        if self.cache_bytes is not None and self.cache_bytes < 1:
            raise ConfigError("cache_bytes must be positive or None")
        if self.spill_threshold < 1:
            raise ConfigError("spill_threshold must be positive")

    def make_cache(self) -> KVCache:
        """A fresh per-rank KV cache sized by this config."""
        return KVCache(self.cache_bytes)

    def make_store(self) -> ChunkStore:
        """A fresh per-rank chunk store budgeted and placed by this config."""
        return ChunkStore(spill_threshold=self.spill_threshold,
                          spill_dir=self.spill_dir)
