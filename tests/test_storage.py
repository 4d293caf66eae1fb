"""The ``repro.storage`` layer: budgets, LRU spill, and the config surface.

Four families of guarantees:

* **SpillStore** — payloads past the budget move LRU-first to sealed
  segment files and rehydrate as read-only ``memoryview`` slices, with
  exact byte accounting, across discard/reset/cleanup lifecycles.
* **ChunkStore** — the A-side receive store produces a byte-identical
  merge whether or not its chunks spilled, and its accounting properties
  mirror the underlying SpillStore.
* **Config plumbing** — :class:`StorageConfig` validates its knobs and
  is the only storage setting ``DataMPIConf`` carries.
* **Acceptance** — an over-budget sort matrix cell produces the same
  output checksum as its in-memory twin on every transport backend,
  with ``bytes_spilled > 0`` and no leaked segment files.
"""

import heapq
import os
import random
import time
import tracemalloc
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bigdatabench import TextGenerator
from repro.common.errors import ConfigError, DataMPIError
from repro.common.kv import KeyValue, decode_stream, encode_stream, record_size
from repro.datampi import DataMPIConf
from repro.datampi.context import AContext
from repro.experiments.matrix import execute_cell
from repro.experiments.spec import CellSpec, ExperimentSpec
from repro.mpi.transport import available_transports
from repro.storage import (
    DEFAULT_SPILL_BYTES,
    ChunkStore,
    KVCache,
    SpillStore,
    StorageConfig,
    chunkstore,
)
from repro.workloads import text_sort_datampi_result

ALL_BACKENDS = ("thread", "shm", "inline", "tcp")


def _segment_files(directory) -> list[str]:
    return [name for name in os.listdir(directory) if name.endswith(".seg")]


class TestSpillStore:
    def test_resident_until_budget_exceeded(self):
        store = SpillStore(budget_bytes=100)
        store.put("a", b"x" * 40)
        store.put("b", b"y" * 40)
        assert not store.is_spilled("a") and not store.is_spilled("b")
        assert store.in_memory_bytes == 80
        assert store.spills == 0
        store.cleanup()

    def test_lru_eviction_evicts_least_recently_used(self, tmp_path):
        store = SpillStore(budget_bytes=100, spill_dir=str(tmp_path))
        store.put("a", b"a" * 40)
        store.put("b", b"b" * 40)
        store.get("a")  # touch: "b" is now the LRU entry
        store.put("c", b"c" * 40)
        assert store.is_spilled("b")
        assert not store.is_spilled("a") and not store.is_spilled("c")
        store.cleanup()

    def test_rehydrated_bytes_identical(self, tmp_path):
        payloads = {f"k{i}": bytes([i]) * (200 + i) for i in range(8)}
        store = SpillStore(budget_bytes=256, spill_dir=str(tmp_path))
        for key, payload in payloads.items():
            store.put(key, payload)
        assert store.spills > 0
        for key, payload in payloads.items():
            view = store.get(key)
            assert isinstance(view, memoryview)
            assert bytes(view) == payload
        store.cleanup()

    def test_spilled_entries_stay_spilled_after_read(self, tmp_path):
        """A post-spill scan must not re-inflate the resident set — that
        is the whole point of a beyond-RAM store."""
        store = SpillStore(budget_bytes=64, spill_dir=str(tmp_path))
        store.put("old", b"x" * 60)
        store.put("new", b"y" * 60)
        assert store.is_spilled("old")
        resident_before = store.in_memory_bytes
        store.get("old")
        store.get("old")
        assert store.is_spilled("old")
        assert store.in_memory_bytes == resident_before
        assert store.spill_reads == 2
        store.cleanup()

    @staticmethod
    def _over_budget_store(tmp_path) -> tuple[SpillStore, list[bytes]]:
        """64 payloads of 16 KiB in a store 8x over its budget."""
        payloads = [bytes([index % 251]) * (16 * 1024) for index in range(64)]
        store = SpillStore(budget_bytes=len(payloads) * 16 * 1024 // 8,
                           spill_dir=str(tmp_path))
        for index, payload in enumerate(payloads):
            store.put(index, payload)
        assert store.bytes_spilled > 0
        return store, payloads

    def test_full_scan_over_budget_reads_each_spilled_entry_once(self, tmp_path):
        """Every key once in key order, the A-side merge's shape: each
        spilled entry is one segment read, each resident one none."""
        store, payloads = self._over_budget_store(tmp_path)
        spilled = [key for key in store.keys() if store.is_spilled(key)]
        resident_before = store.in_memory_bytes
        for key in sorted(store.keys()):
            assert bytes(store.get(key)) == payloads[key]
        assert store.spill_reads == len(spilled) > 0
        assert store.in_memory_bytes == resident_before
        store.cleanup()

    def test_size_of_over_budget_reads_no_segment(self, tmp_path):
        store, payloads = self._over_budget_store(tmp_path)
        assert [store.size_of(key) for key in store.keys()] == \
            [len(payload) for payload in payloads]
        assert store.spill_reads == 0
        store.cleanup()

    def test_random_reads_with_repeats_over_budget(self, tmp_path):
        """Uniform random touches with repeats over a store 8x its budget,
        the adversarial shape for LRU spill: every read is exact."""
        store, payloads = self._over_budget_store(tmp_path)
        rng = random.Random(7)
        for key in (rng.randrange(len(payloads)) for _ in range(256)):
            assert bytes(store.get(key)) == payloads[key]
        assert store.spill_reads > 0
        store.cleanup()

    def test_oversized_entry_admitted_and_spilled(self, tmp_path):
        """Unlike the cache, the store never rejects: an entry larger
        than the whole budget is admitted and goes straight to disk."""
        store = SpillStore(budget_bytes=16, spill_dir=str(tmp_path))
        store.put("huge", b"z" * 1000)
        assert store.is_spilled("huge")
        assert bytes(store.get("huge")) == b"z" * 1000
        assert store.bytes_spilled == 1000
        store.cleanup()

    def test_zero_byte_entries_never_spill(self, tmp_path):
        store = SpillStore(budget_bytes=32, spill_dir=str(tmp_path))
        store.put("empty", b"")
        store.put("big", b"x" * 64)
        assert not store.is_spilled("empty")
        assert bytes(store.get("empty")) == b""
        store.cleanup()

    def test_memoryview_payloads_roundtrip(self, tmp_path):
        store = SpillStore(budget_bytes=32, spill_dir=str(tmp_path))
        backing = bytes(range(256))
        store.put("view", memoryview(backing)[10:120])
        store.put("pusher", b"p" * 64)
        assert store.is_spilled("view")
        assert bytes(store.get("view")) == backing[10:120]
        store.cleanup()

    def test_discard_resident_and_spilled(self, tmp_path):
        store = SpillStore(budget_bytes=64, spill_dir=str(tmp_path))
        store.put("old", b"x" * 60)
        store.put("new", b"y" * 60)
        assert store.discard("old")  # spilled
        assert store.discard("new")  # resident
        assert not store.discard("gone")
        assert store.in_memory_bytes == 0
        assert len(store) == 0
        store.cleanup()

    def test_size_of_answers_from_index(self, tmp_path):
        store = SpillStore(budget_bytes=16, spill_dir=str(tmp_path))
        store.put("k", b"x" * 40)
        assert store.size_of("k") == 40
        assert store.size_of("absent") is None
        assert store.spill_reads == 0  # no disk touch for metadata
        store.cleanup()

    def test_replacing_key_reaccounts(self):
        store = SpillStore(budget_bytes=1024)
        store.put("k", b"x" * 100)
        store.put("k", b"y" * 30)
        assert store.in_memory_bytes == 30
        assert bytes(store.get("k")) == b"y" * 30
        store.cleanup()

    def test_reset_deletes_segments_and_counters(self, tmp_path):
        store = SpillStore(budget_bytes=32, spill_dir=str(tmp_path))
        for index in range(4):
            store.put(index, b"x" * 30)
        assert _segment_files(tmp_path)
        store.reset()
        assert _segment_files(tmp_path) == []
        assert len(store) == 0
        assert store.bytes_spilled == 0 and store.spill_reads == 0
        # The store stays usable after a reset.
        store.put("again", b"y" * 50)
        assert store.is_spilled("again")
        assert bytes(store.get("again")) == b"y" * 50
        store.cleanup()

    def test_cleanup_removes_owned_directory(self):
        store = SpillStore(budget_bytes=8)  # no spill_dir: owned temp dir
        store.put("a", b"x" * 32)
        store.put("b", b"y" * 32)
        owned_dir = os.path.dirname(store.segment_files[0])
        assert os.path.isdir(owned_dir)
        store.cleanup()
        assert not os.path.exists(owned_dir)

    def test_cleanup_keeps_caller_supplied_directory(self, tmp_path):
        store = SpillStore(budget_bytes=8, spill_dir=str(tmp_path))
        store.put("a", b"x" * 32)
        store.cleanup()
        assert os.path.isdir(tmp_path)
        assert _segment_files(tmp_path) == []

    def test_shared_spill_dir_gets_unique_segment_names(self, tmp_path):
        """Many ranks may share one spill directory; their segment files
        must never collide."""
        stores = [SpillStore(budget_bytes=8, spill_dir=str(tmp_path))
                  for _ in range(3)]
        for index, store in enumerate(stores):
            store.put("k", bytes([index]) * 32)
        assert len(_segment_files(tmp_path)) == 3
        for index, store in enumerate(stores):
            assert bytes(store.get("k")) == bytes([index]) * 32
            store.cleanup()

    def test_budget_must_be_positive(self):
        with pytest.raises(DataMPIError, match="positive"):
            SpillStore(budget_bytes=0)

    def test_counters_mapping(self, tmp_path):
        store = SpillStore(budget_bytes=32, spill_dir=str(tmp_path))
        store.put("a", b"x" * 40)
        store.get("a")
        counters = store.counters
        assert counters["spill.bytes_spilled"] == 40
        assert counters["spill.reads"] == 1
        assert counters["spill.segments"] == 1
        store.cleanup()


class TestChunkStoreSpill:
    @staticmethod
    def _chunks():
        return [
            encode_stream([("b", 2), ("d", 4)]),
            encode_stream([("a", 1), ("c", 3)]),
            encode_stream([("a", 9), ("e", 5)]),
        ]

    def test_merge_identical_with_and_without_spill(self, tmp_path):
        """The canonical k-way merge must not depend on which chunks
        happened to spill — same records, same order, byte for byte."""
        resident = ChunkStore()
        spilling = ChunkStore(spill_threshold=8, spill_dir=str(tmp_path))
        for origin, chunk in enumerate(self._chunks()):
            resident.add(chunk, origin=(0, origin))
            spilling.add(chunk, origin=(0, origin))
        assert spilling.bytes_spilled > 0
        assert list(spilling.merged()) == list(resident.merged())
        resident.cleanup()
        spilling.cleanup()

    def test_raw_chunks_rehydrate_exact_bytes(self, tmp_path):
        store = ChunkStore(spill_threshold=8, spill_dir=str(tmp_path))
        chunks = self._chunks()
        for origin, chunk in enumerate(chunks):
            store.add(chunk, origin=(0, origin))
        assert store.raw_chunks() == chunks
        store.cleanup()


class TestResidentUnsortedMerge:
    """``merged(sort=False)`` on a never-spilled store is the lazy chain of
    its chunks in origin order — no record list is built for no sort."""

    GOOD = [("b", 2), ("a", 1), ("b", 3)]

    @pytest.mark.parametrize("torn, whole_records, message", [
        ([("c", 4), ("d", 5)], [], "torn columnar chunk"),  # all or nothing
        ([("c", 4.0), ("d", 5)], [("c", 4.0)], "truncated record"),
    ])
    def test_good_chunk_is_yielded_before_a_torn_one_raises(
            self, torn, whole_records, message):
        store = ChunkStore()
        store.add(encode_stream(torn)[:-1], origin=(0, 1))
        store.add(encode_stream(self.GOOD), origin=(0, 0))
        seen = []
        with pytest.raises(ValueError, match=message):
            for record in store.merged(sort=False):
                seen.append(tuple(record))
        assert seen == self.GOOD + whole_records
        # A sort needs every record first: nothing comes out.
        with pytest.raises(ValueError, match=message):
            next(store.merged(sort=True))

    def test_grouped_without_sort_is_unchanged(self):
        store = ChunkStore()
        store.add(encode_stream([("c", 4.0), ("b", 5)]), origin=(1, 0))
        store.add(encode_stream(self.GOOD), origin=(0, 0))
        context = AContext(None, store, sort=False)
        assert list(context.grouped()) == [
            ("b", [2, 3, 5]), ("a", [1]), ("c", [4.0])]
        assert context.records_received == 5


class TestDecoderChoice:
    """Which decoder ``merged()`` hands each chunk: a one-pass decoder
    (``decode_chunk``, or ``decode_columns`` for the sort of a store that
    never spilled) for a resident one, ``decode_stream`` for a spilled one
    — the one that keeps a dataset bigger than memory from becoming
    resident as records."""

    CHUNKS, KEYS = 4, 10_000

    @classmethod
    def _spill_everything(cls, tmp_path, value):
        store = ChunkStore(spill_threshold=1, spill_dir=str(tmp_path))
        chunks = [encode_stream([("key %d %06d" % (chunk, index), value)
                                 for index in range(cls.KEYS)])
                  for chunk in range(cls.CHUNKS)]
        for origin, chunk in enumerate(chunks):
            store.add(chunk, origin=(origin, 0))
        assert store.memory_bytes == 0
        assert store.bytes_spilled == sum(map(len, chunks))
        return store, chunks

    @pytest.mark.parametrize("value", [None, 7])
    @pytest.mark.parametrize("sort", [True, False])
    def test_spilled_chunks_stay_lazy(self, tmp_path, sort, value):
        """Opening the merge of a store that spilled every chunk takes
        less memory than one chunk's payload, in either merge."""
        store, chunks = self._spill_everything(tmp_path, value)
        tracemalloc.start()
        try:
            first = next(store.merged(sort=sort))
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first == KeyValue("key 0 000000", value)
        assert peak < len(chunks[0])
        store.cleanup()

    @pytest.mark.parametrize("sort", [True, False])
    @pytest.mark.parametrize("budget", [None, 1, 40])
    def test_resident_chunks_decode_at_once(self, monkeypatch, tmp_path, sort, budget):
        """Nothing spilled, everything spilled, and a mix (budget 40 keeps
        the two newest chunks resident): each chunk goes to the decoder its
        residency picks, and the records are the same."""
        calls = []

        def spy(name, decoder):
            def decode(data):
                calls.append((name, bytes(data)))
                return decoder(data)
            return decode

        # A never-spilled sorted store decodes resident chunks to columns:
        # decode_columns is the resident decoder there, as decode_chunk is
        # in the other paths, so both count as "chunk".
        monkeypatch.setattr(chunkstore, "decode_chunk",
                            spy("chunk", chunkstore.decode_chunk))
        monkeypatch.setattr(chunkstore, "decode_columns",
                            spy("chunk", chunkstore.decode_columns))
        monkeypatch.setattr(chunkstore, "decode_stream",
                            spy("stream", chunkstore.decode_stream))
        store = ChunkStore(spill_threshold=budget or DEFAULT_SPILL_BYTES,
                           spill_dir=str(tmp_path))
        chunks = [encode_stream([("a", 1.5), ("b", None)]),  # a record stream
                  encode_stream([("b", 1), ("b", 2), ("e", 3)]),
                  encode_stream([("c", None), ("d", None)])]
        for origin, chunk in enumerate(chunks):
            store.add(chunk, origin=(0, origin))
        expected = [("stream" if store._spill.is_spilled((0, origin)) else "chunk", chunk)
                    for origin, chunk in enumerate(chunks)]
        assert {name for name, _chunk in expected} == {
            None: {"chunk"}, 1: {"stream"}, 40: {"chunk", "stream"}}[budget]
        records = list(store.merged(sort=sort))
        assert calls == expected
        concatenated = [record for chunk in chunks for record in decode_stream(chunk)]
        assert records == (sorted(concatenated, key=itemgetter(0)) if sort
                           else concatenated)
        store.cleanup()


@st.composite
def _origin_stamped_chunks(draw):
    """Key-sorted chunks with heavy key duplication and a distinct value
    per record (so a tie broken the wrong way shows), each stamped with
    an explicit origin, listed in a shuffled *arrival* order.  A chunk's
    values are all ``int`` (it ships as columns) or all ``float`` (the
    record stream): one store holds both layouts."""
    runs = draw(st.lists(
        st.tuples(st.lists(st.sampled_from("abcde"), max_size=6),
                  st.sampled_from([int, float])),
        min_size=1, max_size=6))
    serial = iter(range(10_000))
    chunks = [((index % 3, index // 3),
               [(key, kind(next(serial))) for key in sorted(run)])
              for index, (run, kind) in enumerate(runs)]
    return draw(st.permutations(chunks))


class TestMergeEquivalenceUnderSpill:
    """One stable sort (nothing spilled) and the lazy k-way merge (any
    spill) are the same function of the chunks and their origins."""

    #: budget, then (spills, bytes_spilled) after the adds and
    #: spill_reads after one merged() + one merged(sort=False) — read off
    #: the parent of the PR that added the resident sort, same inputs.
    #: Re-recorded when these ``(str, int)`` chunks went columnar: payloads
    #: shrank 39/26/39/13 -> 16/13/16/10 bytes, so the byte totals moved
    #: (117 -> 55, 65 -> 29) and the partial-spill budget moved with them
    #: (60 -> 28: still the first two arrivals, evicted one at a time).
    PINNED = [(None, (0, 0), 0, 0), (1, (4, 55), 4, 8), (28, (2, 29), 2, 4)]
    PINNED_CHUNKS = [
        ((1, 0), [("a", 10), ("c", 11), ("c", 12)]),
        ((0, 1), [("b", 20), ("c", 21)]),
        ((0, 0), [("a", 30), ("a", 31), ("d", 32)]),
        ((1, 1), [("c", 40)]),
    ]

    @staticmethod
    def _filled(chunks, budget):
        store = ChunkStore() if budget is None else ChunkStore(
            spill_threshold=budget)
        for origin, records in chunks:
            store.add(encode_stream(records), origin=origin)
        return store

    @settings(deadline=None, max_examples=60)
    @given(_origin_stamped_chunks())
    def test_resident_all_spilled_some_spilled_and_oracle_agree(self, chunks):
        encoded = sorted((origin, encode_stream(records))
                         for origin, records in chunks)
        runs = [list(decode_stream(payload)) for _origin, payload in encoded]
        oracle = list(heapq.merge(*runs, key=lambda kv: kv[0]))
        in_origin_order = [record for run in runs for record in run]
        total = sum(len(payload) for _origin, payload in encoded)
        for budget in (None, 1, max(1, total // 2)):
            store = self._filled(chunks, budget)
            try:
                spilled = [origin for origin, _payload in encoded
                           if store._spill.is_spilled(origin)]
                before = (store.spills, store.bytes_spilled)
                if budget == 1:
                    assert len(spilled) == sum(
                        1 for _origin, payload in encoded if payload)
                merged = list(store.merged())
                assert merged == oracle
                assert all(type(record) is KeyValue for record in merged)
                # One read per spilled chunk per pass, none for resident.
                assert store.spill_reads == len(spilled)
                assert list(store.merged(sort=False)) == in_origin_order
                assert store.spill_reads == 2 * len(spilled)
                assert (store.spills, store.bytes_spilled) == before
            finally:
                store.cleanup()

    @pytest.mark.parametrize("budget, spilled, reads_once, reads_twice", PINNED)
    def test_spill_counters_equal_the_parents(self, budget, spilled,
                                              reads_once, reads_twice):
        store = self._filled(self.PINNED_CHUNKS, budget)
        try:
            assert (store.spills, store.bytes_spilled) == spilled
            assert [tuple(record) for record in store.merged()] == [
                ("a", 30), ("a", 31), ("a", 10), ("b", 20), ("c", 21),
                ("c", 11), ("c", 12), ("c", 40), ("d", 32)]
            assert store.spill_reads == reads_once
            assert [record.value for record in store.merged(sort=False)] == [
                30, 31, 32, 20, 21, 10, 11, 12, 40]
            assert store.spill_reads == reads_twice
            assert (store.spills, store.bytes_spilled) == spilled
        finally:
            store.cleanup()


class TestKVCacheAccounting:
    def test_memoryview_charged_by_byte_length(self):
        """The ``record_size`` fix: a zero-copy view is charged its
        ``nbytes``, identically to the equivalent ``bytes`` payload."""
        payload = b"v" * 1000
        as_bytes = KVCache(None)
        as_view = KVCache(None)
        as_bytes.put("k", payload)
        as_view.put("k", memoryview(payload))
        assert as_view.size_of("k") == as_bytes.size_of("k")
        assert as_view.used_bytes >= 1000

    def test_record_size_memoryview_vs_bytes(self):
        payload = bytes(512)
        assert record_size("k", memoryview(payload)) == \
            record_size("k", payload)

    def test_budgeted_cache_evicts_views_correctly(self):
        cache = KVCache(capacity_bytes=record_size("a", bytes(100)) + 8)
        assert cache.put("a", memoryview(bytes(100)))
        assert cache.put("b", memoryview(bytes(100)))
        assert cache.get("a") is None  # evicted, not silently retained
        assert cache.evictions == 1


class TestStorageConfig:
    def test_factories_honor_fields(self, tmp_path):
        config = StorageConfig(cache_bytes=1 << 16, spill_threshold=128,
                               spill_dir=str(tmp_path))
        cache = config.make_cache()
        assert cache.capacity_bytes == 1 << 16
        store = config.make_store()
        store.add(b"z" * 256)
        assert store.bytes_spilled == 256
        assert _segment_files(tmp_path)
        store.cleanup()

    def test_defaults_are_unbounded_cache_default_spill(self):
        config = StorageConfig()
        assert config.cache_bytes is None
        assert config.spill_threshold == DEFAULT_SPILL_BYTES
        assert config.spill_dir is None

    def test_validation(self):
        with pytest.raises(ConfigError, match="cache_bytes"):
            StorageConfig(cache_bytes=0)
        with pytest.raises(ConfigError, match="spill_threshold"):
            StorageConfig(spill_threshold=0)

    def test_frozen(self):
        config = StorageConfig()
        with pytest.raises(Exception):
            config.spill_threshold = 1


class TestDataMPIConfStorage:
    def test_default_conf_synthesizes_storage(self):
        assert DataMPIConf(num_o=1, num_a=1).storage == StorageConfig()
        assert DataMPIConf(num_o=1, num_a=1, storage=None).storage == \
            StorageConfig()

    def test_storage_is_carried_as_given(self, tmp_path):
        storage = StorageConfig(cache_bytes=2048, spill_threshold=256,
                                spill_dir=str(tmp_path))
        assert DataMPIConf(num_o=1, num_a=1, storage=storage).storage is storage

    @pytest.mark.parametrize("legacy", ["cache_bytes", "spill_bytes"])
    def test_legacy_integer_knobs_are_gone(self, legacy):
        with pytest.raises(TypeError, match=legacy):
            DataMPIConf(num_o=1, num_a=1, **{legacy: 1024})
        assert not hasattr(DataMPIConf(num_o=1, num_a=1), legacy)


class TestOverBudgetAcceptance:
    """The PR's acceptance bar: a ``large``-scale sort cell whose shuffle
    exceeds the budget runs to a byte-identical checksum against its
    in-memory twin on every transport, reporting its spill traffic."""

    @pytest.fixture(params=[b for b in ALL_BACKENDS
                            if b in available_transports()])
    def backend(self, request):
        return request.param

    @staticmethod
    def _sort_spec(backend, spill_budget_bytes):
        cell = CellSpec(workload="text_sort", mode="common",
                        engine="datampi", scale="large", transport=backend)
        return cell, ExperimentSpec(name="spill-acceptance", cells=(cell,),
                                    spill_budget_bytes=spill_budget_bytes)

    def test_over_budget_cell_matches_in_memory(self, backend):
        cell, baseline_spec = self._sort_spec(backend, None)
        _, budget_spec = self._sort_spec(backend, 4096)
        baseline = execute_cell(cell, baseline_spec)
        budgeted = execute_cell(cell, budget_spec)
        assert baseline.status == budgeted.status == "ok"
        assert budgeted.output_checksum == baseline.output_checksum
        assert budgeted.bytes_spilled > 0
        assert budgeted.spill_reads > 0
        assert baseline.bytes_spilled == 0

    def test_no_segment_files_leak_after_run(self, backend, tmp_path,
                                             wait_until):
        """Job-level twin of the cell test with an observable spill dir:
        after the run returns, no segment file remains on disk."""
        lines = TextGenerator(seed=7).lines(1200)
        storage = StorageConfig(spill_threshold=4096, spill_dir=str(tmp_path))
        result = text_sort_datampi_result(lines, parallelism=3,
                                          transport=backend, storage=storage)
        assert result.counters["a.bytes_spilled"] > 0
        merged = [line for output in result.outputs for line in output]
        assert merged == sorted(lines)
        # Rank cleanup may trail the result gather on process transports.
        wait_until(lambda: not _segment_files(tmp_path), timeout=30,
                   message="run left segment files behind")
