"""Unit tests for DataMPI building blocks: partitioners, buffers, store."""

import collections
import gc
import random
from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bigdatabench import TextGenerator
from repro.common import CommunicatorError, DataMPIError
from repro.common.kv import KeyValue, decode_stream, encode_stream
from test_common_kv import _python_calls
from repro.datampi import (
    BipartiteComm,
    ChunkStore,
    OContext,
    PartitionedSendBuffer,
    RangePartitioner,
    hash_partitioner,
    validate_partition,
)


class TestHashPartitioner:
    def test_in_range(self):
        for key in ["a", "b", 42, 3.14, b"bytes", None]:
            assert 0 <= hash_partitioner(key, 7) < 7

    def test_deterministic(self):
        assert hash_partitioner("word", 16) == hash_partitioner("word", 16)

    @given(st.text(max_size=30), st.integers(min_value=1, max_value=64))
    def test_property_in_range(self, key, n):
        assert 0 <= hash_partitioner(key, n) < n

    def test_spreads_keys(self):
        partitions = {hash_partitioner(f"key{i}", 8) for i in range(100)}
        assert len(partitions) == 8  # all partitions hit with 100 keys


class TestRangePartitioner:
    def test_orders_partitions(self):
        part = RangePartitioner(sample_keys=list(range(100)), num_partitions=4)
        assigned = [part(key, 4) for key in range(100)]
        assert assigned == sorted(assigned)
        assert set(assigned) == {0, 1, 2, 3}

    def test_balance_on_uniform_sample(self):
        part = RangePartitioner(sample_keys=list(range(1000)), num_partitions=4)
        counts = [0, 0, 0, 0]
        for key in range(1000):
            counts[part(key, 4)] += 1
        assert all(200 <= c <= 300 for c in counts)

    def test_empty_sample_rejected(self):
        with pytest.raises(DataMPIError):
            RangePartitioner([], 4)

    def test_partition_count_mismatch_rejected(self):
        part = RangePartitioner([1, 2, 3], 2)
        with pytest.raises(DataMPIError):
            part(1, 3)

    @given(st.lists(st.integers(), min_size=1, max_size=200),
           st.integers(min_value=1, max_value=8))
    def test_monotone_property(self, sample, n):
        part = RangePartitioner(sample, n)
        keys = sorted(sample)
        assigned = [part(key, n) for key in keys]
        assert assigned == sorted(assigned)
        assert all(0 <= p < n for p in assigned)

    def test_validate_partition(self):
        assert validate_partition(0, 4) == 0
        with pytest.raises(DataMPIError):
            validate_partition(4, 4)
        with pytest.raises(DataMPIError):
            validate_partition(-1, 4)


class RecordingSink:
    def __init__(self):
        self.chunks: list[tuple[int, bytes]] = []

    def __call__(self, destination: int, payload: bytes) -> None:
        self.chunks.append((destination, payload))

    def records(self, destination=None):
        out = []
        for dest, payload in self.chunks:
            if destination is None or dest == destination:
                out.extend(decode_stream(payload))
        return out


class TestPartitionedSendBuffer:
    def test_flush_all_sends_everything(self):
        sink = RecordingSink()
        buffer = PartitionedSendBuffer(2, sink)
        buffer.add(0, "b", 1)
        buffer.add(0, "a", 2)
        buffer.add(1, "c", 3)
        buffer.flush_all()
        assert sink.records(0) == [KeyValue("a", 2), KeyValue("b", 1)]  # sorted
        assert sink.records(1) == [KeyValue("c", 3)]

    def test_threshold_triggers_pipelined_send(self):
        sink = RecordingSink()
        buffer = PartitionedSendBuffer(1, sink, threshold_bytes=64)
        for i in range(100):
            buffer.add(0, f"key{i:03d}", i)
        # Sends happened long before flush_all: that's the pipelining.
        assert buffer.chunks_sent > 1
        pre_flush_chunks = buffer.chunks_sent
        buffer.flush_all()
        assert buffer.chunks_sent >= pre_flush_chunks
        assert len(sink.records()) == 100

    def test_sort_disabled_preserves_order(self):
        sink = RecordingSink()
        buffer = PartitionedSendBuffer(1, sink, sort=False)
        buffer.add(0, "z", 1)
        buffer.add(0, "a", 2)
        buffer.flush_all()
        assert [kv.key for kv in sink.records()] == ["z", "a"]

    def test_combiner_reduces_records(self):
        sink = RecordingSink()
        buffer = PartitionedSendBuffer(
            1, sink, combiner=lambda key, values: sum(values)
        )
        for _ in range(10):
            buffer.add(0, "word", 1)
        buffer.flush_all()
        assert sink.records() == [KeyValue("word", 10)]
        assert buffer.records_combined_away == 9

    @pytest.mark.parametrize("sort", [True, False])
    def test_retried_flush_counts_combined_records_once(self, sort):
        sink = RecordingSink()
        failures = [ConnectionError("send failed")]

        def send(destination, payload):
            if failures:
                raise failures.pop()
            sink(destination, payload)

        buffer = PartitionedSendBuffer(1, send, sort=sort, combiner=sum_combiner)
        for _ in range(10):
            buffer.add(0, "word", 1)
        with pytest.raises(ConnectionError):
            buffer.flush(0)
        assert (buffer.records_sent, buffer.records_combined_away) == (0, 0)
        buffer.flush(0)
        assert sink.records() == [KeyValue("word", 10)]
        assert (buffer.records_sent, buffer.records_combined_away) == (1, 9)

    def test_folds_in_place_and_ships_at_close(self):
        """A repeat is charged its 8-byte slot, so 10 000 repeats of one
        key fold in place rather than ship: one chunk, at close."""
        sink = RecordingSink()
        buffer = PartitionedSendBuffer(1, sink, combiner=sum_combiner,
                                       threshold_bytes=1024)
        for _ in range(10_000):
            buffer.add(0, "word", 1)
        assert sink.chunks == []
        assert buffer.records_combined_away > 9_000  # folded, not yet shipped
        buffer.flush_all()
        assert sink.records() == [KeyValue("word", 10_000)]
        assert (buffer.records_sent, buffer.records_combined_away) == (1, 9_999)

    def test_empty_flush_sends_nothing(self):
        sink = RecordingSink()
        PartitionedSendBuffer(3, sink).flush_all()
        assert sink.chunks == []

    def test_invalid_construction(self):
        with pytest.raises(DataMPIError):
            PartitionedSendBuffer(0, lambda d, p: None)
        with pytest.raises(DataMPIError):
            PartitionedSendBuffer(1, lambda d, p: None, threshold_bytes=0)

    @given(st.lists(st.tuples(st.text(max_size=8), st.integers()), max_size=60),
           st.integers(min_value=1, max_value=4))
    def test_no_record_lost_property(self, records, num_dest):
        sink = RecordingSink()
        buffer = PartitionedSendBuffer(num_dest, sink, threshold_bytes=50)
        for key, value in records:
            buffer.add(hash(key) % num_dest, key, value)
        buffer.flush_all()
        assert sorted((kv.key, kv.value) for kv in sink.records()) == sorted(records)


def _collections(function):
    """Collections per generation while ``function`` runs, at thresholds
    ``(700, 10, 10)`` from empty young generations — a count, not a time,
    so it is the same on every machine."""
    counts = [0, 0, 0]

    def count(phase, info):
        if phase == "start":
            counts[info["generation"]] += 1

    threshold, enabled = gc.get_threshold(), gc.isenabled()
    gc.set_threshold(700, 10, 10)
    gc.enable()
    gc.collect()
    gc.callbacks.append(count)
    try:
        function()
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*threshold)
        if not enabled:
            gc.disable()
    return counts


class TestShuffleWakesNoCollector:
    """Records cross the send buffer and the store's merge as key and value
    columns: no tuple per record is held, so nothing the shuffle allocates
    sets off CPython's cyclic collector.  A buffer holding ``(key, value)``
    tuples, and a merge sorting ``KeyValue`` records, each ran 26 gen-0
    and 2 gen-1 collections here."""

    N = 20_000

    def test_send_and_merge_run_no_young_collection(self):
        keys = ["key %06d" % ((index * 7919) % self.N) for index in range(self.N)]
        sink = RecordingSink()
        buffer = PartitionedSendBuffer(2, sink)

        def send(value_of):
            def sends():
                for index, key in enumerate(keys):
                    buffer.add(index % 2, key, value_of(index))
                buffer.flush_all()
            return sends

        assert _collections(send(lambda index: None))[:2] == [0, 0]
        assert _collections(send(int))[:2] == [0, 0]
        store = ChunkStore()
        for destination, payload in sink.chunks:
            if destination == 0:
                store.add(payload)
        drained = []

        def drain():
            drained.append(len(collections.deque(store.merged(), maxlen=1)))
            drained.append(sum(1 for _record in store.merged()))

        assert _collections(drain)[:2] == [0, 0]
        assert drained == [1, self.N]


#: Keys a flush must order as a stable sort by key would: text (the
#: columnar layout when every value is None or every value an int), and
#: keys no column holds — ints, bytes, tuples, and numbers equal across
#: types (1, 1.0, True), which only a stable sort keeps in arrival order.
flush_keys = st.one_of(
    st.lists(st.text(alphabet="ab\u00e9", max_size=3), min_size=1, max_size=4),
    st.lists(st.integers(-3, 3), min_size=1, max_size=4),
    st.lists(st.binary(max_size=2), min_size=1, max_size=4),
    st.lists(st.tuples(st.sampled_from("xy"), st.integers(0, 2)), min_size=1, max_size=4),
    st.lists(st.sampled_from([1, 1.0, True, 0, 0.0, False]), min_size=1, max_size=6),
)
#: Values: all None, all int, or a mix — each value distinct per record
#: in the int and mixed draws, so a tie put in the wrong order shows.
flush_values = st.sampled_from(["none", "int", "mixed"])


@st.composite
def flush_streams(draw):
    pool = draw(flush_keys)
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))
    kind = draw(flush_values)
    records = []
    for serial, pick in enumerate(picks):
        value = {"none": None, "int": serial,
                 "mixed": (None, serial, str(serial), serial / 2)[serial % 4]}[kind]
        records.append((draw(st.integers(0, 2)), pool[pick], value))
    return records


class TestColumnFlush:
    """A flush of the column buffer ships, per destination, what one stable
    sort of that destination's ``(key, value)`` tuples encodes to."""

    @given(flush_streams(), st.booleans())
    @settings(max_examples=200, deadline=None)
    @example([(0, True, None), (0, 1, None), (0, 1.0, None), (0, 0, None)], False)
    @example([(1, "b", 2), (1, "a", 1), (1, "b", 0), (1, "a", 3)], True)
    def test_ships_the_stable_tuple_sort(self, records, fail_once):
        sent = []
        failures = [ConnectionError("send failed")] if fail_once else []

        def send(destination, payload):
            if failures:
                raise failures.pop()
            sent.append((destination, payload))

        buffer = PartitionedSendBuffer(3, send, threshold_bytes=1 << 30)
        for destination, key, value in records:
            buffer.add(destination, key, value)
        expected = [
            (destination, encode_stream(sorted(
                [(key, value) for dest, key, value in records if dest == destination],
                key=itemgetter(0))))
            for destination in range(3)
            if any(dest == destination for dest, _key, _value in records)]
        if fail_once and expected:
            with pytest.raises(ConnectionError):
                buffer.flush_all()
            assert (buffer.records_sent, buffer.chunks_sent, buffer.bytes_sent) == (0, 0, 0)
            assert sent == []
        buffer.flush_all()
        assert sent == expected
        assert buffer.records_sent == len(records)
        assert buffer.chunks_sent == len(expected)
        assert buffer.bytes_sent == sum(len(payload) for _dest, payload in expected)
        assert buffer.buffered_bytes == 0


class TestChunkStore:
    @staticmethod
    def encode(pairs):
        from repro.common.kv import encode_stream
        return encode_stream(pairs)

    def test_merged_sorted_across_chunks(self):
        store = ChunkStore()
        store.add(self.encode([("a", 1), ("m", 2)]))
        store.add(self.encode([("b", 3), ("z", 4)]))
        merged = [kv.key for kv in store.merged(sort=True)]
        assert merged == ["a", "b", "m", "z"]

    def test_unsorted_concatenates(self):
        store = ChunkStore()
        store.add(self.encode([("z", 1)]))
        store.add(self.encode([("a", 2)]))
        assert [kv.key for kv in store.merged(sort=False)] == ["z", "a"]

    def test_spill_roundtrip(self, tmp_path):
        store = ChunkStore(spill_threshold=100, spill_dir=str(tmp_path))
        expected = []
        for i in range(20):
            pairs = [(f"k{i:02d}{j}", j) for j in range(5)]
            expected.extend(pairs)
            store.add(self.encode(pairs))
        assert store.spills > 0
        merged = [(kv.key, kv.value) for kv in store.merged(sort=True)]
        assert merged == sorted(expected)
        store.cleanup()

    def test_spill_preserves_raw_chunks(self, tmp_path):
        store = ChunkStore(spill_threshold=50, spill_dir=str(tmp_path))
        chunks = [self.encode([(f"key{i}", i)]) for i in range(10)]
        for chunk in chunks:
            store.add(chunk)
        assert sorted(store.raw_chunks()) == sorted(chunks)
        store.cleanup()

    def test_cleanup_removes_spill_files(self):
        store = ChunkStore(spill_threshold=10)
        store.add(self.encode([("a", 1), ("b", 2)]))
        assert store.spills == 1
        store.cleanup()
        assert store.raw_chunks() == []

    def test_invalid_threshold(self):
        with pytest.raises(DataMPIError):
            ChunkStore(spill_threshold=0)


class RecordingComm:
    """What ``BipartiteComm`` asks of a ``Comm`` on an O rank: its rank,
    the world size, ``send``."""

    rank = 0

    def __init__(self, size):
        self.size = size
        self.sent: list[tuple[int, object, int]] = []
        self.on_send = lambda: None

    def send(self, dest, payload, tag):
        self.on_send()
        self.sent.append((dest, payload, tag))


class CountingPartitioner:
    calls = 0

    def __call__(self, key, num_partitions):
        self.calls += 1
        return hash_partitioner(key, num_partitions)


class ReferenceOContext:
    """``OContext`` as it was before the route memo: every record goes
    through the partitioner.  Same buffer, same communicator, and the same
    close: each A task's last chunk rides its EOF."""

    def __init__(self, bcomm, *, partitioner, sort, combiner, send_buffer_bytes):
        self._bcomm = bcomm
        self._partitioner = partitioner
        self._last = None
        self._buffer = PartitionedSendBuffer(
            bcomm.num_a, self._sink, sort=sort, combiner=combiner,
            threshold_bytes=send_buffer_bytes)

    def _sink(self, a_index, payload):
        if self._last is None:
            self._bcomm.send_chunk(a_index, payload)
        else:
            self._last[a_index] = payload

    def send(self, key, value):
        num_a = self._bcomm.num_a
        self._buffer.add(validate_partition(self._partitioner(key, num_a), num_a),
                         key, value)

    def close(self):
        self._last = [None] * self._bcomm.num_a
        self._buffer.flush_all()
        self._bcomm.send_eof(self._last)

    counters = OContext.counters  # reads the buffer's counters, nothing else


def sum_combiner(key, values):
    return sum(values)


def o_context(num_a, *, num_o=1, **kwargs):
    comm = RecordingComm(size=num_o + num_a)
    return OContext(BipartiteComm(comm, num_o, num_a), **kwargs), comm


# Keys of one pool can be sorted together.  Each pool but the last two
# holds keys that are ``==`` yet encode — and so hash-partition —
# differently: the reason the memo looks at the exact type first.
ROUTE_POOLS = [
    [1, True, 1.0, 2, 0, False, 0.0, -0.0],
    [("a", 1), ("a", 1.0), ("a", True), ("b", 0.0), ("b", -0.0)],
    [b"a", b"b", b"", b"ab"],
    [[1], [1, 2], [], [2]],
    ["a", "b", "", "ab", "\u00e9"],
]


class TestRouteMemo:
    def test_without_combiner_every_record_is_routed(self):
        partitioner = CountingPartitioner()
        ctx, _ = o_context(2, partitioner=partitioner)
        for i in range(1000):
            ctx.send(f"key{i % 10}", i)
        ctx.close()
        assert partitioner.calls == 1000
        assert "send" not in vars(ctx)  # the class's own send, nothing bound over it

    def test_one_route_per_distinct_key_per_window(self):
        """300 distinct keys overflow a 4 KiB buffer, so windows keep
        leaving; the partitioner is asked once per distinct key per window,
        a window ending whenever a chunk leaves."""
        partitioner = CountingPartitioner()
        ctx, _ = o_context(2, partitioner=partitioner, combiner=sum_combiner,
                           send_buffer_bytes=4096)
        rng = random.Random(0)
        windows = set()
        for _ in range(10_000):
            key = f"key{rng.randrange(300):03d}"
            windows.add((ctx.counters["o.chunks_sent"], key))
            ctx.send(key, 1)
        ctx.close()
        assert ctx.counters["o.chunks_sent"] > 5
        assert partitioner.calls == len(windows) < 10_000

    def test_bench_shaped_wordcount_budget(self):
        """O rank 0 of 2 on the benchmark's seed-1 WordCount input: its
        distinct words fit one window per A task, so the partitioner is
        asked once per record sent — the floor — of 108 005 emitted."""
        lines = TextGenerator(seed=1).lines(24_000)
        partitioner = CountingPartitioner()
        ctx, _ = o_context(2, num_o=2, partitioner=partitioner,
                           combiner=sum_combiner)
        for line in lines[0::2]:
            for word in line.split():
                ctx.send(word, 1)
        ctx.close()
        assert ctx.counters["o.records_emitted"] == 108_005
        assert partitioner.calls == ctx.counters["o.records_sent"] == 8_189
        assert ctx.counters["o.chunks_sent"] == 2

    def test_memo_lives_one_buffer_window(self):
        ctx, comm = o_context(2, combiner=sum_combiner, send_buffer_bytes=256)
        sizes_at_send = []
        comm.on_send = lambda: sizes_at_send.append(len(ctx._routes))
        ctx.send("word", 1)
        assert ctx._routes == {"word": hash_partitioner("word", 2)}
        for i in range(500):
            ctx.send(f"key{i % 20}", 1)
        assert ctx.counters["o.chunks_sent"] > 5
        assert set(sizes_at_send) == {0}  # emptied before each chunk leaves
        ctx.close()
        assert ctx._routes == {}
        with pytest.raises(CommunicatorError):
            ctx.send("word", 1)

    def test_memo_emptied_when_the_final_flush_never_reaches_the_wire(self):
        def failing_combiner(key, values):
            raise ValueError("combiner failed")

        ctx, comm = o_context(1, combiner=failing_combiner)
        ctx.send("word", 1)
        ctx.send("word", 2)
        with pytest.raises(ValueError, match="combiner failed"):
            ctx.close()
        assert ctx._routes == {}
        assert len(comm.sent) == 1  # the EOF still flowed

    def test_out_of_range_route_is_never_remembered(self):
        ctx, _ = o_context(2, partitioner=lambda key, n: n, combiner=sum_combiner)
        for _ in range(2):
            with pytest.raises(DataMPIError, match="partitioner returned 2"):
                ctx.send("word", 1)
        assert ctx._routes == {}

    @settings(max_examples=150, deadline=None)
    @given(
        pool=st.sampled_from(ROUTE_POOLS),
        picks=st.lists(st.integers(min_value=0, max_value=7), max_size=80),
        num_a=st.integers(min_value=1, max_value=4),
        threshold=st.integers(min_value=1, max_value=400),
        sort=st.booleans(),
    )
    @example(pool=ROUTE_POOLS[0], picks=[0, 2, 1, 0, 2], num_a=3, threshold=400,
             sort=True)
    def test_same_wire_as_routing_every_record(self, pool, picks, num_a, threshold, sort):
        """Chunks, EOFs and counters equal a memo-free context's.  ``1``
        and ``1.0`` (picks 0 and 2) are equal keys that hash to different
        A tasks of three: a memo keyed by ``==`` alone fails here."""
        outcomes = []
        for cls in (OContext, ReferenceOContext):
            comm = RecordingComm(size=1 + num_a)
            ctx = cls(BipartiteComm(comm, 1, num_a), partitioner=hash_partitioner,
                      sort=sort, combiner=lambda key, values: list(values),
                      send_buffer_bytes=threshold)
            for i, pick in enumerate(picks):
                ctx.send(pool[pick % len(pool)], i)
            ctx.close()
            outcomes.append((comm.sent, ctx.counters))
        assert outcomes[0] == outcomes[1]


class TestSendPathStaysFlat:
    """Python call events from ``OContext.send`` through the buffer and its
    flushes, pinned at what they were measured to be: a per-record helper
    that comes back costs one more call per send and trips the budget.

    The tuple path makes 9 calls a send: ``send``, the partitioner with
    ``encode_record`` and its two ``_encode_field``, ``add``, and
    ``record_size`` with its two ``_field_size``.  The combiner path makes
    2: ``_send_remembering`` and ``_add_grouped``; routing and charging a
    key happen once per distinct key per window, 8 calls each.  A chunk
    (flush, ship, encode, the sink) costs at most 14, the close 20.
    """

    N = 10_000

    @classmethod
    def _calls(cls, **kwargs):
        ctx, _ = o_context(2, **kwargs)
        keys = [f"key{i % 500:03d}" for i in range(cls.N)]

        def sends():
            for key in keys:
                ctx.send(key, 1)
            ctx.close()

        return _python_calls(sends), ctx.counters

    def test_tuple_path(self):
        calls, counters = self._calls(send_buffer_bytes=4096)
        assert counters["o.chunks_sent"] > 50
        assert calls <= 9 * self.N + 14 * counters["o.chunks_sent"] + 20

    def test_grouped_path(self):
        calls, counters = self._calls(combiner=sum_combiner)
        assert counters["o.records_sent"] == 500
        assert calls <= (2 * self.N + 8 * counters["o.records_sent"]
                         + 14 * counters["o.chunks_sent"] + 20)
