"""Hypothesis property tests for partitioning and the O-side send buffer.

Invariants under test:

* every key lands on exactly one A rank, always inside ``[0, num_a)``,
  and deterministically (same key, same destination);
* the range partitioner's destinations are monotone in the key, and the
  partition intervals cover the whole key space;
* ``PartitionedSendBuffer`` delivers every record exactly once to the
  destination it was added for, preserving per-destination FIFO order of
  flushes (chunk N's records were all added before chunk N+1's);
* the tuple path (``sort=False``, no combiner, or after an unhashable
  key) sends exactly the chunks, and counts exactly the records, of the
  plain sort-then-scan buffer kept below as the reference;
* the grouped path (``sort`` + combiner) folds repeats in place: what it
  ships reduces to what was added, its charge stays under the threshold,
  and distinct keys that fit ship once per destination;
* a send that fails once and is retried counts every record once;
* every combiner an in-repo DataMPI workload configures may be
  re-applied to its own output: folding a prefix first changes nothing,
  bit for bit.
"""

import pickle
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.kv import decode_stream, encode_stream, record_size
from repro.datampi.buffers import PartitionedSendBuffer
from repro.datampi.partition import (
    RangePartitioner,
    hash_partitioner,
    validate_partition,
)
from repro.workloads.grep import grep_datampi_job
from repro.workloads.kmeans import _combine_partials
from repro.workloads.naivebayes import _sum_combiner
from repro.workloads.streaming import _streaming_count_job
from repro.workloads.wordcount import wordcount_datampi_job

keys = st.one_of(
    st.text(max_size=24),
    st.integers(min_value=-(10 ** 9), max_value=10 ** 9),
    st.binary(max_size=24),
    st.tuples(st.text(max_size=8), st.integers(min_value=0, max_value=1000)),
)


class TestHashPartitioner:
    @given(key=keys, num_a=st.integers(min_value=1, max_value=64))
    def test_lands_on_exactly_one_valid_rank(self, key, num_a):
        destination = hash_partitioner(key, num_a)
        assert 0 <= destination < num_a
        assert validate_partition(destination, num_a) == destination

    @given(key=keys, num_a=st.integers(min_value=1, max_value=64))
    def test_deterministic(self, key, num_a):
        assert hash_partitioner(key, num_a) == hash_partitioner(key, num_a)

    @settings(max_examples=25)
    @given(
        keys_list=st.lists(st.text(max_size=12), min_size=1, max_size=200),
        num_a=st.integers(min_value=2, max_value=8),
    )
    def test_partitions_cover_range(self, keys_list, num_a):
        """Each key maps into [0, num_a); the image never escapes it."""
        destinations = {hash_partitioner(key, num_a) for key in keys_list}
        assert destinations <= set(range(num_a))


class TestRangePartitioner:
    @given(
        sample=st.lists(st.integers(min_value=0, max_value=10 ** 6),
                        min_size=1, max_size=100),
        num_a=st.integers(min_value=1, max_value=16),
        key=st.integers(min_value=-10, max_value=10 ** 6 + 10),
    )
    def test_valid_and_deterministic(self, sample, num_a, key):
        partitioner = RangePartitioner(sample, num_a)
        destination = partitioner(key, num_a)
        assert 0 <= destination < num_a
        assert partitioner(key, num_a) == destination

    @given(
        sample=st.lists(st.integers(min_value=0, max_value=1000),
                        min_size=2, max_size=50),
        num_a=st.integers(min_value=2, max_value=8),
        a=st.integers(min_value=-5, max_value=1005),
        b=st.integers(min_value=-5, max_value=1005),
    )
    def test_monotone_in_key(self, sample, num_a, a, b):
        """key order implies destination order — the property that makes
        concatenating A outputs in rank order a total sort."""
        partitioner = RangePartitioner(sample, num_a)
        low, high = min(a, b), max(a, b)
        assert partitioner(low, num_a) <= partitioner(high, num_a)


# Records: (destination-selector key, value); destination = hash of key.
records_strategy = st.lists(
    st.tuples(st.text(max_size=12), st.integers(min_value=0, max_value=100)),
    max_size=300,
)


class TestPartitionedSendBuffer:
    @settings(max_examples=40)
    @given(
        records=records_strategy,
        num_destinations=st.integers(min_value=1, max_value=6),
        threshold=st.integers(min_value=1, max_value=512),
    )
    def test_exactly_once_delivery_and_fifo(self, records, num_destinations, threshold):
        sent: dict[int, list[bytes]] = {d: [] for d in range(num_destinations)}

        buffer = PartitionedSendBuffer(
            num_destinations,
            lambda dest, payload: sent[dest].append(payload),
            sort=False,
            threshold_bytes=threshold,
        )
        expected: dict[int, list[tuple[str, int]]] = {
            d: [] for d in range(num_destinations)
        }
        for key, value in records:
            destination = hash_partitioner(key, num_destinations)
            buffer.add(destination, key, value)
            expected[destination].append((key, value))
        buffer.flush_all()

        for destination in range(num_destinations):
            delivered = [
                (kv.key, kv.value)
                for chunk in sent[destination]
                for kv in decode_stream(chunk)
            ]
            # Exactly once, and (sort=False) in per-destination FIFO order:
            # concatenating flushed chunks reproduces insertion order.
            assert delivered == expected[destination]

    @settings(max_examples=40)
    @given(
        records=records_strategy,
        num_destinations=st.integers(min_value=1, max_value=6),
        threshold=st.integers(min_value=1, max_value=512),
    )
    def test_sorted_chunks_preserve_multiset(self, records, num_destinations, threshold):
        sent: dict[int, list[bytes]] = {d: [] for d in range(num_destinations)}
        buffer = PartitionedSendBuffer(
            num_destinations,
            lambda dest, payload: sent[dest].append(payload),
            sort=True,
            threshold_bytes=threshold,
        )
        expected: dict[int, list[tuple[str, int]]] = {
            d: [] for d in range(num_destinations)
        }
        for key, value in records:
            destination = hash_partitioner(key, num_destinations)
            buffer.add(destination, key, value)
            expected[destination].append((key, value))
        buffer.flush_all()

        for destination in range(num_destinations):
            chunks = [
                [(kv.key, kv.value) for kv in decode_stream(chunk)]
                for chunk in sent[destination]
            ]
            # Each flushed chunk is internally key-sorted...
            for chunk in chunks:
                assert chunk == sorted(chunk, key=lambda kv: kv[0])
            # ...and nothing is lost or duplicated across chunks.
            delivered = sorted(kv for chunk in chunks for kv in chunk)
            assert delivered == sorted(expected[destination])

    @given(
        records=records_strategy,
        threshold=st.integers(min_value=1, max_value=256),
    )
    def test_counters_consistent(self, records, threshold):
        chunks: list[bytes] = []
        buffer = PartitionedSendBuffer(
            3, lambda dest, payload: chunks.append(payload),
            sort=False, threshold_bytes=threshold,
        )
        for key, value in records:
            buffer.add(hash_partitioner(key, 3), key, value)
        buffer.flush_all()
        assert buffer.records_buffered == len(records)
        assert buffer.records_sent == len(records)
        assert buffer.chunks_sent == len(chunks)
        assert buffer.bytes_sent == sum(len(chunk) for chunk in chunks)
        assert buffer.buffered_bytes == 0


class ReferenceSendBuffer:
    """The tuple path written out plainly — tuple records charged their
    ``record_size``, a stable sort, a scan for runs of equal keys — kept
    as the reference the real one's tuple path must match chunk for chunk."""

    def __init__(self, num_destinations, send, *, sort, combiner, threshold_bytes):
        self._send = send
        self._sort = sort
        self._combiner = combiner
        self._threshold = threshold_bytes
        self._records = [[] for _ in range(num_destinations)]
        self._bytes = [0] * num_destinations
        self.records_buffered = 0
        self.records_sent = 0
        self.bytes_sent = 0
        self.chunks_sent = 0
        self.records_combined_away = 0

    def add(self, destination, key, value):
        self._records[destination].append((key, value))
        self._bytes[destination] += record_size(key, value)
        self.records_buffered += 1
        if self._bytes[destination] >= self._threshold:
            self.flush(destination)

    def flush(self, destination):
        records = self._records[destination]
        if not records:
            return
        if self._sort:
            records.sort(key=lambda record: record[0])
        if self._combiner is not None:
            records = self._combine(records)
        payload = encode_stream(records)
        self._send(destination, payload)
        self.records_sent += len(records)
        self.bytes_sent += len(payload)
        self.chunks_sent += 1
        self._records[destination] = []
        self._bytes[destination] = 0

    def _combine(self, records):
        combined = []
        run_key = None
        run_values = []
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

    def _apply(self, key, values):
        return values[0] if len(values) == 1 else self._combiner(key, values)

    def flush_all(self):
        for destination in range(len(self._records)):
            self.flush(destination)

    @property
    def buffered_bytes(self):
        return sum(self._bytes)


def key_pool(elements, max_size=6):
    return st.lists(elements, min_size=1, max_size=max_size)


# One pool per stream, each of mutually comparable keys (a flush sorts
# them), small so that most records repeat a key already buffered.
# ``mixed_number_keys`` and ``tuple_keys`` hold keys that are equal yet
# encode differently; a list key cannot be hashed at all, and in
# ``partly_unhashable_keys`` the first such key may come mid-stream.
mixed_number_keys = st.sampled_from([1, True, 1.0, 0, False, 0.0, -0.0, 2])
tuple_keys = st.tuples(
    st.sampled_from(["a", "b"]), st.sampled_from([1, 1.0, True, 2])
)
partly_unhashable_keys = st.sampled_from(
    [("a", 1), ("a", 2), ("b", [0]), ("b", [1]), ("c", 3)]
)
hashable_key_pools = st.one_of(
    key_pool(st.text(max_size=6)),
    key_pool(st.integers(min_value=-5, max_value=5)),
    key_pool(st.binary(max_size=4)),
    key_pool(st.tuples(st.text(max_size=3), st.integers(min_value=0, max_value=3))),
    key_pool(mixed_number_keys, max_size=8),
    key_pool(tuple_keys),
    key_pool(st.floats(allow_nan=False)),
)
key_pools = st.one_of(
    hashable_key_pools,
    key_pool(st.lists(st.integers(min_value=0, max_value=2), max_size=2)),
)


def concat(key, values):
    """Order-visible and safe to re-apply: each value is a tuple, so a
    fold's output is one more tuple to concatenate."""
    return tuple(chain.from_iterable(values))


#: Combiners a buffer may run more than once per key, each with what it
#: makes of a stream's ``int`` value.
COMBINERS = {
    "sum": (lambda key, values: sum(values), lambda value: value),
    "concat": (concat, lambda value: (value,)),
}


@st.composite
def duplicate_heavy_streams(draw, pools=key_pools):
    """``(num_destinations, [(destination, key, value), ...])``."""
    pool = draw(pools)
    num_destinations = draw(st.integers(min_value=1, max_value=4))
    # A drawn length: left to itself ``st.lists`` rarely gets past ten.
    length = draw(st.integers(min_value=0, max_value=150))
    records = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=num_destinations - 1),
            st.sampled_from(pool),
            st.integers(min_value=-100, max_value=100),
        ),
        min_size=length, max_size=length,
    ))
    return num_destinations, records


COUNTERS = ("records_buffered", "records_sent", "bytes_sent", "chunks_sent",
            "records_combined_away", "buffered_bytes")


def buffer_for(num_destinations, records, *, combiner, threshold, sort=True,
               cls=PartitionedSendBuffer):
    """A buffer of ``cls`` under the named combiner (or none), the stream's
    values as that combiner takes them, and the list its chunks go to."""
    combine, lift = COMBINERS[combiner] if combiner else (None, lambda value: value)
    sink: list[tuple[int, bytes]] = []
    buffer = cls(num_destinations, lambda dest, payload: sink.append((dest, payload)),
                 sort=sort, combiner=combine, threshold_bytes=threshold)
    return buffer, [(dest, key, lift(value)) for dest, key, value in records], sink


def run_both(num_destinations, records, *, combiner, threshold, sort=True):
    """Feed one stream to the real buffer and to the reference; returns
    ``(sink, counters)`` of each, counters read before and after
    ``flush_all``."""
    outcomes = []
    for cls in (PartitionedSendBuffer, ReferenceSendBuffer):
        buffer, stream, sink = buffer_for(num_destinations, records, combiner=combiner,
                                          threshold=threshold, sort=sort, cls=cls)
        for destination, key, value in stream:
            buffer.add(destination, key, value)
        before = [getattr(buffer, name) for name in COUNTERS]
        buffer.flush_all()
        outcomes.append((sink, before, [getattr(buffer, name) for name in COUNTERS]))
    return outcomes


def reduced(combine, pairs):
    """``[(key, combine(key, values))]`` per group of ``==`` keys, values in
    order, keys in first-seen order (a scan: list keys cannot be hashed)."""
    groups: list[tuple[object, list]] = []
    for key, value in pairs:
        for seen, values in groups:
            if seen == key:
                values.append(value)
                break
        else:
            groups.append((key, [value]))
    return [(key, combine(key, values)) for key, values in groups]


def shipped(sink, destination):
    return [(kv.key, kv.value) for dest, payload in sink if dest == destination
            for kv in decode_stream(payload)]


class TestTuplePathUnchanged:
    """``sort=False``, no combiner, or a buffer an unhashable key moved off
    the grouped path: byte for byte the reference's ``(destination,
    payload)`` sequence — flush boundaries, key objects, value order — and
    its counters, mid-stream and at the end."""

    @settings(max_examples=200, deadline=None)
    @given(
        stream=duplicate_heavy_streams(),
        threshold=st.integers(min_value=1, max_value=1000),
        path=st.sampled_from([(False, "sum"), (False, "concat"), (False, None),
                              (True, None)]),
    )
    def test_same_chunks_and_counters(self, stream, threshold, path):
        sort, combiner = path
        num_destinations, records = stream
        new, reference = run_both(num_destinations, records, combiner=combiner,
                                  threshold=threshold, sort=sort)
        assert new == reference

    @settings(max_examples=100, deadline=None)
    @given(
        stream=duplicate_heavy_streams(key_pool(partly_unhashable_keys)),
        threshold=st.integers(min_value=1, max_value=1000),
        combiner=st.sampled_from(sorted(COMBINERS)),
    )
    def test_same_after_an_unhashable_key(self, stream, threshold, combiner):
        num_destinations, records = stream
        records = [(0, ("b", [0]), 0), *records]  # on the tuple path from the start
        new, reference = run_both(num_destinations, records, combiner=combiner,
                                  threshold=threshold)
        assert new == reference

    def test_list_key_after_other_destination_grouped(self):
        """An unhashable key ends grouping for the whole buffer mid-stream;
        what the other destination's table already held is not lost, and a
        window that never folded ships what the tuple path would."""
        records = [
            (0, "b", 1), (0, "a", 2), (0, "b", 3),  # grouped in table 0
            (1, [2], 4),  # unhashable: back to tuples, both destinations
            (1, [1], 5), (1, [2], 6), (0, "a", 7), (0, "b", 8),
        ]
        new, reference = run_both(2, records, combiner="concat", threshold=10 ** 6)
        assert new == reference
        sink = new[0]
        assert [(dest, [tuple(kv) for kv in decode_stream(payload)])
                for dest, payload in sink] == [
            (0, [("a", (2, 7)), ("b", (1, 3, 8))]),
            (1, [([1], (5,)), ([2], (4, 6))]),
        ]
        assert new[2][COUNTERS.index("records_combined_away")] == 4


class TestGroupingFoldsInPlace:
    """The grouped path (``sort`` + combiner) charges a new key the record
    it will ship and a repeat its list slot, folds repeats in place when a
    destination reaches the threshold, and ships per distinct key."""

    @settings(max_examples=200, deadline=None)
    @given(
        stream=duplicate_heavy_streams(),
        threshold=st.integers(min_value=1, max_value=1000),
        combiner=st.sampled_from(sorted(COMBINERS)),
    )
    def test_shipped_values_reduce_to_every_value(self, stream, threshold, combiner):
        """Per destination and key, reducing what shipped equals reducing
        every value added, in arrival order — ``concat`` shows the order."""
        num_destinations, records = stream
        buffer, stream, sink = buffer_for(num_destinations, records,
                                          combiner=combiner, threshold=threshold)
        for destination, key, value in stream:
            buffer.add(destination, key, value)
        buffer.flush_all()
        combine = COMBINERS[combiner][0]
        for destination in range(num_destinations):
            added = reduced(combine, [(key, value) for dest, key, value in stream
                                      if dest == destination])
            sent = reduced(combine, shipped(sink, destination))
            assert len(sent) == len(added)
            for key, value in added:
                assert [v for k, v in sent if k == key] == [value]
        assert buffer.records_buffered == buffer.records_sent + buffer.records_combined_away
        assert buffer.chunks_sent == len(sink)
        assert buffer.bytes_sent == sum(len(payload) for _, payload in sink)
        assert buffer.buffered_bytes == 0

    @settings(max_examples=200, deadline=None)
    @given(
        stream=duplicate_heavy_streams(),
        threshold=st.integers(min_value=1, max_value=1000),
        combiner=st.sampled_from(sorted(COMBINERS)),
    )
    def test_charge_stays_below_threshold(self, stream, threshold, combiner):
        """After every ``add`` each grouped destination is charged less than
        the threshold, and exactly its keys' records plus an 8-byte slot per
        further value — so the threshold bounds what a table holds."""
        num_destinations, records = stream
        buffer, stream, _ = buffer_for(num_destinations, records,
                                       combiner=combiner, threshold=threshold)
        for destination, key, value in stream:
            buffer.add(destination, key, value)
            if not hasattr(buffer, "_tables"):
                break  # an unhashable key: the tuple path from here on
            for charge, table in zip(buffer._bytes, buffer._tables):
                assert charge < threshold
                assert charge == sum(record_size(key, values[0]) + 8 * (len(values) - 1)
                                     for key, values in table.items())

    @settings(max_examples=150, deadline=None)
    @given(
        stream=duplicate_heavy_streams(hashable_key_pools),
        headroom=st.integers(min_value=1, max_value=500),
    )
    def test_one_chunk_per_destination_while_distinct_keys_fit(self, stream, headroom):
        """Distinct keys under half the threshold: however many repeats
        arrive, each destination ships once, at close, each key once."""
        num_destinations, records = stream
        distinct = [dict.fromkeys(key for dest, key, _ in records if dest == destination)
                    for destination in range(num_destinations)]
        widest = max(sum(record_size(key, 0) for key in keys) for keys in distinct)
        buffer, stream, sink = buffer_for(num_destinations, records, combiner="sum",
                                          threshold=2 * widest + headroom)
        for destination, key, value in stream:
            buffer.add(destination, key, value)
        assert sink == []
        buffer.flush_all()
        assert [dest for dest, _ in sink] == [d for d, keys in enumerate(distinct) if keys]
        for dest, payload in sink:
            assert len(list(decode_stream(payload))) == len(distinct[dest])
        assert buffer.records_combined_away == len(records) - sum(map(len, distinct))


class TestRetriedFlushCountsOnce:
    @settings(max_examples=150, deadline=None)
    @given(
        stream=duplicate_heavy_streams(),
        threshold=st.integers(min_value=1, max_value=1000),
        combiner=st.sampled_from(sorted(COMBINERS)),
        sort=st.booleans(),
        failing_send=st.integers(min_value=0, max_value=8),
    )
    def test_every_record_sent_or_combined_away_once(self, stream, threshold, combiner,
                                                     sort, failing_send):
        """A send that raises once leaves its chunk to be flushed again;
        nothing it combined is counted until a send returns."""
        num_destinations, records = stream
        combine, lift = COMBINERS[combiner]
        sends = 0

        def send(destination, payload):
            nonlocal sends
            sends += 1
            if sends == failing_send + 1:
                raise ConnectionError("send failed once")

        buffer = PartitionedSendBuffer(num_destinations, send, sort=sort,
                                       combiner=combine, threshold_bytes=threshold)
        for destination, key, value in records:
            try:
                buffer.add(destination, key, lift(value))
            except ConnectionError:
                pass
        try:
            buffer.flush_all()
        except ConnectionError:
            buffer.flush_all()
        assert buffer.records_buffered == buffer.records_sent + buffer.records_combined_away
        assert buffer.buffered_bytes == 0




# -- combiner re-application ------------------------------------------------------

counts = st.lists(st.integers(min_value=-(10 ** 12), max_value=10 ** 12),
                  min_size=1, max_size=24)
# K-means partials: (weight sums by dimension, vector count).
partials = st.lists(
    st.tuples(st.dictionaries(st.integers(min_value=0, max_value=12),
                              st.floats(allow_nan=False, allow_infinity=False),
                              max_size=6),
              st.integers(min_value=1, max_value=10 ** 6)),
    min_size=1, max_size=16,
)

#: Every combiner the in-repo DataMPI workloads configure, with the values
#: it folds.  Naive Bayes' common and iteration jobs share theirs.
IN_REPO_COMBINERS = {
    "wordcount": (wordcount_datampi_job().conf.combiner, counts),
    "grep": (grep_datampi_job("a").conf.combiner, counts),
    "streaming": (_streaming_count_job(None, "stream", 1, None, None).conf.combiner,
                  counts),
    "naive_bayes": (_sum_combiner, counts),
    "kmeans": (_combine_partials, partials),
}


@pytest.mark.parametrize("name", sorted(IN_REPO_COMBINERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_combiner_reapplied_to_a_prefix_is_bit_identical(name, data):
    """``combiner(k, [combiner(k, vs[:i])] + vs[i:]) == combiner(k, vs)``:
    what lets the send buffer fold repeats in place and ship a folded
    value beside later ones.  Pickled, so a float that differs in its last
    bit fails."""
    combine, values = IN_REPO_COMBINERS[name]
    vs = data.draw(values)
    i = data.draw(st.integers(min_value=1, max_value=len(vs)))
    whole = combine("k", vs)
    assert pickle.dumps(combine("k", [combine("k", vs[:i])] + vs[i:])) == \
        pickle.dumps(whole)
