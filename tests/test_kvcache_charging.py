"""When the KV cache charges an entry's size, and that it charges the same.

A bounded cache sizes an entry at ``put``, because eviction needs the
number.  An unbounded one sizes it the first time something asks — a
hit, ``size_of`` or ``used_bytes`` — so the ``a.output`` pin an A rank
makes every superstep costs nothing while nothing reads it.  The
differential test below holds both kinds of cache to the eager class
they replaced: the same return values and counters for any sequence of
operations.
"""

from collections import OrderedDict
from typing import Any
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import DataMPIError
from repro.common.kv import record_size
from repro.datampi import A_OUTPUT_KEY, DataMPIConf, IterativeJob, KVCache
from repro.datampi.world import O_SPLITS_KEY
from repro.storage import kvcache


class EagerKVCache:
    """The cache as it was when every ``put`` charged its entry: the
    reference the lazy charge must agree with."""

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

    def put(self, key: Any, value: Any) -> bool:
        size = record_size(key, value)
        if self.capacity_bytes is not None and size > self.capacity_bytes:
            self.discard(key)
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
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return default
        self._entries.move_to_end(key)
        value, size = entry
        self.hits += 1
        self.hit_bytes += size
        return value

    def discard(self, key: Any) -> bool:
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self.used_bytes -= entry[1]
        return True

    def evict(self, key: Any) -> bool:
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

    def __iter__(self):
        return iter(self._entries)

    def size_of(self, key: Any) -> int | None:
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


# A handful of keys, so operations keep meeting entries that exist.
keys = st.sampled_from(["a", "b", "c", 7, ("a", 1)])
values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=12),
              st.binary(max_size=40)),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.tuples(children, children)),
    max_leaves=8,
)
operations = st.lists(st.one_of(
    st.tuples(st.just("put"), keys, values),
    st.tuples(st.sampled_from(["get", "discard", "evict", "size_of"]), keys),
    st.tuples(st.sampled_from(["used_bytes", "clear"])),
), max_size=30)


def apply(cache, operation):
    name, *args = operation
    if name == "used_bytes":
        return cache.used_bytes
    return getattr(cache, name)(*args)


class TestLazyChargeMatchesEager:
    @given(capacity=st.one_of(st.none(), st.integers(min_value=1, max_value=300)),
           steps=operations)
    @settings(max_examples=200)
    def test_same_answers_and_counters(self, capacity, steps):
        cache, eager = KVCache(capacity), EagerKVCache(capacity)
        for operation in steps:
            assert apply(cache, operation) == apply(eager, operation), operation
            assert cache.counters == eager.counters
            assert list(cache) == list(eager)
        assert cache.used_bytes == eager.used_bytes

    def test_an_unbounded_put_sizes_nothing(self):
        cache = KVCache()
        with mock.patch.object(kvcache, "record_size") as sizing:
            cache.put("k", [1, 2, 3])
            cache.put("k", [4])
            cache.discard("k")
            cache.put("k", [5])
            cache.clear()
        sizing.assert_not_called()

    def test_an_entry_is_sized_once(self):
        cache = KVCache()
        cache.put("k", [1, 2, 3])
        with mock.patch.object(kvcache, "record_size",
                               wraps=record_size) as sizing:
            cache.get("k")
            cache.size_of("k")
            cache.used_bytes
            cache.get("k")
        assert sizing.call_count == 1
        assert cache.hit_bytes == 2 * record_size("k", [1, 2, 3])

    def test_a_value_mutated_after_put_is_charged_as_first_sized(self):
        value = [1]
        unbounded, bounded = KVCache(), KVCache(1 << 10)
        unbounded.put("k", value)
        bounded.put("k", value)
        value.append(2)
        assert unbounded.size_of("k") == record_size("k", [1, 2])
        assert bounded.size_of("k") == record_size("k", [1])


def counting_o(ctx, split, state):
    for item in split:
        ctx.send(item % 2, item + state)


def summing_a(ctx):
    return [(key, sum(values)) for key, values in ctx.grouped()]


class TestThePinIsSizedWhenRead:
    SPLITS = [[1, 2, 3], [4, 5, 6, 7]]

    def test_an_unread_pin_is_never_sized(self):
        job = IterativeJob(
            counting_o, summing_a,
            lambda state, _merged, _iteration: (state, False),
            DataMPIConf(num_o=2, num_a=2, mode="iteration", transport="inline"),
            max_iterations=3,
        )
        with mock.patch.object(kvcache, "record_size",
                               wraps=record_size) as sizing:
            result = job.run(self.SPLITS, 0)
        assert result.iterations == 3
        # Each O rank's splits, sized at their first hit; no A output.
        assert [call.args[0] for call in sizing.call_args_list] == \
            [O_SPLITS_KEY, O_SPLITS_KEY]

    def test_a_read_pin_charges_its_record_size(self):
        seen = []

        def a_task(ctx):
            before = ctx.cache.hit_bytes
            previous = ctx.cache.get(A_OUTPUT_KEY)
            seen.append((previous, ctx.cache.hit_bytes - before))
            return [("n", ctx.superstep), ("words", ["a", "b" * ctx.superstep])]

        job = IterativeJob(
            counting_o, a_task,
            lambda state, _merged, iteration: (state, iteration >= 2),
            DataMPIConf(num_o=1, num_a=1, mode="iteration", transport="inline"),
        )
        result = job.run([[0, 1, 2]], 0)
        first_output = [("n", 1), ("words", ["a", "b"])]
        assert seen == [
            (None, 0),
            (first_output, record_size(A_OUTPUT_KEY, first_output)),
        ]
        # The round's counter adds the O rank's hit on its splits.
        assert result.per_iteration[1]["cache.hit_bytes"] == \
            record_size(O_SPLITS_KEY, [[0, 1, 2]]) + \
            record_size(A_OUTPUT_KEY, first_output)
