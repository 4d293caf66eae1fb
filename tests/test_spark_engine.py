"""Tests for the functional Spark engine: RDDs, lineage, memory, stages."""

import pytest

from repro.common import OutOfMemoryError, ReproError
from repro.spark import (
    MemoryManager,
    ShuffledRDD,
    SparkContext,
    build_stages,
    estimate_bytes,
    num_stages,
)


def make_ctx(**kwargs):
    kwargs.setdefault("default_parallelism", 3)
    return SparkContext(**kwargs)


class TestNarrowTransformations:
    def test_map_collect(self):
        rdd = make_ctx().parallelize(range(10)).map(lambda x: x * 2)
        assert sorted(rdd.collect()) == [x * 2 for x in range(10)]

    def test_flat_map(self):
        rdd = make_ctx().parallelize(["a b", "c"]).flat_map(str.split)
        assert sorted(rdd.collect()) == ["a", "b", "c"]

    def test_filter(self):
        rdd = make_ctx().parallelize(range(20)).filter(lambda x: x % 5 == 0)
        assert sorted(rdd.collect()) == [0, 5, 10, 15]

    def test_map_values_and_keys(self):
        pairs = make_ctx().parallelize([("a", 1), ("b", 2)], 2)
        assert sorted(pairs.map_values(lambda v: v * 10).collect()) == [("a", 10), ("b", 20)]
        assert sorted(pairs.keys().collect()) == ["a", "b"]
        assert sorted(pairs.values().collect()) == [1, 2]

    def test_union(self):
        ctx = make_ctx()
        left = ctx.parallelize([1, 2], 2)
        right = ctx.parallelize([3], 1)
        union = left.union(right)
        assert union.num_partitions == 3
        assert sorted(union.collect()) == [1, 2, 3]

    def test_sample_deterministic(self):
        rdd = make_ctx().parallelize(range(1000), 4)
        a = rdd.sample(0.1, seed=42).collect()
        b = rdd.sample(0.1, seed=42).collect()
        assert a == b
        assert 40 < len(a) < 200

    def test_sample_fraction_validated(self):
        with pytest.raises(ReproError):
            make_ctx().parallelize([1]).sample(1.5)

    def test_lazy_until_action(self):
        calls = []

        def probe(x):
            calls.append(x)
            return x

        rdd = make_ctx().parallelize(range(5)).map(probe)
        assert calls == []  # nothing computed yet
        rdd.collect()
        assert sorted(calls) == list(range(5))


class TestActions:
    def test_count(self):
        assert make_ctx().parallelize(range(17)).count() == 17

    def test_take(self):
        assert len(make_ctx().parallelize(range(100), 4).take(7)) == 7

    def test_reduce(self):
        assert make_ctx().parallelize(range(1, 5)).reduce(lambda a, b: a * b) == 24

    def test_reduce_empty_raises(self):
        with pytest.raises(ReproError):
            make_ctx().parallelize([]).reduce(lambda a, b: a + b)

    def test_count_by_key(self):
        rdd = make_ctx().parallelize([("a", 1), ("a", 2), ("b", 3)], 2)
        assert rdd.count_by_key() == {"a": 2, "b": 1}


class TestWideTransformations:
    def test_reduce_by_key(self):
        rdd = make_ctx().parallelize(
            [("a", 1), ("b", 2), ("a", 3), ("b", 4), ("a", 5)], 3
        ).reduce_by_key(lambda a, b: a + b)
        assert dict(rdd.collect()) == {"a": 9, "b": 6}

    def test_group_by_key(self):
        rdd = make_ctx().parallelize([("a", 1), ("a", 2), ("b", 3)], 2).group_by_key(2)
        grouped = {key: sorted(values) for key, values in rdd.collect()}
        assert grouped == {"a": [1, 2], "b": [3]}

    def test_sort_by_key_total_order(self):
        import random
        rng = random.Random(5)
        data = [(rng.randint(0, 10_000), i) for i in range(500)]
        rdd = make_ctx().parallelize(data, 4).sort_by_key(4)
        collected = rdd.collect()
        assert [k for k, _ in collected] == sorted(k for k, _ in data)

    def test_distinct(self):
        rdd = make_ctx().parallelize([1, 2, 2, 3, 3, 3], 3).distinct()
        assert sorted(rdd.collect()) == [1, 2, 3]

    def test_wordcount_pipeline(self):
        lines = ["spark is fast", "spark is in memory", "hadoop is disk"]
        counts = (
            make_ctx().text_file(lines, 2)
            .flat_map(str.split)
            .map(lambda word: (word, 1))
            .reduce_by_key(lambda a, b: a + b)
        )
        assert dict(counts.collect())["is"] == 3


class TestCachingAndLineage:
    def test_cache_avoids_recompute(self):
        calls = []

        def probe(x):
            calls.append(x)
            return x

        rdd = make_ctx().parallelize(range(6), 2).map(probe).cache()
        rdd.collect()
        first = len(calls)
        rdd.collect()
        assert len(calls) == first  # served from cache

    def test_lineage_recomputes_dropped_block(self):
        ctx = make_ctx()
        calls = []

        def probe(x):
            calls.append(x)
            return x * 2

        rdd = ctx.parallelize(range(6), 2).map(probe).cache()
        before = sorted(rdd.collect())
        # Simulate losing one executor's cached block.
        dropped = ctx.memory.drop_block(rdd._block_id(0))
        assert dropped
        calls.clear()
        after = sorted(rdd.collect())
        assert after == before
        assert calls  # partition 0 was recomputed through lineage

    def test_unpersist_frees_memory(self):
        ctx = make_ctx()
        rdd = ctx.parallelize(range(1000), 2).cache()
        rdd.collect()
        assert ctx.memory.cached_bytes > 0
        rdd.unpersist()
        assert ctx.memory.cached_bytes == 0

    def test_lineage_names(self):
        rdd = make_ctx().parallelize([1]).map(lambda x: x).filter(bool)
        names = rdd.lineage()
        assert names[0].endswith(".filter")
        assert names[-1] == "parallelize"


class TestMemoryManager:
    def test_estimate_scales_with_expansion(self):
        records = [("key", 1)] * 10
        assert estimate_bytes(records, 4.0) == 4 * estimate_bytes(records, 1.0)

    def test_store_and_get(self):
        memory = MemoryManager(10_000)
        assert memory.store_block("b1", [("a", 1)])
        assert memory.get_block("b1") == [("a", 1)]
        assert memory.get_block("nope") is None

    def test_lru_eviction(self):
        records = [("k", i) for i in range(10)]
        block_bytes = estimate_bytes(records)
        memory = MemoryManager(int(block_bytes * 2.5))
        memory.store_block("a", records)
        memory.store_block("b", records)
        memory.get_block("a")  # touch a so b is LRU
        memory.store_block("c", records)
        assert memory.get_block("b") is None
        assert memory.get_block("a") is not None
        assert memory.evictions == 1

    def test_oversized_block_is_dropped_not_fatal(self):
        memory = MemoryManager(100)
        assert not memory.store_block("big", [("x" * 100, i) for i in range(100)])

    def test_transient_charge_oom(self):
        memory = MemoryManager(1000)
        memory.charge(800)
        with pytest.raises(OutOfMemoryError) as info:
            memory.charge(300)
        assert info.value.required == 300

    def test_charge_evicts_cached_blocks_first(self):
        records = [("k", i) for i in range(10)]
        memory = MemoryManager(estimate_bytes(records) + 100)
        memory.store_block("a", records)
        memory.charge(estimate_bytes(records) + 50)  # must evict "a"
        assert memory.get_block("a") is None

    def test_release_validation(self):
        memory = MemoryManager(100)
        with pytest.raises(ReproError):
            memory.release(1)


class TestSparkOOMScenarios:
    """The paper's Section 4.3 failure mode, at functional scale."""

    def test_sort_oom_on_small_heap(self):
        ctx = SparkContext(default_parallelism=4, memory_capacity=2_000)
        data = [(i, "x" * 20) for i in range(2000)]
        rdd = ctx.parallelize(data, 4).sort_by_key(4)
        with pytest.raises(OutOfMemoryError):
            rdd.collect()

    def test_sort_succeeds_with_enough_heap(self):
        ctx = SparkContext(default_parallelism=4, memory_capacity=50 * 1024 * 1024)
        data = [(i * 7919 % 1000, i) for i in range(1000)]
        rdd = ctx.parallelize(data, 4).sort_by_key(4)
        keys = [k for k, _ in rdd.collect()]
        assert keys == sorted(k for k, _ in data)

    def test_free_shuffle_releases_memory(self):
        ctx = SparkContext(default_parallelism=2, memory_capacity=50 * 1024 * 1024)
        rdd = ctx.parallelize([("a", 1)] * 100, 2).reduce_by_key(lambda a, b: a + b)
        rdd.collect()
        assert ctx.memory.transient_bytes > 0
        assert isinstance(rdd, ShuffledRDD)
        rdd.free_shuffle()
        assert ctx.memory.transient_bytes == 0


class TestStages:
    def test_narrow_job_is_one_stage(self):
        rdd = make_ctx().parallelize(range(4)).map(lambda x: x).filter(bool)
        assert num_stages(rdd) == 1

    def test_shuffle_adds_stage(self):
        rdd = (
            make_ctx().parallelize(["a b"]).flat_map(str.split)
            .map(lambda w: (w, 1)).reduce_by_key(lambda a, b: a + b)
        )
        stages = build_stages(rdd)
        assert len(stages) == 2
        assert stages[0].stage_id == 0
        # Stage 0 is the load/map stage; the shuffle stage depends on it.
        assert stages[1].parent_stage_ids == [0]

    def test_two_shuffles_three_stages(self):
        rdd = (
            make_ctx().parallelize([("a", 1)], 2)
            .reduce_by_key(lambda a, b: a + b)
            .map(lambda kv: (kv[1], kv[0]))
            .sort_by_key(2)
        )
        assert num_stages(rdd) == 3

    def test_stage0_contains_leaf(self):
        rdd = make_ctx().parallelize([("a", 1)], 2).group_by_key(2)
        stages = build_stages(rdd)
        assert "parallelize" in stages[0].rdd_names


class TestShuffleCounters:
    """Exact byte counters (the experiment matrix's spark-model bytes)."""

    def test_fresh_context_starts_at_zero(self):
        ctx = make_ctx()
        assert ctx.counters == {"shuffle_bytes": 0, "shuffles": 0}

    def test_reduce_by_key_counts_post_combine_records(self):
        from repro.common.kv import record_size

        ctx = make_ctx()
        pairs = [("a", 1), ("a", 1), ("b", 1)]
        rdd = ctx.parallelize(pairs, 2).reduce_by_key(lambda x, y: x + y, 2)
        combined = dict(rdd.collect())
        assert combined == {"a": 2, "b": 1}
        assert ctx.counters["shuffles"] == 1
        # map-side combine merged the two 'a' records before the shuffle
        assert ctx.counters["shuffle_bytes"] == sum(
            record_size(key, value) for key, value in combined.items()
        )

    def test_counters_accumulate_across_shuffles(self):
        ctx = make_ctx()
        rdd = ctx.parallelize([("b", 1), ("a", 2)], 2)
        rdd.reduce_by_key(lambda x, y: x + y, 2).collect()
        after_first = ctx.counters["shuffle_bytes"]
        rdd.sort_by_key(2).collect()
        assert ctx.counters["shuffles"] == 2
        assert ctx.counters["shuffle_bytes"] > after_first

    def test_same_record_sizing_as_hadoop(self):
        """Both engines charge :func:`record_size` per shuffled record,
        so cross-engine bytes ratios compare like with like.  The totals
        differ only where the semantics do: this engine's all-at-once
        shuffle combines across *all* partitions, Hadoop's combiner only
        within each map task, so Spark's total is never larger."""
        from repro.workloads import RunParams, run_workload

        lines = ["b a a", "c b a"]
        spark, hadoop = (
            run_workload("wordcount", engine, lines, RunParams(parallelism=2))
            for engine in ("spark", "hadoop")
        )
        assert spark.output == hadoop.output
        assert 0 < spark.bytes_moved <= hadoop.bytes_moved
