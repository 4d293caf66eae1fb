"""Warm rank-pool serving path: lifecycle, recycling, and equivalence.

The contract under test: a :class:`~repro.serving.WorldPool` forms one
O/A world, serves a stream of job submissions on it, and recycles the
world between jobs.  Three families of guarantees:

* **Equivalence** — outputs of a pooled submission are byte-identical
  to a cold per-job world running the *same* ``DataMPIJob``, on every
  transport backend (the pool is a latency optimisation, never a
  semantics change).
* **Recycling** — no per-job state survives a job boundary: splits
  pinned under ``o.splits`` by job N are never served as job N+1's
  input, and job N's ``a.output`` pin is not readable from job N+1's
  cache (the world-lifecycle leak this PR fixes).
* **Lifecycle** — registration is pre-start only, task failures fail
  their submission but not the pool, close() is idempotent and fails
  in-flight futures loudly.
"""

import os
import pickle
import statistics
import threading
import time

import pytest

from repro.bigdatabench import TextGenerator
from repro.common.errors import ConfigError, JobError, MPIError
from repro.mpi.transport import get_transport
from repro.datampi import (
    A_OUTPUT_KEY,
    O_SPLITS_KEY,
    ChunkStore,
    DataMPIConf,
    DataMPIJob,
    KVCache,
    StorageConfig,
    recycle_world,
)
from repro.serving import WorldPool
from repro.workloads import (
    split_round_robin,
    wordcount_datampi_job,
    wordcount_datampi_result,
    wordcount_reference,
)

ALL_BACKENDS = ("thread", "shm", "inline", "tcp")

LINES_A = TextGenerator(seed=7).lines(150)
LINES_B = TextGenerator(seed=21).lines(110)
PARALLELISM = 2


def stable_bytes(value) -> bytes:
    return pickle.dumps(value, protocol=4)


@pytest.fixture(params=ALL_BACKENDS)
def backend(request):
    return request.param


def _wordcount_pool(transport, parallelism=PARALLELISM) -> WorldPool:
    pool = WorldPool(num_o=parallelism, num_a=parallelism, transport=transport)
    pool.register("wordcount", wordcount_datampi_job(parallelism))
    return pool


class TestPooledColdEquivalence:
    """Same workload, warm WorldPool vs fresh mpi_run world: byte-identical."""

    def test_outputs_match_cold_world(self, backend):
        cold = wordcount_datampi_result(LINES_A, PARALLELISM,
                                        transport=backend)
        with _wordcount_pool(backend) as pool:
            pool.start()
            warm = pool.run_job("wordcount",
                                split_round_robin(LINES_A, PARALLELISM))
        assert stable_bytes(warm.outputs) == stable_bytes(cold.outputs)
        assert dict(warm.merged_outputs()) == wordcount_reference(LINES_A)

    def test_stream_of_jobs_each_matches_cold(self, backend):
        """Ten submissions on one world, every one equal to its cold twin."""
        inputs = [LINES_A, LINES_B] * 5
        with _wordcount_pool(backend) as pool:
            pool.start()
            warm = [
                pool.run_job("wordcount",
                             split_round_robin(lines, PARALLELISM))
                for lines in inputs
            ]
        for lines, result in zip(inputs, warm):
            cold = wordcount_datampi_result(lines, PARALLELISM,
                                            transport=backend)
            assert stable_bytes(result.outputs) == stable_bytes(cold.outputs)


class TestWorldRecycling:
    """The state-leak fix: nothing pinned by job N survives into job N+1."""

    def test_recycle_world_clears_pins_keeps_stat_counters(self):
        cache = KVCache(None)
        store = ChunkStore()
        cache.put(O_SPLITS_KEY, ["split-0", "split-1"])
        cache.put(A_OUTPUT_KEY, [("k", 1)])
        cache.get(O_SPLITS_KEY)  # a hit, so the counter is non-zero
        hits_before = cache.counters["cache.hits"]
        recycle_world(cache, store)
        assert cache.get(O_SPLITS_KEY) is None
        assert cache.get(A_OUTPUT_KEY) is None
        # Counters are cumulative measurements, not per-job state.
        assert cache.counters["cache.hits"] == hits_before

    def test_two_different_inputs_through_one_world(self, backend):
        """The regression the fix exists for: were the ``o.splits`` pins
        leaking, job 2 would be served job 1's cached input and produce
        job 1's counts."""
        with _wordcount_pool(backend) as pool:
            pool.start()
            first = pool.run_job("wordcount",
                                 split_round_robin(LINES_A, PARALLELISM))
            second = pool.run_job("wordcount",
                                  split_round_robin(LINES_B, PARALLELISM))
        assert dict(first.merged_outputs()) == wordcount_reference(LINES_A)
        assert dict(second.merged_outputs()) == wordcount_reference(LINES_B)
        cold = wordcount_datampi_result(LINES_B, PARALLELISM,
                                        transport=backend)
        assert stable_bytes(second.outputs) == stable_bytes(cold.outputs)

    def test_a_output_pin_does_not_cross_job_boundary(self, backend):
        """Job N's A output is pinned under ``a.output`` during the job;
        a recycled world must not expose it to job N+1's A task."""

        def o_task(ctx, split):
            for word in split:
                ctx.send(word, 1)

        def a_task(ctx):
            leaked = ctx.cache.get(A_OUTPUT_KEY) is not None
            return [("leaked", leaked)] + \
                [(key, sum(vals)) for key, vals in ctx.grouped()]

        job = DataMPIJob(o_task, a_task,
                         DataMPIConf(num_o=2, num_a=1, transport=backend))
        pool = WorldPool(num_o=2, num_a=1, transport=backend)
        pool.register("spy", job)
        with pool:
            pool.start()
            first = pool.run_job("spy", [["a", "b"], ["b"]])
            second = pool.run_job("spy", [["c"], ["c", "d"]])
        assert dict(first.merged_outputs())["leaked"] is False
        assert dict(second.merged_outputs())["leaked"] is False
        assert dict(second.merged_outputs())["c"] == 2

    def test_task_cached_state_does_not_cross_job_boundary(self, backend):
        """A recycled world clears more than the runtime's pins: what a
        task of job N put in ``ctx.cache`` is gone in job N+1 on both
        sides of the world."""

        def o_task(ctx, split):
            ctx.send("o-saw", ctx.cache.get("mine"))
            ctx.cache.put("mine", split)

        def a_task(ctx):
            mine = ctx.cache.get("mine")
            ctx.cache.put("mine", "job state")
            return [("a-saw", mine)] + \
                [(key, list(vals)) for key, vals in ctx.grouped()]

        job = DataMPIJob(o_task, a_task,
                         DataMPIConf(num_o=2, num_a=1, transport=backend))
        pool = WorldPool(num_o=2, num_a=1, transport=backend)
        pool.register("spy", job)
        with pool:
            pool.start()
            results = [pool.run_job("spy", [["a"], ["b"]]) for _job in range(2)]
        for result in results:
            assert dict(result.merged_outputs()) == \
                {"a-saw": None, "o-saw": [None, None]}


def _segment_files(directory) -> list[str]:
    return [name for name in os.listdir(directory) if name.endswith(".seg")]




class TestPoolSpillBoundaries:
    """Spill state must respect job boundaries: a recycled world neither
    leaks segment files nor serves job N's spilled chunks to job N+1."""

    def test_recycle_world_resets_spill_state(self, tmp_path):
        """Unit-level recycle contract for the spill half: segment files
        are deleted, spilled chunks are gone, counters restart at zero."""
        cache = KVCache(None)
        store = ChunkStore(spill_threshold=64, spill_dir=str(tmp_path))
        for index in range(4):
            store.add(bytes(48), origin=(0, index))
        assert store.bytes_spilled > 0
        assert _segment_files(tmp_path)
        recycle_world(cache, store)
        assert _segment_files(tmp_path) == []
        assert store.raw_chunks() == []
        assert store.bytes_spilled == 0
        assert store.spill_reads == 0

    def test_over_budget_jobs_spill_and_stay_correct(self, backend, tmp_path):
        """A pool whose world is budgeted far below the shuffle size must
        spill on every submission and still produce outputs identical to
        an unbudgeted cold world."""
        storage = StorageConfig(spill_threshold=256, spill_dir=str(tmp_path))
        pool = WorldPool(num_o=PARALLELISM, num_a=PARALLELISM,
                         transport=backend, storage=storage)
        pool.register("wordcount", wordcount_datampi_job(PARALLELISM))
        with pool:
            pool.start()
            first = pool.run_job("wordcount",
                                 split_round_robin(LINES_A, PARALLELISM))
            second = pool.run_job("wordcount",
                                  split_round_robin(LINES_B, PARALLELISM))
        assert first.counters["a.bytes_spilled"] > 0
        assert second.counters["a.bytes_spilled"] > 0
        assert dict(first.merged_outputs()) == wordcount_reference(LINES_A)
        assert dict(second.merged_outputs()) == wordcount_reference(LINES_B)
        cold = wordcount_datampi_result(LINES_B, PARALLELISM,
                                        transport=backend)
        assert stable_bytes(second.outputs) == stable_bytes(cold.outputs)

    def test_recycled_world_does_not_leak_segment_files(self, backend,
                                                        tmp_path, wait_until):
        """Every job boundary deletes that job's segment files; after the
        pool closes the shared spill directory holds none at all."""
        storage = StorageConfig(spill_threshold=256, spill_dir=str(tmp_path))
        pool = WorldPool(num_o=PARALLELISM, num_a=PARALLELISM,
                         transport=backend, storage=storage)
        pool.register("wordcount", wordcount_datampi_job(PARALLELISM))
        with pool:
            pool.start()
            for lines in (LINES_A, LINES_B, LINES_A):
                result = pool.run_job(
                    "wordcount", split_round_robin(lines, PARALLELISM))
                assert result.counters["a.bytes_spilled"] > 0
                # Segment deletion happens on A ranks as they recycle,
                # which may lag the root's result send by a beat.
                wait_until(lambda: not _segment_files(tmp_path), timeout=30,
                           message="job boundary left segment files behind")
        assert _segment_files(tmp_path) == []

    def test_spilled_counters_are_per_job_not_cumulative(self, backend,
                                                         tmp_path):
        """Each submission reports its own spill traffic: a world that
        leaked chunk-store state across recycles would inflate job N+1's
        counters with job N's bytes."""
        storage = StorageConfig(spill_threshold=256, spill_dir=str(tmp_path))
        pool = WorldPool(num_o=PARALLELISM, num_a=PARALLELISM,
                         transport=backend, storage=storage)
        pool.register("wordcount", wordcount_datampi_job(PARALLELISM))
        with pool:
            pool.start()
            first = pool.run_job("wordcount",
                                 split_round_robin(LINES_A, PARALLELISM))
            repeat = pool.run_job("wordcount",
                                  split_round_robin(LINES_A, PARALLELISM))
        assert first.counters["a.bytes_spilled"] > 0
        assert repeat.counters["a.bytes_spilled"] == \
            first.counters["a.bytes_spilled"]


class TestPoolLifecycle:
    def test_register_after_start_rejected(self):
        with _wordcount_pool("thread") as pool:
            pool.start()
            with pytest.raises(ConfigError, match="before the pool starts"):
                pool.register("late", wordcount_datampi_job(PARALLELISM))

    def test_submit_before_start_rejected(self):
        pool = _wordcount_pool("thread")
        with pytest.raises(ConfigError, match="not started"):
            pool.submit("wordcount", [[]])
        pool.close()

    def test_unknown_job_name_rejected(self):
        with _wordcount_pool("thread") as pool:
            pool.start()
            with pytest.raises(ConfigError, match="unknown job"):
                pool.submit("nope", [[]])

    def test_mismatched_world_shape_rejected(self):
        pool = WorldPool(num_o=2, num_a=2, transport="thread")
        with pytest.raises(ConfigError, match="world, pool is"):
            pool.register("wc", wordcount_datampi_job(parallelism=3))
        pool.close()

    def test_start_without_jobs_rejected(self):
        pool = WorldPool(num_o=1, num_a=1, transport="thread")
        with pytest.raises(ConfigError, match="register at least one job"):
            pool.start()
        pool.close()

    def test_submit_after_close_rejected(self):
        pool = _wordcount_pool("thread")
        pool.start()
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(ConfigError, match="closed"):
            pool.submit("wordcount", [[]])

    def test_task_failure_fails_submission_not_pool(self, backend):
        """A raising task travels the outcome gather, fails its own
        future, and leaves the world serving the next submission."""

        def o_boom(ctx, split):
            raise ValueError("task exploded")

        def a_task(ctx):
            return [kv for kv in ctx.grouped()]

        boom = DataMPIJob(o_boom, a_task,
                          DataMPIConf(num_o=PARALLELISM, num_a=PARALLELISM))
        pool = _wordcount_pool(backend)
        pool.register("boom", boom)
        with pool:
            pool.start()
            with pytest.raises(JobError, match="task exploded"):
                pool.run_job("boom", [["x"], ["y"]])
            after = pool.run_job("wordcount",
                                 split_round_robin(LINES_B, PARALLELISM))
        assert dict(after.merged_outputs()) == wordcount_reference(LINES_B)

    def test_rank_death_mid_job_fails_future_with_cause(self, backend):
        """A pool rank dying while serving a submission (injected at the
        ``pool-submit`` point — no sleeps, no signals) must fail that
        future with a cause naming the dead rank, not hang it."""
        plan = "kill@pool-submit:rank=1:superstep=1"
        transport = get_transport(backend, fault_plan=plan)
        pool = WorldPool(num_o=PARALLELISM, num_a=PARALLELISM,
                         transport=transport)
        pool.register("wordcount", wordcount_datampi_job(PARALLELISM))
        with pool:
            pool.start()
            future = pool.submit("wordcount",
                                 split_round_robin(LINES_A, PARALLELISM))
            with pytest.raises((JobError, MPIError)) as excinfo:
                future.result(timeout=120)
        assert "rank 1" in str(excinfo.value)

    def test_tcp_pool_recovers_and_serves_next_submission(self):
        """On the elastic tcp transport the dead rank's slot is respawned:
        the in-flight future fails loudly, the pool itself survives, and
        the very next submission is served by the recovered world."""
        transport = get_transport(
            "tcp", respawns=1,
            fault_plan="kill@pool-submit:rank=1:superstep=1")
        pool = WorldPool(num_o=PARALLELISM, num_a=PARALLELISM,
                         transport=transport)
        pool.register("wordcount", wordcount_datampi_job(PARALLELISM))
        with pool:
            pool.start()
            doomed = pool.submit("wordcount",
                                 split_round_robin(LINES_A, PARALLELISM))
            with pytest.raises(JobError, match=r"rank\(s\) 1 died mid-job"):
                doomed.result(timeout=120)
            after = pool.run_job("wordcount",
                                 split_round_robin(LINES_B, PARALLELISM))
        assert dict(after.merged_outputs()) == wordcount_reference(LINES_B)
        cold = wordcount_datampi_result(LINES_B, PARALLELISM, transport="tcp")
        assert stable_bytes(after.outputs) == stable_bytes(cold.outputs)

    def test_concurrent_submitters(self, backend):
        """Interleaved submissions from several threads all resolve to
        their own correct results (futures matched by sequence)."""
        inputs = [LINES_A, LINES_B]
        results: dict[int, dict] = {}
        errors: list[BaseException] = []

        with _wordcount_pool(backend) as pool:
            pool.start()

            def submitter(index: int) -> None:
                try:
                    lines = inputs[index % len(inputs)]
                    result = pool.run_job(
                        "wordcount", split_round_robin(lines, PARALLELISM))
                    results[index] = dict(result.merged_outputs())
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    errors.append(exc)

            threads = [threading.Thread(target=submitter, args=(i,))
                       for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        assert not errors
        assert len(results) == 6
        for index, counts in results.items():
            expected = wordcount_reference(inputs[index % len(inputs)])
            assert counts == expected


class TestWarmPoolLatency:
    """The pool's reason to exist: on shm, where per-job fork and world
    formation dominate a small job, a warm world cuts p50 latency at
    least 2x against a cold world per job."""

    LINES = TextGenerator(seed=11).lines(160)
    JOBS = 12

    def _latencies(self, run_job) -> list[float]:
        expected = wordcount_reference(self.LINES)
        latencies = []
        for _ in range(self.JOBS):
            started = time.perf_counter()
            result = run_job()
            latencies.append(time.perf_counter() - started)
            assert dict(result.merged_outputs()) == expected
        return latencies

    def test_warm_p50_at_least_2x_below_cold_on_shm(self):
        cold = self._latencies(lambda: wordcount_datampi_result(
            self.LINES, PARALLELISM, transport="shm"))
        with _wordcount_pool("shm") as pool:
            pool.start()
            # The first job forms the world; serving starts after it.
            pool.run_job("wordcount", split_round_robin(self.LINES, PARALLELISM))
            warm = self._latencies(lambda: pool.run_job(
                "wordcount", split_round_robin(self.LINES, PARALLELISM)))
        cold_p50 = statistics.median_low(cold)
        warm_p50 = statistics.median_low(warm)
        assert cold_p50 >= 2.0 * warm_p50, (
            f"warm pool p50 {warm_p50:.4f}s is not 2x below cold p50 "
            f"{cold_p50:.4f}s on shm"
        )
