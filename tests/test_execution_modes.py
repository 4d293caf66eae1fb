"""Iteration & Streaming execution modes: driver semantics.

Covers the superstep protocol (state broadcast, input scatter vs cache,
outcome gather), convergence, per-iteration byte accounting, cross-window
state, and the control-channel failure path that keeps a killed superstep
from wedging any transport.
"""

import pytest

from repro.common.errors import ConfigError, MPIError
from repro.datampi import (
    A_OUTPUT_KEY,
    DataMPIConf,
    DataMPIJob,
    IterativeJob,
    StorageConfig,
    StreamingJob,
)
from repro.workloads import chunk_lines, merge_window_counts, wordcount_streaming


def counting_o(ctx, split, _state):
    for item in split:
        ctx.send(item % 5, 1)


def counting_a(ctx):
    return [(key, sum(values)) for key, values in ctx.grouped()]


def sum_update(state, merged, _iteration):
    new_state = state + sum(count for _key, count in merged)
    return new_state, new_state >= 30


def make_iterative(mode="iteration", max_iterations=5, **conf_kwargs):
    return IterativeJob(
        counting_o, counting_a, sum_update,
        DataMPIConf(num_o=2, num_a=2, mode=mode, **conf_kwargs),
        max_iterations=max_iterations,
    )


SPLITS = [list(range(5)), list(range(5, 10))]  # 10 records per superstep


class TestIterativeJob:
    def test_converges_when_update_says_done(self):
        result = make_iterative().run(SPLITS, 0)
        assert result.state == 30
        assert result.iterations == 3
        assert result.converged

    def test_stops_at_max_iterations(self):
        result = make_iterative(max_iterations=2).run(SPLITS, 0)
        assert result.iterations == 2
        assert not result.converged
        assert result.state == 20

    def test_outputs_are_final_iteration(self):
        result = make_iterative().run(SPLITS, 0)
        assert dict(result.merged_outputs()) == {k: 2 for k in range(5)}

    def test_common_mode_matches_iteration_mode(self):
        common = make_iterative(mode="common").run(SPLITS, 0)
        iterative = make_iterative(mode="iteration").run(SPLITS, 0)
        assert common.state == iterative.state
        assert common.iterations == iterative.iterations
        assert common.merged_outputs() == iterative.merged_outputs()

    def test_iteration_mode_scatters_once(self):
        result = make_iterative().run(SPLITS, 0)
        scatters = [r["mode.scatter_bytes"] for r in result.per_iteration]
        # Iteration 1 moves the input; later iterations read it from cache.
        assert scatters[0] > scatters[1]
        assert scatters[1] == scatters[2]
        hits = [r["cache.hits"] for r in result.per_iteration]
        assert hits[0] == 0 and all(h == 2 for h in hits[1:])

    def test_common_mode_rescatters_every_iteration(self):
        result = make_iterative(mode="common").run(SPLITS, 0)
        scatters = [r["mode.scatter_bytes"] for r in result.per_iteration]
        assert len(set(scatters)) == 1 and scatters[0] > 0
        assert all(r["cache.hits"] == 0 for r in result.per_iteration)

    def test_iteration_moves_fewer_bytes_after_first(self):
        common = make_iterative(mode="common").run(SPLITS, 0)
        iterative = make_iterative(mode="iteration").run(SPLITS, 0)
        pairs = zip(common.per_iteration, iterative.per_iteration)
        for index, (c, i) in enumerate(pairs):
            if index == 0:
                assert c["mode.bytes_moved"] == i["mode.bytes_moved"]
            else:
                assert i["mode.bytes_moved"] < c["mode.bytes_moved"]

    def test_tiny_cache_falls_back_to_rescatter(self):
        # A cache too small for the splits must reject them and re-scatter
        # every iteration — degraded to common-mode traffic, same answer.
        small = make_iterative(storage=StorageConfig(cache_bytes=8)).run(SPLITS, 0)
        baseline = make_iterative().run(SPLITS, 0)
        assert small.state == baseline.state
        scatters = [r["mode.scatter_bytes"] for r in small.per_iteration]
        assert scatters[0] == scatters[1] == scatters[2]
        assert sum(r["cache.rejected"] for r in small.per_iteration) > 0

    def test_previous_output_pinned_in_cache(self):
        seen = []

        def a_task(ctx):
            seen.append((ctx.superstep, ctx.cache.get(A_OUTPUT_KEY)))
            return [("n", ctx.superstep)]

        job = IterativeJob(
            counting_o, a_task,
            lambda state, merged, it: (state, it >= 2),
            DataMPIConf(num_o=1, num_a=1, mode="iteration"),
        )
        job.run([list(range(3))], 0)
        assert seen == [(1, None), (2, [("n", 1)])]

    @pytest.mark.parametrize("transport", ("shm", "inline", "tcp"))
    def test_previous_output_pinned_on_every_backend(self, transport):
        # The pin is skipped only on a world recycled after each round
        # (the pool); what a forked rank saw comes back through the state.
        def a_task(ctx):
            return [("previous", ctx.cache.get(A_OUTPUT_KEY))]

        job = IterativeJob(
            counting_o, a_task,
            lambda state, merged, it: (state + [merged], it >= 2),
            DataMPIConf(num_o=1, num_a=1, mode="iteration", transport=transport),
        )
        first = [("previous", None)]
        assert job.run([list(range(3))], []).state == \
            [first, [("previous", first)]]

    def test_update_sees_iteration_numbers(self):
        iterations = []

        def update(state, _merged, iteration):
            iterations.append(iteration)
            return state, iteration >= 3

        job = IterativeJob(counting_o, counting_a, update,
                           DataMPIConf(num_o=2, num_a=2, mode="iteration"))
        job.run(SPLITS, 0)
        assert iterations == [1, 2, 3]

    def test_per_iteration_records_have_uniform_shape(self):
        result = make_iterative().run(SPLITS, 0)
        keys = {frozenset(record) for record in result.per_iteration}
        assert len(keys) == 1
        record = result.per_iteration[0]
        for name in ("mode.state_bytes", "mode.scatter_bytes",
                     "mode.gather_bytes", "mode.bytes_moved",
                     "o.bytes_sent", "a.bytes_received", "cache.hit_bytes"):
            assert name in record
        assert len(result.timings) == len(result.per_iteration)

    def test_streaming_conf_rejected(self):
        with pytest.raises(ConfigError, match="iteration.*common|common.*iteration"):
            make_iterative(mode="streaming")

    def test_resume_without_checkpoint_dir_rejected(self):
        with pytest.raises(ConfigError, match="checkpoint"):
            make_iterative().run(SPLITS, 0, resume=True)


class TestIterativeFailures:
    @pytest.mark.parametrize("transport", ("thread", "shm", "inline"))
    def test_o_task_failure_propagates_with_cause(self, transport):
        def bad_o(ctx, split, state):
            if state >= 10:  # fail in superstep 2 on every O rank
                raise RuntimeError("injected superstep kill")
            counting_o(ctx, split, state)

        job = IterativeJob(
            bad_o, counting_a, sum_update,
            DataMPIConf(num_o=2, num_a=2, mode="iteration", transport=transport),
        )
        with pytest.raises(MPIError, match="injected superstep kill"):
            job.run(SPLITS, 0)

    def test_a_task_failure_propagates(self):
        def bad_a(ctx):
            raise ValueError("a-side kill")

        job = IterativeJob(counting_o, bad_a, sum_update,
                           DataMPIConf(num_o=2, num_a=2, mode="iteration"))
        with pytest.raises(MPIError, match="a-side kill"):
            job.run(SPLITS, 0)

    @pytest.mark.parametrize("mode", ("iteration", "common"))
    def test_update_failure_propagates(self, mode):
        def bad_update(_state, _merged, _iteration):
            raise KeyError("update kill")

        job = IterativeJob(counting_o, counting_a, bad_update,
                           DataMPIConf(num_o=2, num_a=2, mode=mode))
        with pytest.raises(MPIError, match="update kill"):
            job.run(SPLITS, 0)

    def test_common_mode_failure_propagates(self):
        def bad_o(ctx, split, state):
            raise RuntimeError("common-mode kill")

        job = IterativeJob(bad_o, counting_a, sum_update,
                           DataMPIConf(num_o=2, num_a=2, mode="common"))
        with pytest.raises(MPIError, match="common-mode kill"):
            job.run(SPLITS, 0)


def stream_o(ctx, split):
    for item in split:
        ctx.send(item % 3, 1)


def stream_a(ctx):
    return [(key, sum(values)) for key, values in ctx.grouped()]


class TestStreamingJob:
    def make_job(self, window_splits=2, **conf_kwargs):
        return StreamingJob(
            stream_o, stream_a,
            DataMPIConf(num_o=2, num_a=2, mode="streaming", **conf_kwargs),
            window_splits=window_splits,
        )

    def test_windows_flushed_in_watermark_order(self):
        result = self.make_job().run([[1, 2], [3], [4, 5], [6], [7]])
        assert [w.watermark for w in result.windows] == [1, 2, 3]
        total = sum(c for w in result.windows for _k, c in w.merged_outputs())
        assert total == 7

    def test_window_size_bounds_admission(self):
        result = self.make_job(window_splits=1).run([[n] for n in range(5)])
        assert [w.watermark for w in result.windows] == [1, 2, 3, 4, 5]
        for window in result.windows:
            assert sum(c for _k, c in window.merged_outputs()) == 1

    def test_empty_stream_flushes_nothing(self):
        result = self.make_job().run([])
        assert result.windows == []
        assert result.counters.get("mode.shutdown_bytes", 0) > 0

    def test_consumes_a_generator_lazily(self):
        pulled = []

        def source():
            for index in range(6):
                pulled.append(index)
                yield [index]

        result = self.make_job(window_splits=3).run(source())
        assert pulled == list(range(6))
        assert [w.watermark for w in result.windows] == [1, 2]

    def test_cache_persists_across_windows(self):
        def dedupe_o(ctx, split):
            for item in split:
                if ctx.cache.get(("seen", item)) is None:
                    ctx.cache.put(("seen", item), True)
                    ctx.send(item, 1)

        job = StreamingJob(
            dedupe_o, stream_a,
            DataMPIConf(num_o=1, num_a=1, mode="streaming"),
            window_splits=1,
        )
        result = job.run([[1, 2], [2, 3], [3, 4]])
        assert result.merged_outputs() == [(1, 1), (2, 1), (3, 1), (4, 1)]

    def test_failure_mid_stream_propagates(self):
        def bad_o(ctx, split):
            if split == ["poison"]:
                raise RuntimeError("stream kill")
            stream_o(ctx, [0])

        job = StreamingJob(bad_o, stream_a,
                           DataMPIConf(num_o=2, num_a=2, mode="streaming"),
                           window_splits=2)
        with pytest.raises(MPIError, match="stream kill"):
            job.run([[1], [2], ["poison"], [4]])

    def test_common_conf_rejected(self):
        with pytest.raises(ConfigError, match="streaming"):
            StreamingJob(stream_o, stream_a, DataMPIConf(num_o=1, num_a=1))

    def test_bad_window_splits_rejected(self):
        with pytest.raises(ConfigError, match="window_splits"):
            StreamingJob(stream_o, stream_a,
                         DataMPIConf(num_o=1, num_a=1, mode="streaming"),
                         window_splits=0)


class TestModeConfValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="execution mode"):
            DataMPIConf(mode="turbo")

    def test_bad_cache_bytes_rejected(self):
        with pytest.raises(ConfigError, match="cache_bytes"):
            DataMPIConf(storage=StorageConfig(cache_bytes=0))

    def test_datampijob_requires_common_mode(self):
        with pytest.raises(ConfigError, match="Common mode"):
            DataMPIJob(lambda ctx, s: None, lambda ctx: None,
                       DataMPIConf(mode="iteration"))


class TestStreamingWorkloadHelpers:
    def test_chunk_lines_exact_and_remainder(self):
        assert list(chunk_lines(["a", "b", "c", "d", "e"], 2)) == \
            [["a", "b"], ["c", "d"], ["e"]]

    def test_merge_window_counts(self):
        result = wordcount_streaming(["a b", "b c", "a"], parallelism=2,
                                     lines_per_split=1)
        assert merge_window_counts(result) == {"a": 2, "b": 2, "c": 1}
