"""Integration tests for the DataMPI job driver: end-to-end O/A jobs."""

import pytest
from test_common_kv import MARKER, _ref_encode_stream

from repro.common import ConfigError
from repro.common.errors import CheckpointError, MPIError
from repro.common.kv import decode_stream
from repro.datampi import DataMPIConf, DataMPIJob, RangePartitioner, StorageConfig
from repro.datampi.checkpoint import load_checkpoint, write_checkpoint
from repro.storage import ChunkStore


def wordcount_o(ctx, split):
    for line in split:
        for word in line.split():
            ctx.send(word, 1)


def wordcount_a(ctx):
    return [(key, sum(values)) for key, values in ctx.grouped()]


LINES = [
    "the quick brown fox",
    "the lazy dog",
    "the quick dog jumps",
    "a fox and a dog",
]


class TestWordCountJob:
    def run_job(self, **conf_kwargs):
        conf = DataMPIConf(num_o=2, num_a=2, **conf_kwargs)
        job = DataMPIJob(wordcount_o, wordcount_a, conf)
        # two splits of two lines each
        return job.run([LINES[:2], LINES[2:]])

    def expected(self):
        counts = {}
        for line in LINES:
            for word in line.split():
                counts[word] = counts.get(word, 0) + 1
        return counts

    def test_counts_correct(self):
        result = self.run_job()
        counted = dict(result.merged_outputs())
        assert counted == self.expected()

    def test_with_combiner(self):
        result = self.run_job(combiner=lambda key, values: sum(values))
        assert dict(result.merged_outputs()) == self.expected()

    def test_counters_populated(self):
        result = self.run_job()
        total_words = sum(self.expected().values())
        assert result.counters["o.records_emitted"] == total_words
        assert result.counters["a.records_received"] == total_words
        assert result.counters["o.bytes_sent"] > 0

    def test_combiner_reduces_traffic(self):
        plain = self.run_job()
        combined = self.run_job(combiner=lambda key, values: sum(values))
        assert (
            combined.counters["a.records_received"]
            <= plain.counters["a.records_received"]
        )

    def test_outputs_partitioned_disjointly(self):
        result = self.run_job()
        seen = set()
        for output in result.outputs:
            keys = {key for key, _ in output}
            assert not keys & seen
            seen |= keys


class TestSortJob:
    def test_range_partitioned_total_order(self):
        values = [93, 5, 77, 12, 64, 3, 41, 88, 19, 50, 2, 71]

        def o_task(ctx, split):
            for item in split:
                ctx.send(item, None)

        def a_task(ctx):
            return [kv.key for kv in ctx]

        conf = DataMPIConf(
            num_o=2, num_a=3, partitioner=RangePartitioner(values, 3)
        )
        job = DataMPIJob(o_task, a_task, conf)
        result = job.run([values[:6], values[6:]])
        concatenated = [key for output in result.outputs for key in output]
        assert concatenated == sorted(values)

    def test_each_a_rank_sorted_even_with_hash_partitioner(self):
        values = list(range(40, 0, -1))

        def o_task(ctx, split):
            for item in split:
                ctx.send(item, None)

        def a_task(ctx):
            return [kv.key for kv in ctx]

        job = DataMPIJob(o_task, a_task, DataMPIConf(num_o=2, num_a=2))
        result = job.run([values[:20], values[20:]])
        for output in result.outputs:
            assert output == sorted(output)
        assert sorted(v for out in result.outputs for v in out) == sorted(values)


class TestRecvAPI:
    def test_recv_returns_none_at_end(self):
        def o_task(ctx, split):
            ctx.send("only", 1)

        def a_task(ctx):
            records = []
            while (record := ctx.recv()) is not None:
                records.append(record)
            return records

        job = DataMPIJob(o_task, a_task, DataMPIConf(num_o=1, num_a=1))
        result = job.run([None])
        assert [(kv.key, kv.value) for kv in result.outputs[0]] == [("only", 1)]


class TestGroupedWithoutSort:
    """``grouped()`` under ``sort=False``: first-seen key order, and a list
    key — a wire type no dict can hold — is grouped like any other."""

    @staticmethod
    def run(records, **conf_kwargs):
        def o_task(ctx, split):
            for key, value in split:
                ctx.send(key, value)

        conf = DataMPIConf(num_o=1, num_a=1, sort=False, transport="inline",
                           **conf_kwargs)
        job = DataMPIJob(o_task, lambda ctx: list(ctx.grouped()), conf)
        return job.run([records]).outputs[0]

    def test_list_keys(self):
        records = [([1], 1), ([2], 2), ([1], 3), ([], 4), ([2], 5)]
        assert self.run(records) == [([1], [1, 3]), ([2], [2, 5]), ([], [4])]

    def test_list_keys_among_str_keys(self):
        records = [("b", 1), ([1], 2), ("a", 3), ("b", 4), ([1], 5), ([0], 6)]
        assert self.run(records) == [
            ("b", [1, 4]), ([1], [2, 5]), ("a", [3]), ([0], [6])]

    def test_list_keys_under_a_combiner(self):
        records = [("b", 1), ("b", 2), ([1], 3), ([1], 4), ("b", 5)]
        grouped = self.run(records, combiner=lambda key, values: sum(values))
        assert grouped == [("b", [3, 5]), ([1], [7])]


class TestSpillingJob:
    def test_large_job_spills_and_stays_correct(self):
        n = 3000

        def o_task(ctx, split):
            for i in split:
                ctx.send(f"key{i:06d}", i)

        def a_task(ctx):
            return [(kv.key, kv.value) for kv in ctx]

        conf = DataMPIConf(num_o=2, num_a=2, send_buffer_bytes=512,
                           storage=StorageConfig(spill_threshold=2048))
        job = DataMPIJob(o_task, a_task, conf)
        result = job.run([range(0, n, 2), range(1, n, 2)])
        assert result.counters["a.spills"] > 0
        all_records = [kv for output in result.outputs for kv in output]
        assert len(all_records) == n
        assert sorted(value for _, value in all_records) == list(range(n))


class TestCheckpointRestart:
    def make_job(self, tmp_path):
        conf = DataMPIConf(
            num_o=2, num_a=2, checkpoint_dir=str(tmp_path / "ckpt"),
            combiner=lambda key, values: sum(values),
        )
        return DataMPIJob(wordcount_o, wordcount_a, conf)

    def test_restart_reproduces_outputs(self, tmp_path):
        job = self.make_job(tmp_path)
        original = job.run([LINES[:2], LINES[2:]])
        restarted = job.restart()
        assert sorted(original.merged_outputs()) == sorted(restarted.merged_outputs())

    def test_restart_reads_a_record_stream_checkpoint(self, tmp_path):
        """Checkpoints written before chunks could be columnar hold record
        streams; the first byte tells them apart, so they still restart."""
        job = self.make_job(tmp_path)
        original = job.run([LINES[:2], LINES[2:]])
        directory = str(tmp_path / "ckpt")
        for a_rank in range(2):
            written = load_checkpoint(directory, a_rank, 1 << 20).raw_chunks()
            assert written and all(chunk[0] == MARKER for chunk in written)
            old_format = ChunkStore()
            for chunk in written:
                old_format.add(_ref_encode_stream(decode_stream(chunk)))
            assert all(chunk[0] == 0 for chunk in old_format.raw_chunks())
            write_checkpoint(directory, a_rank, old_format)
        assert job.restart().outputs == original.outputs

    def test_restart_without_checkpoint_dir_fails(self):
        job = DataMPIJob(wordcount_o, wordcount_a, DataMPIConf(num_o=1, num_a=1))
        with pytest.raises(ConfigError):
            job.restart()

    def test_restart_from_missing_dir_fails(self, tmp_path):
        job = DataMPIJob(wordcount_o, wordcount_a,
                         DataMPIConf(num_o=1, num_a=1))
        with pytest.raises(CheckpointError):
            job.restart(str(tmp_path / "nope"))

    def test_restart_from_truncated_manifest_fails(self, tmp_path):
        """A torn manifest is checkpoint damage, named as such with its
        path — not a bare JSONDecodeError from the parser."""
        job = self.make_job(tmp_path)
        job.run([LINES[:2], LINES[2:]])
        manifest = tmp_path / "ckpt" / "manifest.json"
        manifest.write_text('{"num_a": 1, "so')
        with pytest.raises(CheckpointError, match="manifest.json"):
            job.restart()

    def test_restart_wrong_width_fails(self, tmp_path):
        job = self.make_job(tmp_path)
        job.run([LINES[:2], LINES[2:]])
        narrow = DataMPIJob(
            wordcount_o, wordcount_a,
            DataMPIConf(num_o=2, num_a=3, checkpoint_dir=str(tmp_path / "ckpt")),
        )
        with pytest.raises(ConfigError):
            narrow.restart()


class TestFailurePropagation:
    def test_o_task_failure_surfaces(self):
        def bad_o(ctx, split):
            raise RuntimeError("o task crashed")

        job = DataMPIJob(bad_o, wordcount_a, DataMPIConf(num_o=1, num_a=1))
        with pytest.raises(MPIError, match="crashed"):
            job.run([None])

    def test_a_task_failure_surfaces(self):
        def bad_a(ctx):
            raise RuntimeError("a task crashed")

        job = DataMPIJob(wordcount_o, bad_a, DataMPIConf(num_o=1, num_a=1))
        with pytest.raises(MPIError, match="crashed"):
            job.run([LINES])


class TestConfValidation:
    def test_zero_sides_rejected(self):
        with pytest.raises(ConfigError):
            DataMPIConf(num_o=0)
        with pytest.raises(ConfigError):
            DataMPIConf(num_a=0)

    def test_bad_buffers_rejected(self):
        with pytest.raises(ConfigError):
            DataMPIConf(send_buffer_bytes=0)
        with pytest.raises(ConfigError):
            DataMPIConf(storage=StorageConfig(spill_threshold=0))

    def test_more_o_ranks_than_splits(self):
        job = DataMPIJob(wordcount_o, wordcount_a, DataMPIConf(num_o=4, num_a=2))
        result = job.run([LINES])  # one split, four O tasks
        counts = dict(result.merged_outputs())
        assert counts["the"] == 3
