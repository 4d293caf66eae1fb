"""Experiment matrix: spec validation, runner checkpointing, resume-after-kill."""

import os

import pytest

from repro.common.errors import ConfigError
from repro.experiments.matrix import (
    CellResult,
    MatrixRunner,
    cell_path,
    checkpoint_status,
    execute_cell,
    load_matrix,
    verify_cross_engine,
)
from repro.experiments.spec import (
    CellSpec,
    ExperimentSpec,
    full_spec,
    get_spec,
    quick_spec,
)


def tiny_spec(cells=None, **kwargs) -> ExperimentSpec:
    cells = cells or (
        CellSpec("wordcount", "common", "datampi", "tiny", "inline"),
        CellSpec("wordcount", "common", "hadoop-model", "tiny"),
        CellSpec("kmeans", "iteration", "datampi", "tiny", "inline"),
        CellSpec("kmeans", "iteration", "hadoop-model", "tiny"),
    )
    kwargs.setdefault("max_iterations", 3)
    return ExperimentSpec("tiny", tuple(cells), **kwargs)


class TestCellSpec:
    def test_cell_id_includes_transport_only_for_datampi(self):
        datampi = CellSpec("wordcount", "common", "datampi", "tiny", "inline")
        model = CellSpec("wordcount", "common", "hadoop-model", "tiny")
        assert datampi.cell_id == "wordcount.common.datampi.tiny.inline"
        assert model.cell_id == "wordcount.common.hadoop-model.tiny"

    def test_rejects_unknown_axes(self):
        with pytest.raises(ConfigError):
            CellSpec("join", "common", "datampi", "tiny")
        with pytest.raises(ConfigError):
            CellSpec("wordcount", "common", "flink", "tiny")
        with pytest.raises(ConfigError):
            CellSpec("wordcount", "common", "datampi", "huge")
        with pytest.raises(ConfigError):
            CellSpec("wordcount", "common", "datampi", "tiny", "carrier-pigeon")

    def test_rejects_unsupported_modes(self):
        with pytest.raises(ConfigError):
            CellSpec("text_sort", "streaming", "datampi", "tiny")
        with pytest.raises(ConfigError):
            CellSpec("kmeans", "streaming", "datampi", "tiny")
        with pytest.raises(ConfigError):
            CellSpec("wordcount", "streaming", "hadoop-model", "tiny")

    def test_model_engines_have_no_transport(self):
        with pytest.raises(ConfigError):
            CellSpec("wordcount", "common", "spark-model", "tiny", "inline")

    def test_round_trips_through_dict(self):
        cell = CellSpec("kmeans", "iteration", "datampi", "small", "inline")
        assert CellSpec.from_dict(cell.to_dict()) == cell


class TestExperimentSpec:
    def test_matrix_filters_invalid_combinations(self):
        spec = ExperimentSpec.matrix(
            "m", workloads=("wordcount", "text_sort"),
            engines=("datampi", "spark-model"),
            modes=("common", "streaming"), scales=("tiny",),
        )
        ids = {cell.cell_id for cell in spec.cells}
        assert "wordcount.streaming.datampi.tiny.inline" in ids
        # streaming never runs on a model engine, text_sort never streams
        assert not any("streaming.spark-model" in i for i in ids)
        assert not any(i.startswith("text_sort.streaming") for i in ids)

    def test_duplicate_cells_rejected(self):
        cell = CellSpec("wordcount", "common", "datampi", "tiny")
        with pytest.raises(ConfigError):
            ExperimentSpec("dupes", (cell, cell))

    def test_round_trips_through_dict(self):
        spec = quick_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert ExperimentSpec.from_dict(spec.to_dict()).spec_hash == spec.spec_hash

    def test_spec_hash_tracks_content(self):
        assert quick_spec().spec_hash != tiny_spec().spec_hash

    def test_quick_spec_meets_acceptance_floor(self):
        spec = quick_spec()
        workloads = {c.workload for c in spec.cells}
        engines = {c.engine for c in spec.cells}
        scales = {c.scale for c in spec.cells}
        assert len(workloads) >= 2 and len(engines) >= 2 and len(scales) >= 2
        assert spec.iterative_cells()

    def test_full_spec_covers_every_workload_and_engine(self):
        spec = full_spec()
        assert {c.workload for c in spec.cells} == \
            {"wordcount", "grep", "text_sort", "normal_sort", "kmeans",
             "naive_bayes"}
        assert {c.engine for c in spec.cells} == \
            {"datampi", "hadoop-model", "spark-model"}
        assert {c.scale for c in spec.cells} == \
            {"tiny", "small", "medium", "large"}

    def test_spark_model_never_gets_naive_bayes_cells(self):
        """The paper's BigDataBench release lacks Spark Naive Bayes."""
        spec = full_spec()
        assert not any(
            c.workload == "naive_bayes" and c.engine == "spark-model"
            for c in spec.cells
        )
        with pytest.raises(ConfigError):
            CellSpec("naive_bayes", "common", "spark-model", "tiny")

    def test_get_spec_rejects_unknown_preset(self):
        with pytest.raises(ConfigError):
            get_spec("nightly")


class TestExecuteCell:
    """Direct cell execution (no profiling/model) on the inline transport."""

    def test_counting_cells_agree_across_engines(self):
        spec = tiny_spec()
        checksums = {
            engine: execute_cell(
                CellSpec("grep", "common", engine, "tiny",
                         "inline" if engine == "datampi" else None),
                spec,
            ).output_checksum
            for engine in ("datampi", "hadoop-model", "spark-model")
        }
        assert len(set(checksums.values())) == 1

    def test_streaming_reproduces_batch_checksum(self):
        spec = tiny_spec()
        batch = execute_cell(
            CellSpec("wordcount", "common", "datampi", "tiny", "inline"), spec)
        stream = execute_cell(
            CellSpec("wordcount", "streaming", "datampi", "tiny", "inline"), spec)
        assert stream.output_checksum == batch.output_checksum
        assert stream.iterations and stream.iterations > 1

    def test_text_sort_cells_agree(self):
        spec = tiny_spec()
        a = execute_cell(
            CellSpec("text_sort", "common", "datampi", "tiny", "inline"), spec)
        b = execute_cell(
            CellSpec("text_sort", "common", "hadoop-model", "tiny"), spec)
        assert a.output_checksum == b.output_checksum
        assert a.bytes_moved and b.bytes_moved

    def test_model_engine_replay_is_pinned_to_inline(self, monkeypatch):
        """The hadoop-model replay must not follow REPRO_TRANSPORT."""
        monkeypatch.setenv("REPRO_TRANSPORT", "carrier-pigeon")
        result = execute_cell(
            CellSpec("kmeans", "iteration", "hadoop-model", "tiny"), tiny_spec())
        assert result.per_iteration_bytes

    def test_spark_cells_report_shuffle_bytes(self):
        """The instrumented SparkContext populates bytes_moved, so the
        bytes_ratio_vs_spark_model report column stops reporting '-'."""
        spec = tiny_spec()
        for workload, mode in (("wordcount", "common"), ("grep", "common"),
                               ("text_sort", "common"), ("kmeans", "common"),
                               ("normal_sort", "common")):
            result = execute_cell(
                CellSpec(workload, mode, "spark-model", "tiny"), spec)
            assert result.bytes_moved and result.bytes_moved > 0, workload
            assert result.counters["shuffles"] >= 1

    def test_naive_bayes_cells_agree_across_engines(self):
        spec = tiny_spec()
        checksums = set()
        for engine, mode in (("datampi", "common"), ("hadoop-model", "common"),
                             ("datampi", "iteration"),
                             ("hadoop-model", "iteration")):
            result = execute_cell(
                CellSpec("naive_bayes", mode, engine, "tiny",
                         "inline" if engine == "datampi" else None),
                spec,
            )
            assert result.bytes_moved and result.bytes_moved > 0
            checksums.add(result.output_checksum)
        assert len(checksums) == 1

    def test_naive_bayes_iteration_caches_like_kmeans(self):
        """Warm passes of the kept-alive pipeline move fewer bytes than
        the one-job-per-pass replay; the first pass costs the same."""
        spec = tiny_spec()
        datampi = execute_cell(
            CellSpec("naive_bayes", "iteration", "datampi", "tiny", "inline"),
            spec)
        hadoop = execute_cell(
            CellSpec("naive_bayes", "iteration", "hadoop-model", "tiny"), spec)
        assert datampi.iterations == hadoop.iterations == 3
        assert datampi.per_iteration_bytes[0] == hadoop.per_iteration_bytes[0]
        for warm_datampi, warm_hadoop in zip(datampi.per_iteration_bytes[1:],
                                             hadoop.per_iteration_bytes[1:]):
            assert warm_datampi < warm_hadoop
        assert datampi.bytes_moved < hadoop.bytes_moved

    def test_normal_sort_cells_agree_and_record_compression(self):
        spec = tiny_spec()
        results = {
            engine: execute_cell(
                CellSpec("normal_sort", "common", engine, "tiny",
                         "inline" if engine == "datampi" else None),
                spec,
            )
            for engine in ("datampi", "hadoop-model", "spark-model")
        }
        assert len({r.output_checksum for r in results.values()}) == 1
        for result in results.values():
            ratio = (result.counters["seqfile.raw_bytes"]
                     / result.counters["seqfile.compressed_bytes"])
            assert ratio > 1.0  # real text compresses
            assert result.counters["seqfile.records"] == 240

    def test_normal_sort_output_matches_text_sort_of_same_lines(self):
        """ToSeqFile is lossless: sorting the decompressed records gives
        the same answer as sorting the original text."""
        spec = tiny_spec()
        normal = execute_cell(
            CellSpec("normal_sort", "common", "datampi", "tiny", "inline"),
            spec)
        text = execute_cell(
            CellSpec("text_sort", "common", "datampi", "tiny", "inline"), spec)
        assert normal.output_checksum == text.output_checksum

    def test_iteration_mode_moves_fewer_bytes_than_hadoop_pattern(self):
        spec = tiny_spec()
        datampi = execute_cell(
            CellSpec("kmeans", "iteration", "datampi", "tiny", "inline"), spec)
        hadoop = execute_cell(
            CellSpec("kmeans", "iteration", "hadoop-model", "tiny"), spec)
        assert datampi.output_checksum == hadoop.output_checksum
        assert datampi.iterations == hadoop.iterations
        # iteration 1 pays the same scatter; every warm iteration is cheaper
        assert datampi.per_iteration_bytes[0] == hadoop.per_iteration_bytes[0]
        for warm_datampi, warm_hadoop in zip(datampi.per_iteration_bytes[1:],
                                             hadoop.per_iteration_bytes[1:]):
            assert warm_datampi < warm_hadoop
        assert datampi.bytes_moved < hadoop.bytes_moved


class TestMatrixRunner:
    def test_run_writes_cell_checkpoints_and_manifest(self, tmp_path):
        spec = tiny_spec()
        runner = MatrixRunner(spec, str(tmp_path))
        result = runner.run()
        assert result.executed == len(spec.cells) and result.resumed == 0
        assert not result.failed_cells()
        for cell in spec.cells:
            assert (tmp_path / "cells" / f"{cell.cell_id}.json").exists()
        assert (tmp_path / "manifest.json").exists()
        assert (tmp_path / "spec.json").exists()

    def test_second_run_resumes_every_cell(self, tmp_path):
        spec = tiny_spec()
        MatrixRunner(spec, str(tmp_path)).run()
        executions = []
        runner = MatrixRunner(spec, str(tmp_path))
        original = runner.execute_cell
        runner.execute_cell = lambda cell: executions.append(cell) or original(cell)
        result = runner.run()
        assert executions == []
        assert result.resumed == len(spec.cells)

    def test_resume_after_kill_skips_finished_cells(self, tmp_path):
        """A run killed mid-matrix resumes from the first unfinished cell."""
        spec = tiny_spec()
        runner = MatrixRunner(spec, str(tmp_path))
        original = runner.execute_cell
        survived = 2

        def dying(cell):
            if len(executed_first) >= survived:
                raise KeyboardInterrupt  # the kill: not recorded as 'failed'
            executed_first.append(cell.cell_id)
            return original(cell)

        executed_first: list = []
        runner.execute_cell = dying
        with pytest.raises(KeyboardInterrupt):
            runner.run()
        assert len(executed_first) == survived
        assert not (tmp_path / "manifest.json").exists()

        resumed_runner = MatrixRunner(spec, str(tmp_path))
        executed_second: list = []
        original_resumed = resumed_runner.execute_cell
        resumed_runner.execute_cell = \
            lambda cell: executed_second.append(cell.cell_id) or \
            original_resumed(cell)
        result = resumed_runner.run()
        assert executed_second == \
            [cell.cell_id for cell in spec.cells[survived:]]
        assert result.resumed == survived
        assert result.executed == len(spec.cells) - survived
        assert not result.failed_cells()
        assert (tmp_path / "manifest.json").exists()

    def test_spec_change_invalidates_checkpoints(self, tmp_path):
        MatrixRunner(tiny_spec(), str(tmp_path)).run()
        changed = tiny_spec(seed=8)
        result = MatrixRunner(changed, str(tmp_path)).run()
        assert result.resumed == 0
        assert result.executed == len(changed.cells)

    def test_failed_cell_is_recorded_and_retried(self, tmp_path):
        spec = tiny_spec()
        runner = MatrixRunner(spec, str(tmp_path))
        original = runner.execute_cell

        def flaky(cell):
            if cell.cell_id == spec.cells[1].cell_id:
                raise RuntimeError("simulated workload failure")
            return original(cell)

        runner.execute_cell = flaky
        result = runner.run()
        assert [c.spec.cell_id for c in result.failed_cells()] == \
            [spec.cells[1].cell_id]
        assert "simulated workload failure" in result.failed_cells()[0].error

        retry = MatrixRunner(spec, str(tmp_path)).run()
        assert not retry.failed_cells()
        assert retry.executed == 1 and retry.resumed == len(spec.cells) - 1

    def test_no_resume_reexecutes_everything(self, tmp_path):
        spec = tiny_spec()
        MatrixRunner(spec, str(tmp_path)).run()
        result = MatrixRunner(spec, str(tmp_path)).run(resume=False)
        assert result.executed == len(spec.cells) and result.resumed == 0

    def test_runner_status_and_loader_share_one_cell_path(self, tmp_path):
        spec = tiny_spec()
        runner = MatrixRunner(spec, str(tmp_path))
        runner.run()
        moved = spec.cells[1]
        assert runner.cell_path(moved) == cell_path(str(tmp_path), moved)
        os.rename(cell_path(str(tmp_path), moved),
                  str(tmp_path / "elsewhere.json"))
        assert checkpoint_status(spec, str(tmp_path)) == {
            cell.cell_id: "pending" if cell == moved else "done"
            for cell in spec.cells
        }
        assert [r.spec.cell_id for r in load_matrix(str(tmp_path)).results] \
            == [cell.cell_id for cell in spec.cells if cell != moved]

    def test_load_matrix_round_trips(self, tmp_path):
        spec = tiny_spec()
        ran = MatrixRunner(spec, str(tmp_path)).run()
        loaded = load_matrix(str(tmp_path))
        assert loaded.spec == spec
        assert loaded.by_cell_id().keys() == ran.by_cell_id().keys()
        for cell_id, result in loaded.by_cell_id().items():
            assert result.bytes_moved == ran.by_cell_id()[cell_id].bytes_moved

    def test_load_matrix_without_cells_raises(self, tmp_path):
        with pytest.raises(Exception):
            load_matrix(str(tmp_path / "nowhere"))

    def test_verify_cross_engine_flags_divergence(self, tmp_path):
        spec = tiny_spec()
        result = MatrixRunner(spec, str(tmp_path)).run()
        assert all(verify_cross_engine(result).values())
        # corrupt one checksum: the comparison must catch it
        result.results[0].output_checksum = "deadbeef"
        agreement = verify_cross_engine(result)
        key = "wordcount.common.tiny"
        assert agreement[key] is False

    def test_verify_cross_engine_drops_single_engine_groups(self, tmp_path):
        """One digest compared against nothing is not a verification."""
        spec = tiny_spec()
        result = MatrixRunner(spec, str(tmp_path)).run()
        # drop the hadoop-model wordcount cell: its group loses its partner
        result.results = [
            r for r in result.results
            if r.spec.cell_id != "wordcount.common.hadoop-model.tiny"
        ]
        agreement = verify_cross_engine(result)
        assert "wordcount.common.tiny" not in agreement
        assert agreement  # the kmeans groups still compare two engines

    def test_load_matrix_flags_partial_runs_incomplete(self, tmp_path):
        spec = tiny_spec()
        runner = MatrixRunner(spec, str(tmp_path))
        original = runner.execute_cell

        def dying(cell):
            if cell.cell_id == spec.cells[-1].cell_id:
                raise KeyboardInterrupt
            return original(cell)

        runner.execute_cell = dying
        with pytest.raises(KeyboardInterrupt):
            runner.run()
        partial = load_matrix(str(tmp_path))
        assert partial.complete is False
        assert len(partial.results) == len(spec.cells) - 1

        MatrixRunner(spec, str(tmp_path)).run()
        assert load_matrix(str(tmp_path)).complete is True


class TestCheckpointStatus:
    def test_fresh_directory_is_all_pending(self, tmp_path):
        spec = tiny_spec()
        status = checkpoint_status(spec, str(tmp_path))
        assert set(status) == {c.cell_id for c in spec.cells}
        assert set(status.values()) == {"pending"}

    def test_completed_run_is_all_done(self, tmp_path):
        spec = tiny_spec()
        MatrixRunner(spec, str(tmp_path)).run()
        assert set(checkpoint_status(spec, str(tmp_path)).values()) == {"done"}

    def test_spec_edit_marks_cells_stale(self, tmp_path):
        MatrixRunner(tiny_spec(), str(tmp_path)).run()
        changed = tiny_spec(seed=8)
        assert set(checkpoint_status(changed, str(tmp_path)).values()) == \
            {"stale"}

    def test_failed_cell_reported_failed(self, tmp_path):
        spec = tiny_spec()
        runner = MatrixRunner(spec, str(tmp_path))
        original = runner.execute_cell

        def flaky(cell):
            if cell.cell_id == spec.cells[1].cell_id:
                raise RuntimeError("boom")
            return original(cell)

        runner.execute_cell = flaky
        runner.run()
        status = checkpoint_status(spec, str(tmp_path))
        assert status[spec.cells[1].cell_id] == "failed"
        assert all(state == "done" for cell_id, state in status.items()
                   if cell_id != spec.cells[1].cell_id)

    def test_killed_run_mixes_done_and_pending(self, tmp_path):
        spec = tiny_spec()
        runner = MatrixRunner(spec, str(tmp_path))
        original = runner.execute_cell
        executed: list = []

        def dying(cell):
            if len(executed) >= 2:
                raise KeyboardInterrupt
            executed.append(cell.cell_id)
            return original(cell)

        runner.execute_cell = dying
        with pytest.raises(KeyboardInterrupt):
            runner.run()
        status = checkpoint_status(spec, str(tmp_path))
        assert sorted(s for s in status.values()) == \
            sorted(["done", "done"] + ["pending"] * (len(spec.cells) - 2))

    def test_damaged_checkpoint_is_stale(self, tmp_path):
        spec = tiny_spec()
        MatrixRunner(spec, str(tmp_path)).run()
        victim = tmp_path / "cells" / f"{spec.cells[0].cell_id}.json"
        victim.write_text("{ not json")
        status = checkpoint_status(spec, str(tmp_path))
        assert status[spec.cells[0].cell_id] == "stale"


class TestCellResult:
    def test_round_trips_through_dict(self):
        result = CellResult(
            spec=CellSpec("kmeans", "iteration", "datampi", "tiny", "inline"),
            elapsed_sec=0.5, modeled_sec=12.0, bytes_moved=100,
            per_iteration_bytes=[60, 40], iterations=2,
            output_checksum="abc", counters={"mode.bytes_moved": 100},
            resource={"cpu_util_pct": 50.0},
        )
        assert CellResult.from_dict(result.to_dict()).to_dict() == result.to_dict()
