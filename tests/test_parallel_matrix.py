"""Parallel MatrixRunner: pool execution, determinism, resume-after-kill.

The worker-pool strategy must be behaviourally indistinguishable from
serial execution everywhere except wall clock: identical deterministic
cell records, identical checkpoint files (modulo the measured timings
inside them), byte-identical rendered reports, and the same
resume-after-kill contract — which this suite exercises with a real
``SIGKILL`` of a mid-flight parallel run.
"""

import importlib.util
import json
import multiprocessing
import os
import pathlib
import signal
import time

import pytest

from repro.common.errors import ConfigError
from repro.experiments import matrix as matrix_module
from repro.experiments.matrix import (
    MatrixRunner,
    cell_path,
    checkpoint_status,
    load_matrix,
)
from repro.experiments.reportbuilder import ReportBuilder, VOLATILE_ARTIFACTS
from repro.experiments.spec import CellSpec, ExperimentSpec, quick_spec

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "diff_reports", REPO_ROOT / "scripts" / "diff_reports.py"
)
diff_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_reports)


def tiny_spec(**kwargs) -> ExperimentSpec:
    kwargs.setdefault("max_iterations", 3)
    return ExperimentSpec("tiny-parallel", (
        CellSpec("wordcount", "common", "datampi", "tiny", "inline"),
        CellSpec("wordcount", "common", "hadoop-model", "tiny"),
        CellSpec("wordcount", "common", "spark-model", "tiny"),
        CellSpec("kmeans", "iteration", "datampi", "tiny", "inline"),
        CellSpec("kmeans", "iteration", "hadoop-model", "tiny"),
        CellSpec("naive_bayes", "iteration", "datampi", "tiny", "inline"),
    ), **kwargs)


def deterministic_record(result):
    return {
        r.spec.cell_id: (r.status, r.bytes_moved, r.output_checksum,
                         r.iterations, r.per_iteration_bytes, r.counters)
        for r in result.results
    }


class TestWorkersKnob:
    def test_default_is_serial(self, tmp_path):
        assert MatrixRunner(tiny_spec(), str(tmp_path)).workers == 1

    def test_zero_means_cpu_count(self, tmp_path):
        runner = MatrixRunner(tiny_spec(), str(tmp_path), workers=0)
        assert runner.workers == (os.cpu_count() or 1)

    @pytest.mark.parametrize("workers, message", [
        (-2, "must be >= 0"),
        (2.5, "must be an integer"),
        (True, "must be an integer"),
        ("2", "must be an integer"),
    ], ids=["negative", "float", "bool", "string"])
    def test_negative_workers_rejected(self, tmp_path, workers, message):
        """Anything but an integer >= 0 is a one-line ConfigError, never
        a pool traceback."""
        with pytest.raises(ConfigError, match=message):
            MatrixRunner(tiny_spec(), str(tmp_path), workers=workers)

    def test_workers_is_not_part_of_the_spec_hash(self, tmp_path):
        """Parallelism is a runner property: it must never invalidate
        checkpoints or change the spec hash the reports carry."""
        spec = tiny_spec()
        serial = MatrixRunner(spec, str(tmp_path))
        parallel = MatrixRunner(spec, str(tmp_path), workers=3)
        assert serial.spec.spec_hash == parallel.spec.spec_hash


class TestParallelExecution:
    def test_parallel_matches_serial_record(self, tmp_path):
        spec = tiny_spec()
        serial = MatrixRunner(spec, str(tmp_path / "s")).run()
        parallel = MatrixRunner(spec, str(tmp_path / "p"), workers=3).run()
        assert not parallel.failed_cells()
        assert parallel.executed == len(spec.cells)
        assert deterministic_record(serial) == deterministic_record(parallel)

    def test_results_are_ordered_by_spec_not_completion(self, tmp_path):
        spec = tiny_spec()
        parallel = MatrixRunner(spec, str(tmp_path), workers=3).run()
        assert [r.spec.cell_id for r in parallel.results] == \
            [c.cell_id for c in spec.cells]

    def test_parallel_checkpoints_resume_into_serial_runs(self, tmp_path):
        """Checkpoints are strategy-agnostic: a serial rerun resumes a
        parallel run's cells (and vice versa)."""
        spec = tiny_spec()
        MatrixRunner(spec, str(tmp_path), workers=3).run()
        serial_again = MatrixRunner(spec, str(tmp_path)).run()
        assert serial_again.resumed == len(spec.cells)
        assert serial_again.executed == 0
        parallel_again = MatrixRunner(spec, str(tmp_path), workers=3).run()
        assert parallel_again.resumed == len(spec.cells)

    def test_parallel_profiles_inside_workers(self, tmp_path):
        """Every cell's trace is serialized back from its worker."""
        result = MatrixRunner(tiny_spec(), str(tmp_path), workers=2).run()
        for cell_result in result.results:
            assert cell_result.resource["wall_sec"] > 0
            assert cell_result.resource["num_samples"] >= 1
            assert cell_result.elapsed_sec > 0

    def test_single_pending_cell_runs_serially(self, tmp_path):
        """No pool spin-up to execute one leftover cell."""
        spec = tiny_spec()
        serial_first = MatrixRunner(spec, str(tmp_path))
        original = serial_first.execute_cell
        survived: list = []

        def die_before_last(cell):
            if len(survived) >= len(spec.cells) - 1:
                raise KeyboardInterrupt
            survived.append(cell.cell_id)
            return original(cell)

        # A killed serial run leaves exactly one pending cell behind.
        serial_first.execute_cell = die_before_last
        with pytest.raises(KeyboardInterrupt):
            serial_first.run()
        executed: list = []
        resumer = MatrixRunner(spec, str(tmp_path), workers=3)
        resumer.execute_cell = \
            lambda cell: executed.append(cell.cell_id) or original(cell)
        result = resumer.run()
        # the monkeypatched method ran => the serial path was taken
        assert executed == [spec.cells[-1].cell_id]
        assert result.resumed == len(spec.cells) - 1


class TestParallelFailureHandling:
    def test_failed_cell_is_recorded_not_raised(self, tmp_path, monkeypatch):
        """A crashing workload inside a worker becomes a ``failed`` cell.

        Relies on the fork start method (Linux): pool workers inherit
        the monkeypatched executor at pool creation.
        """
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("failure injection requires the fork start method")
        spec = tiny_spec()
        victim = spec.cells[2].cell_id
        original = matrix_module.execute_cell

        def flaky(cell, run_spec):
            if cell.cell_id == victim:
                raise RuntimeError("simulated workload failure")
            return original(cell, run_spec)

        monkeypatch.setattr(matrix_module, "execute_cell", flaky)
        result = MatrixRunner(spec, str(tmp_path), workers=2).run()
        assert [c.spec.cell_id for c in result.failed_cells()] == [victim]
        assert "simulated workload failure" in result.failed_cells()[0].error

        monkeypatch.undo()
        retry = MatrixRunner(spec, str(tmp_path), workers=2).run()
        assert not retry.failed_cells()
        assert retry.executed == 1
        assert retry.resumed == len(spec.cells) - 1


#: The two execution strategies, as ``MatrixRunner(workers=...)`` values.
STRATEGIES = {"serial": 1, "pool": 2}


def _interrupt_after(count: int, reported: list):
    """A progress callback that notes each executed cell and raises
    ``KeyboardInterrupt`` (a Ctrl-C between two cells) at the
    ``count``-th."""
    def progress(result):
        if not result.resumed:
            reported.append(result.spec.cell_id)
            if len(reported) == count:
                raise KeyboardInterrupt
    return progress


def _checkpoint_files(out) -> list:
    return sorted(path.name for path in (out / "cells").iterdir())


@pytest.mark.parametrize("workers", STRATEGIES.values(), ids=STRATEGIES)
class TestEveryStrategyKeepsTheCheckpointContract:
    """The parent is the only checkpoint writer whichever strategy runs the
    cells: each finished cell is written once, as it finishes, and nothing
    else ever lands in the matrix directory."""

    def test_every_cell_is_recorded_exactly_once(self, tmp_path, workers):
        spec = tiny_spec()
        reported: list = []
        result = MatrixRunner(
            spec, str(tmp_path), workers=workers,
            progress=lambda r: reported.append(r.spec.cell_id)).run()
        ids = [cell.cell_id for cell in spec.cells]
        assert sorted(reported) == sorted(ids)
        assert [r.spec.cell_id for r in result.results] == ids
        assert _checkpoint_files(tmp_path) == sorted(f"{i}.json" for i in ids)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert (manifest["num_cells"], manifest["executed"],
                manifest["resumed"], manifest["failed"]) == (len(ids),
                                                             len(ids), 0, 0)

    def test_interrupt_leaves_only_finished_cell_checkpoints(
            self, tmp_path, workers):
        spec = tiny_spec()
        reported: list = []
        before = set(multiprocessing.active_children())
        with pytest.raises(KeyboardInterrupt):
            MatrixRunner(spec, str(tmp_path), workers=workers,
                         progress=_interrupt_after(2, reported)).run()
        # no pool process outlives the interrupted run
        assert set(multiprocessing.active_children()) <= before
        assert _checkpoint_files(tmp_path) == \
            sorted(f"{i}.json" for i in reported)
        assert not (tmp_path / "manifest.json").exists()
        status = checkpoint_status(spec, str(tmp_path))
        assert {i for i, state in status.items() if state == "done"} == \
            set(reported)

        rerun = MatrixRunner(spec, str(tmp_path), workers=workers).run()
        assert rerun.resumed == 2
        assert rerun.executed == len(spec.cells) - 2
        assert load_matrix(str(tmp_path)).complete is True

    def test_no_resume_clears_stale_checkpoints_before_running(
            self, tmp_path, workers):
        """An interrupted ``resume=False`` run must not leave the previous
        run's checkpoints for the next resuming run to take as its own."""
        spec = tiny_spec()
        MatrixRunner(spec, str(tmp_path), workers=workers).run()
        reported: list = []
        with pytest.raises(KeyboardInterrupt):
            MatrixRunner(spec, str(tmp_path), workers=workers,
                         progress=_interrupt_after(1, reported)).run(
                             resume=False)
        assert _checkpoint_files(tmp_path) == [f"{reported[0]}.json"]
        rerun = MatrixRunner(spec, str(tmp_path), workers=workers).run()
        assert rerun.resumed == 1
        assert rerun.executed == len(spec.cells) - 1

    def test_resumed_cells_are_reported_first_in_spec_order(
            self, tmp_path, workers):
        spec = tiny_spec()
        finished: list = []
        with pytest.raises(KeyboardInterrupt):
            MatrixRunner(spec, str(tmp_path), workers=workers,
                         progress=_interrupt_after(3, finished)).run()
        seen: list = []
        MatrixRunner(spec, str(tmp_path), workers=workers,
                     progress=lambda r: seen.append(
                         (r.resumed, r.spec.cell_id))).run()
        assert [resumed for resumed, _ in seen] == \
            [True] * 3 + [False] * (len(spec.cells) - 3)
        assert [i for resumed, i in seen if resumed] == \
            [c.cell_id for c in spec.cells if c.cell_id in finished]
        assert sorted(i for _, i in seen) == \
            sorted(c.cell_id for c in spec.cells)

    def test_damaged_checkpoints_are_re_executed(self, tmp_path, workers):
        """A torn checkpoint is stale, not done: the rerun executes exactly
        the damaged cells and records what the first run did."""
        spec = tiny_spec()
        first = MatrixRunner(spec, str(tmp_path), workers=workers).run()
        victims = [spec.cells[1], spec.cells[3]]
        for cell in victims:
            path = pathlib.Path(cell_path(str(tmp_path), cell))
            path.write_text(path.read_text()[:40])
        assert {i for i, state in checkpoint_status(
            spec, str(tmp_path)).items() if state == "stale"} == \
            {cell.cell_id for cell in victims}
        rerun = MatrixRunner(spec, str(tmp_path), workers=workers).run()
        assert rerun.executed == len(victims)
        assert rerun.resumed == len(spec.cells) - len(victims)
        assert deterministic_record(rerun) == deterministic_record(first)


def _run_matrix_child(spec_dict: dict, out_dir: str) -> None:
    """Child-process entry point for the kill test (module-level).

    Detaches into its own process group so the parent can SIGKILL the
    whole tree — otherwise the pool workers outlive the killed parent as
    orphans, blocked on the dead call queue and pinning pytest's stdout
    pipe open.
    """
    os.setpgrp()
    spec = ExperimentSpec.from_dict(spec_dict)
    MatrixRunner(spec, out_dir, workers=2).run(resume=False)


class TestResumeAfterKill:
    def test_sigkilled_parallel_run_resumes_from_surviving_cells(
            self, tmp_path, wait_until):
        """SIGKILL a live 2-worker matrix mid-flight; the rerun must
        execute exactly the cells whose checkpoints did not survive."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("kill test needs a forked child process")
        spec = quick_spec()
        out = tmp_path / "matrix"
        child = multiprocessing.get_context("fork").Process(
            target=_run_matrix_child, args=(spec.to_dict(), str(out)))
        child.start()
        cells_dir = out / "cells"
        # Kill once at least two cell checkpoints exist (or the child
        # finished early — the skip below handles that race).
        wait_until(
            lambda: not child.is_alive()
            or (cells_dir.exists()
                and len(list(cells_dir.glob("*.json"))) >= 2),
            timeout=120, interval=0.002,
            message="matrix child produced no cell checkpoints",
        )
        try:
            os.killpg(child.pid, signal.SIGKILL)  # child + its pool workers
        except ProcessLookupError:  # finished (and reaped) before the kill
            pass
        child.join()
        if (out / "manifest.json").exists():
            pytest.skip("matrix finished before the kill landed")

        survivors = {path.stem for path in cells_dir.glob("*.json")}
        assert survivors, "kill landed before any checkpoint was written"
        assert len(survivors) < len(spec.cells)

        executed: list = []
        rerun = MatrixRunner(
            spec, str(out), workers=2,
            progress=lambda r: None if r.resumed else executed.append(
                r.spec.cell_id))
        result = rerun.run()
        assert not result.failed_cells()
        assert result.resumed == len(survivors)
        assert result.executed == len(spec.cells) - len(survivors)
        assert sorted(executed) == sorted(
            {c.cell_id for c in spec.cells} - survivors)
        assert (out / "manifest.json").exists()
        assert load_matrix(str(out)).complete is True


class TestReportDeterminism:
    def test_parallel_and_serial_reports_are_byte_identical(self, tmp_path):
        """The acceptance bar: same spec, serial vs 4 workers, identical
        rendered reports except the explicitly volatile timings."""
        spec = quick_spec()
        serial = MatrixRunner(spec, str(tmp_path / "ms")).run()
        parallel = MatrixRunner(spec, str(tmp_path / "mp"), workers=4).run()
        ReportBuilder(serial, str(tmp_path / "rs")).build()
        ReportBuilder(parallel, str(tmp_path / "rp")).build()
        problems = diff_reports.compare_reports(
            tmp_path / "rs", tmp_path / "rp")
        assert problems == []

    def test_volatile_artifacts_exist_and_are_marked(self, tmp_path):
        spec = tiny_spec()
        result = MatrixRunner(spec, str(tmp_path / "m"), workers=2).run()
        ReportBuilder(result, str(tmp_path / "r")).build()
        names = {p.name for p in (tmp_path / "r").iterdir()}
        assert VOLATILE_ARTIFACTS <= names
        import json
        doc = json.loads((tmp_path / "r" / "timings.json").read_text())
        assert doc["volatile"] is True
        exec_doc = json.loads(
            (tmp_path / "r" / "execution_time.json").read_text())
        assert exec_doc["volatile"] is False
