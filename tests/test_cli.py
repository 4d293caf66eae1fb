"""Tests for the datampi-repro command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_run_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "WordCount" in out

    def test_run_table2(self, capsys):
        assert main(["run", "table2"]) == 0
        assert "Xeon" in capsys.readouterr().out

    def test_run_fig5_fast(self, capsys):
        assert main(["run", "fig5", "--executions", "1"]) == 0
        out = capsys.readouterr().out
        assert "datampi" in out


class TestSimulateCommand:
    def test_simulate_success(self, capsys):
        code = main(["simulate", "datampi", "grep", "4GB", "--executions", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "datampi grep 4GB" in out
        assert "o:" in out

    def test_simulate_oom_reports_failure(self, capsys):
        code = main(["simulate", "spark", "normal_sort", "8GB", "--executions", "1"])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_simulate_rejects_bad_framework(self):
        with pytest.raises(SystemExit):
            main(["simulate", "flink", "grep", "1GB"])


class TestWorkloadCommand:
    def test_wordcount(self, capsys):
        assert main(["workload", "datampi", "wordcount", "--lines", "200"]) == 0
        assert "verified=True" in capsys.readouterr().out

    def test_sort(self, capsys):
        assert main(["workload", "spark", "sort", "--lines", "100"]) == 0
        assert "verified=True" in capsys.readouterr().out

    def test_grep(self, capsys):
        assert main(["workload", "hadoop", "grep", "--lines", "200"]) == 0
        assert "verified=True" in capsys.readouterr().out

    def test_unknown_workload(self, capsys):
        assert main(["workload", "hadoop", "join"]) == 2
        assert "wordcount" in capsys.readouterr().err

    def test_every_table_workload_is_runnable(self, capsys):
        """The accepted names are the table's keys (plus the sort alias)."""
        for name in ("text_sort", "normal_sort", "naive_bayes"):
            assert main(["workload", "datampi", name, "--lines", "120"]) == 0
            assert "verified=True" in capsys.readouterr().out
        assert main(["workload", "spark", "naive_bayes"]) == 2
        assert "hadoop and datampi" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--pool", "1"]],
                             ids=["cold", "pooled"])
    def test_failed_verification_exits_1(self, capsys, monkeypatch, extra):
        """Cold and pooled runs share one verdict: a wrong answer is exit 1."""
        import dataclasses

        from repro.workloads import base

        wrong = dataclasses.replace(
            base.WORKLOADS["grep"], reference=lambda lines, p: {"nope": 1}
        )
        monkeypatch.setitem(base.WORKLOADS, "grep", wrong)
        assert main(["workload", "datampi", "grep", "--lines", "120",
                     "--transport", "thread", *extra]) == 1
        assert "verified=False" in capsys.readouterr().out

    def test_kmeans_common_mode_honours_storage_flags(self, capsys, monkeypatch):
        from repro.storage import StorageConfig

        budgets = set()
        make_store = StorageConfig.make_store
        monkeypatch.setattr(
            StorageConfig, "make_store",
            lambda self: budgets.add(self.spill_threshold) or make_store(self),
        )
        assert main(["workload", "datampi", "kmeans", "--vectors", "60",
                     "--k", "3", "--spill-threshold", "1KB",
                     "--transport", "thread"]) == 0
        assert "verified=True" in capsys.readouterr().out
        assert budgets == {1024}


class TestWorkloadPool:
    def test_pooled_wordcount(self, capsys):
        assert main(["workload", "datampi", "wordcount", "--pool", "3",
                     "--lines", "120", "--transport", "thread"]) == 0
        out = capsys.readouterr().out
        assert "pooled wordcount" in out
        assert "jobs/s" in out and "p50" in out and "p99" in out
        assert "verified=True" in out

    def test_pooled_run_names_the_transport_the_environment_chose(
            self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSPORT", "inline")
        assert main(["workload", "datampi", "wordcount", "--pool", "2",
                     "--lines", "50"]) == 0
        out = capsys.readouterr().out
        assert " inline world " in out and "thread" not in out

    def test_pooled_sort_and_grep(self, capsys):
        for name in ("sort", "grep"):
            assert main(["workload", "datampi", name, "--pool", "2",
                         "--lines", "80", "--transport", "thread"]) == 0
            assert "verified=True" in capsys.readouterr().out

    def test_pool_needs_datampi_common_mode(self, capsys):
        assert main(["workload", "hadoop", "wordcount", "--pool", "2"]) == 2
        assert "--pool needs the datampi engine" in capsys.readouterr().err
        assert main(["workload", "datampi", "wordcount", "--pool", "2",
                     "--mode", "streaming"]) == 2
        assert "common mode" in capsys.readouterr().err

    def test_pool_rejects_unsupported_workload_and_zero_jobs(self, capsys):
        assert main(["workload", "datampi", "kmeans", "--pool", "2"]) == 2
        assert "--pool supports" in capsys.readouterr().err
        assert main(["workload", "datampi", "wordcount", "--pool", "0"]) == 2
        assert "at least one submission" in capsys.readouterr().err


class TestWorkloadModes:
    def test_kmeans_iteration_mode(self, capsys):
        assert main(["workload", "datampi", "kmeans", "--mode", "iteration",
                     "--vectors", "60", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "verified=True" in out
        assert "cache served" in out

    def test_kmeans_common_mode_any_engine(self, capsys):
        assert main(["workload", "hadoop", "kmeans",
                     "--vectors", "60", "--k", "3"]) == 0
        assert "verified=True" in capsys.readouterr().out

    def test_wordcount_streaming_mode(self, capsys):
        assert main(["workload", "datampi", "wordcount", "--mode", "streaming",
                     "--lines", "240"]) == 0
        out = capsys.readouterr().out
        assert "windows flushed" in out
        assert "verified=True" in out

    def test_grep_streaming_mode(self, capsys):
        assert main(["workload", "datampi", "grep", "--mode", "streaming",
                     "--lines", "240"]) == 0
        assert "verified=True" in capsys.readouterr().out

    def test_mode_needs_datampi_engine(self, capsys):
        assert main(["workload", "spark", "wordcount",
                     "--mode", "iteration"]) == 2
        assert "datampi" in capsys.readouterr().err

    def test_sort_rejects_streaming(self, capsys):
        assert main(["workload", "datampi", "sort", "--mode", "streaming"]) == 2
        assert "common" in capsys.readouterr().err

    def test_wordcount_and_grep_reject_iteration(self, capsys):
        for name in ("wordcount", "grep"):
            assert main(["workload", "datampi", name,
                         "--mode", "iteration"]) == 2
            assert "common and streaming" in capsys.readouterr().err

    def test_kmeans_rejects_streaming(self, capsys):
        assert main(["workload", "datampi", "kmeans",
                     "--mode", "streaming"]) == 2
        assert "kmeans" in capsys.readouterr().err

    def test_unknown_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["workload", "datampi", "wordcount", "--mode", "turbo"]
            )


class TestExperimentCommand:
    def test_list_names_every_quick_cell(self, capsys):
        assert main(["experiment", "list"]) == 0
        out = capsys.readouterr().out
        assert "kmeans.iteration.datampi.tiny.inline" in out
        assert "wordcount.common.hadoop-model.small" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment"])

    def test_rejects_unknown_spec(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "run", "--spec", "nightly"])

    def test_spec_and_quick_are_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["experiment", "run", "--spec", "full", "--quick"]
            )

    def test_report_without_matrix_fails_cleanly(self, capsys, tmp_path):
        assert main(["experiment", "report", "--out", str(tmp_path / "x")]) == 2
        assert "cannot load matrix" in capsys.readouterr().err

    def test_run_then_resume_then_report(self, capsys, tmp_path):
        out = str(tmp_path / "matrix")
        reports = str(tmp_path / "reports")
        assert main(["experiment", "run", "--quick", "--out", out]) == 0
        first = capsys.readouterr().out
        assert "32 cells" in first and "32 executed" in first
        assert "cross-engine outputs agree on 12/12" in first

        assert main(["experiment", "run", "--quick", "--out", out]) == 0
        second = capsys.readouterr().out
        assert "0 executed, 32 resumed" in second

        assert main(["experiment", "report", "--out", out,
                     "--reports", reports]) == 0
        listed = capsys.readouterr().out
        for artifact in ("execution_time.json", "speedup.md",
                         "bytes_per_iteration.json", "timings.json",
                         "index.md"):
            assert artifact in listed

    def test_interrupt_exits_130_and_resumes(self, capsys, tmp_path,
                                             monkeypatch):
        """Ctrl-C mid-run: one-line message, exit 130, finished cells
        checkpointed so a re-run resumes instead of starting over."""
        from repro.experiments.matrix import MatrixRunner

        out = str(tmp_path / "matrix")
        original = MatrixRunner.execute_cell
        survived: list = []

        def dying(self, cell):
            if len(survived) >= 3:
                raise KeyboardInterrupt
            survived.append(cell.cell_id)
            return original(self, cell)

        monkeypatch.setattr(MatrixRunner, "execute_cell", dying)
        assert main(["experiment", "run", "--quick", "--out", out]) == 130
        captured = capsys.readouterr()
        assert "interrupted" in captured.err
        assert "resume" in captured.err
        assert "Traceback" not in captured.err

        monkeypatch.setattr(MatrixRunner, "execute_cell", original)
        assert main(["experiment", "run", "--quick", "--out", out]) == 0
        assert "3 resumed" in capsys.readouterr().out

    def test_negative_parallel_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["experiment", "run", "--quick", "--parallel", "-2"])
        assert "must be >= 0" in capsys.readouterr().err

    def test_run_parallel_resumes_serial_checkpoints(self, capsys, tmp_path):
        out = str(tmp_path / "matrix")
        assert main(["experiment", "run", "--quick", "--out", out,
                     "--parallel", "2"]) == 0
        first = capsys.readouterr().out
        assert "on 2 workers" in first and "32 executed" in first

        assert main(["experiment", "run", "--quick", "--out", out]) == 0
        second = capsys.readouterr().out
        assert "serially" in second and "0 executed, 32 resumed" in second

    def test_list_shows_checkpoint_status(self, capsys, tmp_path):
        out = str(tmp_path / "matrix")
        assert main(["experiment", "list", "--out", out]) == 0
        before = capsys.readouterr().out
        assert "pending" in before and "32 pending" in before

        assert main(["experiment", "run", "--quick", "--out", out,
                     "--parallel", "2"]) == 0
        capsys.readouterr()
        assert main(["experiment", "list", "--out", out]) == 0
        after = capsys.readouterr().out
        assert "32 done" in after and "pending" not in after.split("\n")[-2]


class TestParallelExperimentCommands:
    def test_non_integer_parallel_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["experiment", "run", "--quick", "--parallel", "many"])
        assert "expected an integer worker count" in capsys.readouterr().err

    @pytest.mark.parametrize("value, message", [
        ("1.5", "expected an integer worker count"),
        ("", "expected an integer worker count"),
        ("-1", "must be >= 0"),
    ], ids=["float", "empty", "minus-one"])
    def test_bad_parallel_value_is_a_one_line_usage_error(
            self, capsys, value, message):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["experiment", "run", "--quick", "--parallel", value])
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, workers", [
        (["--parallel", "3"], 3),
        (["--parallel"], 0),
        ([], 1),
    ], ids=["count", "bare", "absent"])
    def test_parallel_parses_to_a_worker_count(self, argv, workers):
        """Bare ``--parallel`` is 0 (one worker per core); without the
        flag the run is serial."""
        args = build_parser().parse_args(
            ["experiment", "run", "--quick", *argv])
        assert args.parallel == workers

    def test_no_resume_reruns_every_cell_on_the_pool(self, capsys, tmp_path):
        out = str(tmp_path / "matrix")
        assert main(["experiment", "run", "--quick", "--out", out]) == 0
        capsys.readouterr()
        assert main(["experiment", "run", "--quick", "--out", out,
                     "--parallel", "2", "--no-resume"]) == 0
        assert "32 executed, 0 resumed" in capsys.readouterr().out


class TestWorkloadTransportOptions:
    def test_tcp_transport_runs_a_workload(self, capsys):
        assert main(["workload", "datampi", "wordcount", "--lines", "120",
                     "--transport", "tcp"]) == 0
        assert "verified=True" in capsys.readouterr().out

    def test_hosts_spec_feeds_the_tcp_transport(self, capsys):
        assert main(["workload", "datampi", "wordcount", "--lines", "120",
                     "--transport", "tcp", "--hosts", "127.0.0.1"]) == 0
        assert "verified=True" in capsys.readouterr().out

    def test_hosts_without_tcp_is_rejected(self, capsys):
        assert main(["workload", "datampi", "wordcount",
                     "--hosts", "127.0.0.1"]) == 2
        assert "--hosts/--port need --transport tcp" in capsys.readouterr().err
