"""repro-lint: per-checker fixtures, pragma suppression, CLI contract.

Every RPL code gets at least one true-positive fixture (the rule fires on
the violation it was built for) and one clean-negative fixture (the
idiomatic fix passes).  Fixtures are source strings linted *as though*
they lived at a path that puts them in the checker's scope — the same
``run_source`` entry point the file driver uses.
"""

from __future__ import annotations

import ast
import json
import pathlib
import shutil
import subprocess
import sys
import textwrap

import pytest

from repro.analysis import cli as lint_cli
from repro.analysis.core import (
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_FINDINGS,
    JSON_SCHEMA_VERSION,
    AnalysisError,
    all_codes,
    checker_registry,
    run_paths,
    run_source,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

SRC_PATH = "src/repro/experiments/example.py"  # generic in-package path


def lint(source: str, path: str = SRC_PATH, select: list[str] | None = None):
    return run_source(textwrap.dedent(source), path, select=select)


def codes(findings) -> list[str]:
    return [f.code for f in findings]


class TestRegistry:
    def test_all_checkers_registered(self):
        # RPL005 (deprecated-shim ban) is retired; codes are never reused.
        assert all_codes() == [f"RPL00{i}" for i in (1, 2, 3, 4, 6, 7)]

    def test_registry_metadata_complete(self):
        for code, cls in checker_registry().items():
            assert cls.code == code
            assert cls.name and cls.description


class TestDataPlanePickleBan:
    DATA_PLANE = "src/repro/storage/spill.py"

    def test_pickle_call_in_data_plane_flagged(self):
        findings = lint(
            """
            import pickle

            def seal(payload):
                return pickle.dumps(payload)
            """,
            path=self.DATA_PLANE,
        )
        assert codes(findings) == ["RPL001"]
        assert "pickle.dumps" in findings[0].message

    def test_from_pickle_import_flagged(self):
        findings = lint("from pickle import loads\n", path=self.DATA_PLANE)
        assert codes(findings) == ["RPL001"]

    def test_codec_control_plane_allowlisted(self):
        source = """
        import pickle

        def encode_payload(obj):
            return pickle.dumps(obj, protocol=5)

        def decode_payload(fmt, data):
            return pickle.loads(data)
        """
        assert lint(source, path="src/repro/mpi/transport/codec.py") == []

    def test_pickle_outside_codec_allowlist_flagged(self):
        findings = lint(
            """
            import pickle

            def helper(obj):
                return pickle.dumps(obj)
            """,
            path="src/repro/mpi/transport/codec.py",
        )
        assert codes(findings) == ["RPL001"]

    def test_non_data_plane_module_out_of_scope(self):
        source = "import pickle\npickle.dumps(1)\n"
        assert lint(source, path="src/repro/experiments/matrix.py") == []


class TestResourceLifecycle:
    def test_unreleased_mkstemp_flagged(self):
        findings = lint(
            """
            import tempfile

            def spill():
                fd, path = tempfile.mkstemp()
                return path
            """
        )
        assert codes(findings) == ["RPL002"]
        assert "fd" in findings[0].message and "path" in findings[0].message

    def test_try_finally_release_passes(self):
        source = """
        import os
        import tempfile

        def spill(payload):
            fd, path = tempfile.mkstemp()
            try:
                os.write(fd, payload)
            finally:
                os.close(fd)
                os.unlink(path)
            return path
        """
        assert lint(source) == []

    def test_fdopen_ownership_transfer_passes(self):
        source = """
        import os
        import tempfile

        def spill(payload):
            fd, path = tempfile.mkstemp()
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
            except BaseException:
                os.unlink(path)
                raise
            return path
        """
        assert lint(source) == []

    def test_self_attribute_lifecycle_passes(self):
        source = """
        from multiprocessing import shared_memory

        class Ring:
            def __init__(self, nbytes):
                self._shm = shared_memory.SharedMemory(create=True, size=nbytes)

            def close(self):
                self._shm.close()
        """
        assert lint(source) == []

    def test_unguarded_socket_flagged(self):
        findings = lint(
            """
            import socket

            def connect(addr):
                sock = socket.create_connection(addr)
                sock.sendall(b"hi")
            """
        )
        assert codes(findings) == ["RPL002"]


class TestTagDiscipline:
    def test_literal_positional_tag_flagged(self):
        findings = lint(
            """
            def exchange(comm):
                comm.send(1, b"payload", 5)
            """
        )
        assert codes(findings) == ["RPL003"]
        assert "literal tag 5" in findings[0].message

    def test_literal_tag_keyword_flagged(self):
        findings = lint(
            """
            def exchange(comm):
                return comm.recv(0, tag=9)
            """
        )
        assert codes(findings) == ["RPL003"]

    def test_named_constant_tag_passes(self):
        source = """
        TAG_DATA = 5

        def exchange(comm):
            comm.send(1, b"payload", TAG_DATA)
            return comm.recv(0, tag=TAG_DATA)
        """
        assert lint(source) == []

    def test_literal_recv_positional_tag_flagged(self):
        findings = lint(
            """
            def exchange(comm):
                return comm.recv(0, 7)
            """
        )
        assert codes(findings) == ["RPL003"]


class TestSleepBan:
    def test_time_sleep_flagged_in_src(self):
        findings = lint(
            """
            import time

            def wait():
                time.sleep(0.1)
            """
        )
        assert codes(findings) == ["RPL004"]

    def test_bare_sleep_import_flagged(self):
        findings = lint(
            """
            from time import sleep

            def wait():
                sleep(0.1)
            """
        )
        assert codes(findings) == ["RPL004"]

    def test_test_files_in_scope(self):
        findings = lint(
            """
            import time

            def test_flaky():
                time.sleep(1.0)
            """,
            path="tests/test_example.py",
        )
        assert codes(findings) == ["RPL004"]

    def test_faultinject_execute_allowlisted(self):
        source = """
        import time

        def _execute(action, amount):
            time.sleep(amount)
        """
        assert lint(source, path="src/repro/mpi/faultinject.py") == []

    def test_unrelated_module_sleep_elsewhere_still_flagged(self):
        source = """
        import time

        def other():
            time.sleep(1)
        """
        findings = lint(source, path="src/repro/mpi/faultinject.py")
        assert codes(findings) == ["RPL004"]


class TestFaultPointCoverage:
    DRIVER_PATH = "src/repro/datampi/engine.py"

    def test_uninstrumented_superstep_driver_flagged(self):
        findings = lint(
            """
            def run_superstep(comm, window):
                for record in window:
                    comm.send(0, record, TAG_DATA)
            """,
            path=self.DRIVER_PATH,
        )
        assert codes(findings) == ["RPL006"]

    def test_fire_point_passes(self):
        source = """
        from repro.mpi import faultinject

        def run_superstep(comm, window):
            faultinject.fire("superstep", rank=comm.rank)
            for record in window:
                comm.send(0, record, TAG_DATA)
        """
        assert lint(source, path=self.DRIVER_PATH) == []

    def test_delegating_driver_passes(self):
        source = """
        def superstep_loop(comm, plan):
            for window in plan:
                run_superstep(comm, window)
        """
        assert lint(source, path="src/repro/serving/pool.py") == []

    def test_uninstrumented_rank_loop_flagged(self):
        findings = lint(
            """
            def superstep_loop(comm, plan):
                for window in plan:
                    comm.barrier()
            """,
            path="src/repro/serving/pool.py",
        )
        assert codes(findings) == ["RPL006"]

    def test_non_driver_modules_out_of_scope(self):
        source = """
        def run_superstep(comm, window):
            pass
        """
        assert lint(source, path="src/repro/experiments/matrix.py") == []


class TestLockDiscipline:
    def test_unlocked_access_flagged(self):
        findings = lint(
            """
            import threading

            class Pool:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._seq = 0  #: guarded-by _lock

                def bump(self):
                    self._seq += 1
            """
        )
        assert codes(findings) == ["RPL007"]
        assert "_seq" in findings[0].message and "bump" in findings[0].message

    def test_locked_access_passes(self):
        source = """
        import threading

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()
                self._seq = 0  #: guarded-by _lock

            def bump(self):
                with self._lock:
                    self._seq += 1
        """
        assert lint(source) == []

    def test_locked_suffix_method_exempt(self):
        source = """
        import threading

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()
                self._seq = 0  #: guarded-by _lock

            def _bump_locked(self):
                self._seq += 1
        """
        assert lint(source) == []

    def test_access_under_wrong_lock_flagged(self):
        findings = lint(
            """
            import threading

            class Pool:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._other = threading.Lock()
                    self._seq = 0  #: guarded-by _lock

                def bump(self):
                    with self._other:
                        self._seq += 1
            """
        )
        assert codes(findings) == ["RPL007"]

    def test_unannotated_attributes_out_of_scope(self):
        source = """
        class Pool:
            def __init__(self):
                self._seq = 0

            def bump(self):
                self._seq += 1
        """
        assert lint(source) == []


class TestPragmaSuppression:
    def test_pragma_suppresses_on_reported_line(self):
        source = """
        import time

        def wait():
            time.sleep(0.1)  # repro: allow[RPL004] deadline-bounded by caller
        """
        assert lint(source) == []

    def test_pragma_is_code_specific(self):
        source = """
        import time

        def wait():
            time.sleep(0.1)  # repro: allow[RPL002]
        """
        assert codes(lint(source)) == ["RPL004"]

    def test_pragma_multiple_codes(self):
        source = """
        import time

        def exchange(comm):
            time.sleep(0.1)  # repro: allow[RPL004, RPL003]
            comm.send(1, b"x", 5)  # repro: allow[RPL003]
        """
        assert lint(source) == []

    def test_pragma_on_other_line_does_not_leak(self):
        source = """
        import time

        # repro: allow[RPL004]
        def wait():
            time.sleep(0.1)
        """
        assert codes(lint(source)) == ["RPL004"]


class TestDriversAndCli:
    def test_select_filters_checkers(self):
        source = """
        import time

        def exchange(comm):
            time.sleep(0.1)
            comm.send(1, b"x", 5)
        """
        # Findings sort by position, so the sleep (earlier line) leads.
        assert codes(lint(source)) == ["RPL004", "RPL003"]
        assert codes(lint(source, select=["RPL004"])) == ["RPL004"]
        assert codes(lint(source, select=["rpl003"])) == ["RPL003"]

    def test_unknown_select_code_raises(self):
        with pytest.raises(AnalysisError, match="unknown checker code"):
            lint("x = 1\n", select=["RPL999"])

    def test_syntax_error_raises_analysis_error(self):
        with pytest.raises(AnalysisError, match="syntax error"):
            lint("def broken(:\n")

    def _write(self, tmp_path, name, body) -> pathlib.Path:
        target = tmp_path / "src" / "repro" / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(body))
        return target

    def test_exit_code_contract(self, tmp_path, capsys):
        clean = self._write(tmp_path, "clean.py", "VALUE = 1\n")
        dirty = self._write(
            tmp_path,
            "dirty.py",
            """
            import time

            def wait():
                time.sleep(1)
            """,
        )
        assert lint_cli.run_lint([str(clean)]) == EXIT_CLEAN
        assert lint_cli.run_lint([str(dirty)]) == EXIT_FINDINGS
        assert lint_cli.run_lint([str(tmp_path / "absent.py")]) == EXIT_ERROR
        assert lint_cli.run_lint([str(clean)], select=["RPL999"]) == EXIT_ERROR
        capsys.readouterr()

    def test_json_output_schema_stable(self, tmp_path, capsys):
        dirty = self._write(
            tmp_path,
            "dirty.py",
            """
            import time

            def wait():
                time.sleep(1)
            """,
        )
        code = lint_cli.run_lint([str(dirty)], output_format="json")
        assert code == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == JSON_SCHEMA_VERSION == 1
        assert payload["files_checked"] == 1
        assert len(payload["findings"]) == 1
        finding = payload["findings"][0]
        assert sorted(finding) == [
            "checker", "code", "col", "line", "message", "path",
        ]
        assert finding["code"] == "RPL004"
        assert finding["checker"] == "sleep-ban"

    def test_list_checkers(self, capsys):
        assert lint_cli.run_lint([], list_checkers=True) == EXIT_CLEAN
        out = capsys.readouterr().out
        for code in all_codes():
            assert code in out

    def test_repro_cli_wires_lint_subcommand(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["lint", "--list-checkers"]) == EXIT_CLEAN
        assert "RPL001" in capsys.readouterr().out

    def test_module_entry_point(self, tmp_path):
        clean = self._write(tmp_path, "clean.py", "VALUE = 1\n")
        env_src = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(clean)],
            capture_output=True, text=True,
            env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == EXIT_CLEAN, proc.stderr


class TestRepositoryIsClean:
    def test_src_and_tests_lint_clean_at_head(self):
        """The meta-gate: the tree this test runs in must pass its own
        linter — exactly what the CI static-analysis job enforces."""
        findings, files_checked = run_paths(
            [REPO_ROOT / "src", REPO_ROOT / "tests"]
        )
        assert files_checked > 100
        assert findings == [], "\n".join(
            f"{f.path}:{f.line}: {f.code} {f.message}" for f in findings
        )


class TestOneRankSupervisor:
    """Structural pins (plain scans, no RPL rule): the forked-rank
    lifecycle and the cause-over-symptom rule each live in one place."""

    MPI = REPO_ROOT / "src" / "repro" / "mpi"

    def test_processes_are_born_and_watched_only_in_ranks(self):
        offenders = [
            f"{path.relative_to(REPO_ROOT)}: {needle}"
            for path in sorted(self.MPI.rglob("*.py"))
            if path.name != "ranks.py"
            for needle in ("get_context(", ".Process(", ".sentinel")
            if needle in path.read_text()
        ]
        assert offenders == []
        ranks = (self.MPI / "transport" / "ranks.py").read_text()
        assert "get_context(" in ranks and ".Process(" in ranks

    def test_only_two_functions_ask_whether_an_error_is_poison(self):
        askers = set()

        def scan(node, where):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                where = f"{where}.{node.name}"
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and "PoisonedError" in ast.unparse(node.args[1])):
                askers.add(where)
            for child in ast.iter_child_nodes(node):
                scan(child, where)

        for path in sorted(self.MPI.rglob("*.py")):
            scan(ast.parse(path.read_text()), path.name)
        assert askers == {
            "base.py.raise_rank_errors",   # cause over symptom
            "tcp.py.TcpWorldServer.run",   # `recoverable`
        }


class TestMypyStrictSubset:
    def test_strict_subset_passes(self):
        """Mirror of the CI mypy gate; skipped where mypy is not installed."""
        if shutil.which("mypy") is None:
            pytest.skip("mypy not installed in this environment")
        proc = subprocess.run(
            ["mypy", "-p", "repro.common", "-p", "repro.storage",
             "-m", "repro.mpi.transport.codec",
             "-m", "repro.mpi.transport.channel",
             "-m", "repro.workloads.base",
             "-m", "repro.datampi.world"],
            capture_output=True, text=True, cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
