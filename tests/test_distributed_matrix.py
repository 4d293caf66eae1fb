"""Distributed MatrixRunner: the parent's queue, cooperating workers, determinism.

The distributed strategy (``serve=`` + :func:`run_matrix_worker`) must be
behaviourally indistinguishable from a serial run: the parent stays the
only checkpoint writer, its queue hands every cell out exactly once, a
dead worker's cell goes back into it, and the rendered reports are
byte-identical to a serial run of the same spec.
"""

import importlib.util
import os
import pathlib
import pickle
import select
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.common.errors import ConfigError, JobError, MPIError
import repro.experiments.matrix as matrix_module
import repro.experiments.workers as workers_module
from repro.experiments.matrix import (
    MATRIX_AUTHKEY_ENV_VAR,
    CellResult,
    MatrixRunner,
    run_matrix_worker,
)
from repro.experiments.workers import (
    _MatrixServer,
    _WK_BYE,
    _WK_CELL,
    _WK_HELLO,
    _WK_RESULT,
    _WK_WELCOME,
    _WORKER_PROTO,
)
from repro.mpi.transport import (
    answer_challenge,
    parse_address,
    parse_authkey,
)
from repro.mpi.transport.channel import connect_authenticated
from repro.mpi.transport.codec import WIRE_HEADER, recv_frame, send_frame
from repro.experiments.reportbuilder import ReportBuilder
from repro.experiments.spec import CellSpec, ExperimentSpec, full_spec

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "diff_reports", REPO_ROOT / "scripts" / "diff_reports.py"
)
diff_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_reports)

SERVE = "127.0.0.1:0"  # ephemeral port; the bound address is on the runner


@pytest.fixture(autouse=True)
def _no_ambient_authkeys(monkeypatch):
    """An operator's exported authkeys must not leak into the key
    generation / token-embedding assertions."""
    monkeypatch.delenv("REPRO_TCP_AUTHKEY", raising=False)
    monkeypatch.delenv("REPRO_MATRIX_AUTHKEY", raising=False)


def small_spec(**kwargs) -> ExperimentSpec:
    kwargs.setdefault("max_iterations", 3)
    return ExperimentSpec("small-distributed", (
        CellSpec("wordcount", "common", "datampi", "tiny", "inline"),
        CellSpec("wordcount", "common", "hadoop-model", "tiny"),
        CellSpec("wordcount", "common", "spark-model", "tiny"),
        CellSpec("grep", "common", "datampi", "tiny", "inline"),
        CellSpec("kmeans", "iteration", "datampi", "tiny", "inline"),
        CellSpec("naive_bayes", "iteration", "datampi", "tiny", "inline"),
    ), **kwargs)


def deterministic_record(result):
    return {
        r.spec.cell_id: (r.status, r.bytes_moved, r.output_checksum,
                         r.iterations, r.per_iteration_bytes, r.counters)
        for r in result.results
    }


def run_with_workers(runner: MatrixRunner, num_workers: int,
                     resume: bool = True):
    """Drive a serving runner plus ``num_workers`` in-process workers
    (threads running the exact CLI worker entry point)."""
    executed: dict[int, int] = {}

    def worker(slot: int) -> None:
        executed[slot] = run_matrix_worker(runner.serve, connect_timeout=15.0)

    threads = [threading.Thread(target=worker, args=(slot,))
               for slot in range(num_workers)]
    for thread in threads:
        thread.start()
    result = runner.run(resume=resume)
    for thread in threads:
        thread.join(30.0)
    return result, executed


def join_raw(address: str) -> tuple[socket.socket, dict]:
    """A hand-driven worker: authenticated and admitted, nothing asked
    yet.  Returns its socket and the ``WELCOME`` payload."""
    sock = connect_authenticated(
        parse_address(address), parse_authkey(address), 10.0)
    assert sock is not None
    sock.settimeout(10.0)
    send_frame(sock, _WK_HELLO, obj={"proto": _WORKER_PROTO})
    frame = recv_frame(sock)
    assert frame is not None and frame[0] == _WK_WELCOME
    return sock, frame[2]


def ask(sock: socket.socket, result: dict | None = None):
    """One request/response turn of a hand-driven worker: hand over
    ``result`` (a result document, or nothing), get the next frame."""
    send_frame(sock, _WK_RESULT, obj={"result": result})
    return recv_frame(sock)


def fake_result(cell: CellSpec) -> dict:
    return CellResult(spec=cell, output_checksum="made-up").to_dict()


def bare_server(spec: ExperimentSpec | None = None) -> _MatrixServer:
    return _MatrixServer(spec or small_spec(), "127.0.0.1:0", 0.02)


class TestDistributedExecution:
    def test_parent_and_worker_split_the_matrix(self, tmp_path):
        spec = small_spec()
        serial = MatrixRunner(spec, str(tmp_path / "serial")).run()
        runner = MatrixRunner(spec, str(tmp_path / "dist"), serve=SERVE)
        result, executed = run_with_workers(runner, num_workers=1)
        assert not result.failed_cells()
        assert result.executed == len(spec.cells)
        # Work genuinely split: the worker took at least one cell.
        assert executed[0] >= 1
        assert executed[0] < len(spec.cells)
        assert deterministic_record(result) == deterministic_record(serial)

    def test_reports_byte_identical_to_serial(self, tmp_path):
        spec = small_spec()
        MatrixRunner(spec, str(tmp_path / "serial")).run()
        runner = MatrixRunner(spec, str(tmp_path / "dist"), serve=SERVE)
        run_with_workers(runner, num_workers=2)
        from repro.experiments.matrix import load_matrix

        ReportBuilder(load_matrix(str(tmp_path / "serial")),
                      str(tmp_path / "rep-serial")).build()
        ReportBuilder(load_matrix(str(tmp_path / "dist")),
                      str(tmp_path / "rep-dist")).build()
        assert diff_reports.compare_reports(
            tmp_path / "rep-serial", tmp_path / "rep-dist") == []

    def test_interrupt_leaves_only_cell_checkpoints(self, tmp_path,
                                                    monkeypatch):
        """A Ctrl-C mid-served-run leaves nothing under ``cells/`` but
        finished cells' checkpoints, and the next run resumes from them."""
        spec = small_spec()
        out = str(tmp_path)
        original = MatrixRunner.execute_cell
        calls: list[str] = []

        def interrupted_at_third(self, cell):
            calls.append(cell.cell_id)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return original(self, cell)

        monkeypatch.setattr(MatrixRunner, "execute_cell", interrupted_at_third)
        with pytest.raises(KeyboardInterrupt):
            MatrixRunner(spec, out, serve=SERVE).run()
        assert sorted(os.listdir(tmp_path / "cells")) == \
            sorted(f"{cell_id}.json" for cell_id in calls[:2])
        monkeypatch.setattr(MatrixRunner, "execute_cell", original)
        result = MatrixRunner(spec, out, serve=SERVE).run()
        assert not result.failed_cells()
        assert (result.resumed, result.executed) == (2, len(spec.cells) - 2)

    def test_parent_alone_completes_a_served_run(self, tmp_path):
        """Serving with no worker ever joining must still finish."""
        runner = MatrixRunner(small_spec(), str(tmp_path), serve=SERVE)
        result = runner.run()
        assert not result.failed_cells()
        assert result.executed == len(small_spec().cells)

    def test_worker_reconnects_after_dropped_result_send(self, tmp_path,
                                                         monkeypatch):
        """A worker whose socket dies with a result in hand must reconnect
        to the still-serving parent and resend — losing neither the cell
        nor the run, and computing no cell twice."""
        spec = small_spec()
        # Keep the parent off the queue: every result in this test must
        # travel the worker's socket.
        monkeypatch.setattr(_MatrixServer, "take", lambda self: None)

        real_send = workers_module.send_frame
        dropped: list[int] = []

        def flaky_send(sock, kind, *args, **kwargs):
            if (kind == _WK_RESULT and kwargs["obj"]["result"] is not None
                    and not dropped
                    and threading.current_thread().name == "flaky-worker"):
                dropped.append(kind)
                sock.close()
                raise OSError("injected: connection reset mid-result")
            return real_send(sock, kind, *args, **kwargs)

        monkeypatch.setattr(workers_module, "send_frame", flaky_send)

        runner = MatrixRunner(spec, str(tmp_path), serve=SERVE,
                              worker_timeout=60.0)
        executed: dict[str, int] = {}

        def worker() -> None:
            executed["n"] = run_matrix_worker(runner.serve,
                                              connect_timeout=15.0)

        thread = threading.Thread(target=worker, name="flaky-worker")
        thread.start()
        result = runner.run()
        thread.join(30.0)
        assert dropped, "the injected socket drop never fired"
        assert executed["n"] == len(spec.cells)
        assert not result.failed_cells()
        assert {r.spec.cell_id for r in result.results} == \
            {cell.cell_id for cell in spec.cells}

    def test_serve_on_explicit_port(self, tmp_path, bind_retry):
        """An operator-chosen rendezvous port works end to end (probed
        via the shared free_port fixture, retried if stolen)."""
        spec = small_spec()

        def attempt(port: int) -> MatrixRunner:
            return MatrixRunner(spec, str(tmp_path),
                                serve=f"127.0.0.1:{port}",
                                worker_timeout=60.0)

        runner = bind_retry(attempt)
        result, _executed = run_with_workers(runner, num_workers=1)
        assert not result.failed_cells()
        assert result.executed == len(spec.cells)

    def test_distributed_resumes_serial_checkpoints(self, tmp_path):
        """Strategy is not part of the spec hash: a distributed run picks
        up a serial run's finished cells."""
        spec = small_spec()
        out = str(tmp_path)
        MatrixRunner(spec, out).run()
        runner = MatrixRunner(spec, out, serve=SERVE)
        result = runner.run()
        assert result.executed == 0
        assert result.resumed == len(spec.cells)

    def test_no_resume_keeps_workers_in_the_game(self, tmp_path):
        """resume=False queues every cell again, so joined workers take
        their share instead of the run degrading to parent-only."""
        spec = small_spec()
        out = str(tmp_path)
        MatrixRunner(spec, out).run()
        runner = MatrixRunner(spec, out, serve=SERVE)
        result, executed = run_with_workers(runner, num_workers=1,
                                            resume=False)
        assert result.resumed == 0
        assert result.executed == len(spec.cells)
        assert executed[0] >= 1  # the worker genuinely participated

    def test_worker_skips_checkpointed_cells(self, tmp_path):
        spec = small_spec()
        out = str(tmp_path)
        MatrixRunner(spec, out).run()
        runner = MatrixRunner(spec, out, serve=SERVE)
        result, executed = run_with_workers(runner, num_workers=1)
        assert executed[0] == 0
        assert result.resumed == len(spec.cells)

    def test_mid_claim_worker_death_is_reclaimed(self, tmp_path, monkeypatch):
        """A cell whose worker was admitted but died before streaming its
        result must go back into the queue and be re-executed."""
        spec = small_spec()
        out = str(tmp_path)

        original = matrix_module._run_cell_worker
        victims: list[str] = []

        def dying_worker(address: str) -> None:
            # A worker that is handed its first cell and then vanishes
            # without sending the result (its socket closes with it).
            def die(payload):
                victims.append(CellSpec.from_dict(payload["cell"]).cell_id)
                raise SystemExit(0)

            monkeypatch.setattr(matrix_module, "_run_cell_worker", die)
            try:
                run_matrix_worker(address, connect_timeout=15.0)
            except BaseException:
                pass
            finally:
                monkeypatch.setattr(matrix_module, "_run_cell_worker",
                                    original)

        runner = MatrixRunner(spec, out, serve=SERVE, worker_timeout=60.0)
        thread = threading.Thread(target=dying_worker, args=(runner.serve,))
        thread.start()
        result = runner.run()
        thread.join(30.0)
        assert not result.failed_cells()
        assert {r.spec.cell_id for r in result.results} == \
            {cell.cell_id for cell in spec.cells}
        assert len(victims) <= 1
        assert result.executed == len(spec.cells)

    def test_worker_needs_no_mount_in_common_with_the_parent(
        self, tmp_path, monkeypatch
    ):
        """The parent's ``--out`` is relative and the worker runs from an
        unrelated, empty directory: the run completes, the worker writes
        nothing anywhere, and ``cells/`` holds one checkpoint per cell."""
        spec = small_spec()
        (tmp_path / "parent").mkdir()
        (tmp_path / "worker").mkdir()
        monkeypatch.chdir(tmp_path / "parent")
        runner = MatrixRunner(spec, "matrix-dist", serve=SERVE,
                              worker_timeout=60.0)
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "experiment", "worker",
             "--join", runner.serve],
            cwd=tmp_path / "worker", text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        original = MatrixRunner.execute_cell
        progress_lines: list[str] = []

        def after_the_workers_first_cell(self, cell):
            # The worker prints "joining ..." and then one line per cell
            # it executed: the parent computes nothing before the second.
            while len(progress_lines) < 2:
                progress_lines.append(worker.stdout.readline())
            return original(self, cell)

        monkeypatch.setattr(MatrixRunner, "execute_cell",
                            after_the_workers_first_cell)
        try:
            result = runner.run()
            output = "".join(progress_lines) + worker.communicate(timeout=30)[0]
        finally:
            worker.kill()
        assert worker.returncode == 0, output
        assert "cell(s) executed" in output and "0 cell(s)" not in output
        assert not result.failed_cells()
        assert os.listdir(tmp_path / "worker") == []
        assert sorted(os.listdir(tmp_path / "parent" / "matrix-dist" / "cells")) \
            == sorted(f"{cell.cell_id}.json" for cell in spec.cells)

    def test_failed_run_closes_the_listener(self, tmp_path):
        """The listener is bound at construction; a run() that fails
        before serving anything must still close it, or a joining worker
        hangs to its handshake timeout against nobody."""
        blocker = tmp_path / "a-regular-file"
        blocker.write_text("")
        runner = MatrixRunner(small_spec(), str(blocker / "sub"), serve=SERVE)
        with pytest.raises(NotADirectoryError):
            runner.run()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(parse_address(runner.serve), timeout=5.0)

    def test_silent_worker_stalls_the_run_at_worker_timeout(self, tmp_path,
                                                            monkeypatch):
        """A connected worker that took a cell and never answers must
        not hang the run past ``worker_timeout``."""
        spec = small_spec()
        runner = MatrixRunner(spec, str(tmp_path), serve=SERVE,
                              worker_timeout=0.5)
        holding = threading.Event()
        release = threading.Event()

        def silent_worker() -> None:
            sock, _welcome = join_raw(runner.serve)
            try:
                frame = ask(sock)
                if frame is not None and frame[0] == _WK_CELL:
                    holding.set()
                release.wait(60.0)
            finally:
                sock.close()

        original = MatrixRunner.execute_cell

        def once_the_worker_holds_a_cell(self, cell):
            assert holding.wait(30.0)
            return original(self, cell)

        monkeypatch.setattr(MatrixRunner, "execute_cell",
                            once_the_worker_holds_a_cell)
        thread = threading.Thread(target=silent_worker)
        thread.start()
        try:
            with pytest.raises(JobError, match="distributed matrix stalled"):
                runner.run()
        finally:
            release.set()
            thread.join(30.0)
        assert not thread.is_alive()
        # Everything but the silent worker's cell was recorded.
        assert len(os.listdir(tmp_path / "cells")) == len(spec.cells) - 1


class TestTheParentsQueue:
    """The server alone, driven by hand-written workers: who gets a cell,
    what a result does to the queue, what a death does to it."""

    def test_welcome_carries_the_spec_and_nothing_of_the_filesystem(self):
        spec = small_spec()
        with bare_server(spec) as server:
            sock, welcome = join_raw(server.address)
            sock.close()
        assert welcome == {"spec": spec.to_dict(), "interval": 0.02}

    def test_run_over_is_a_goodbye_not_a_hangup(self):
        with bare_server() as server:
            sock, _welcome = join_raw(server.address)
            send_frame(sock, _WK_RESULT, obj={"result": None})
        try:
            frame = recv_frame(sock)
            assert frame is not None and frame[0] == _WK_BYE
        finally:
            sock.close()

    def test_dead_workers_cell_is_requeued_within_two_seconds(self):
        spec = small_spec()
        with bare_server(spec) as server:
            server.offer(spec.cells[:1])
            sock, _welcome = join_raw(server.address)
            frame = ask(sock)
            assert frame[0] == _WK_CELL
            assert frame[2] == {"cell": spec.cells[0].to_dict()}
            assert server.take() is None  # it is the worker's now
            sock.close()
            died = time.monotonic()
            assert server.wait(2.0)
            assert server.take() == spec.cells[0]
            assert time.monotonic() - died < 2.0
            assert server.drain() == []

    @pytest.mark.parametrize("bad", [
        {"not-result": 1},
        ["not", "a", "dict"],
        {"result": "not a result document"},
        {"result": {"status": "ok"}},
    ], ids=["missing-result", "non-dict", "non-dict-result", "partial-result"])
    def test_malformed_result_drops_the_worker_and_requeues_its_cell(
        self, bad
    ):
        spec = small_spec()
        with bare_server(spec) as server:
            server.offer(spec.cells[:2])
            sock, _welcome = join_raw(server.address)
            try:
                assert ask(sock)[0] == _WK_CELL
                send_frame(sock, _WK_RESULT, obj=bad)
                assert recv_frame(sock) is None  # dropped: EOF, no goodbye
            finally:
                sock.close()
            # Its cell is back at the *front*, and the server still serves.
            assert server.take() == spec.cells[0]
            assert server.drain() == []
            good, _welcome = join_raw(server.address)
            try:
                assert ask(good)[2] == {"cell": spec.cells[1].to_dict()}
            finally:
                good.close()

    def test_unasked_result_is_recorded_once(self):
        """A restarted parent's worker resends what it computed for the
        previous one: recorded while that cell is still queued, dropped
        once it is recorded."""
        spec = small_spec()
        first, second, third = spec.cells[:3]
        with bare_server(spec) as server:
            server.offer([first, second, third])
            sock, _welcome = join_raw(server.address)
            try:
                frame = ask(sock, fake_result(third))
                assert frame[2] == {"cell": first.to_dict()}
                assert [cell_id for cell_id, _result in server.drain()] == \
                    [third.cell_id]
                # The same result again, instead of an answer: dropped,
                # and the unanswered cell comes straight back.
                frame = ask(sock, fake_result(third))
                assert frame[2] == {"cell": first.to_dict()}
                assert server.drain() == []
                frame = ask(sock, fake_result(first))
                assert frame[2] == {"cell": second.to_dict()}
                assert [cell_id for cell_id, _result in server.drain()] == \
                    [first.cell_id]
                assert server.take() is None
            finally:
                sock.close()

    def test_result_for_a_cell_the_parent_took_is_dropped(self):
        spec = small_spec()
        with bare_server(spec) as server:
            server.offer(spec.cells[:2])
            mine = server.take()
            sock, _welcome = join_raw(server.address)
            try:
                assert ask(sock, fake_result(mine))[0] == _WK_CELL
                assert server.drain() == []
            finally:
                sock.close()

    def test_every_cell_is_recorded_exactly_once_under_churn(self):
        """More workers than cores, a preemptive scheduler, workers that
        keep dying with a cell in hand, and the parent taking cells too:
        no cell is lost and none is recorded twice."""
        cells = full_spec().cells
        recorded: list[str] = []

        def worker(slot: int, address: str) -> None:
            sock, result, turns = None, None, 0
            try:
                while True:
                    if sock is None:
                        sock, result = join_raw(address)[0], None
                    frame = ask(sock, result)
                    if frame is None or frame[0] != _WK_CELL:
                        return
                    turns += 1
                    if turns % 4 == slot % 4:  # dies holding this cell
                        sock.close()
                        sock = None
                    else:
                        result = fake_result(CellSpec.from_dict(frame[2]["cell"]))
            except (OSError, AssertionError):
                pass  # the run ended while this worker was rejoining
            finally:
                if sock is not None:
                    sock.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with bare_server() as server:
                server.offer(cells)
                threads = [threading.Thread(target=worker,
                                            args=(slot, server.address))
                           for slot in range(8)]
                for thread in threads:
                    thread.start()
                executing = threading.Event()  # never set: a bounded pause
                while len(recorded) < len(cells):
                    mine = server.take()
                    if mine is not None:
                        executing.wait(0.002)  # the parent's cell takes a moment
                        recorded.append(mine.cell_id)
                    else:
                        assert server.wait(20.0), "the queue stalled"
                    recorded += [cell_id for cell_id, _r in server.drain()]
            for thread in threads:
                thread.join(20.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(recorded) == sorted(cell.cell_id for cell in cells)

    def test_requeued_cell_goes_to_exactly_one_idle_worker(self, wait_until):
        spec = small_spec()
        with bare_server(spec) as server:
            server.offer(spec.cells[:1])
            doomed, _welcome = join_raw(server.address)
            assert ask(doomed)[0] == _WK_CELL
            idle = [join_raw(server.address)[0] for _ in range(2)]
            try:
                for sock in idle:  # both ask; the queue is empty
                    send_frame(sock, _WK_RESULT, obj={"result": None})
                wait_until(lambda: len(server._in_flight) == 3)
                assert select.select(idle, [], [], 0.2)[0] == []
                doomed.close()
                winners, _w, _x = select.select(idle, [], [], 10.0)
                assert len(winners) == 1
                frame = recv_frame(winners[0])
                assert frame[2] == {"cell": spec.cells[0].to_dict()}
                loser = next(sock for sock in idle if sock is not winners[0])
                assert select.select([loser], [], [], 0.5)[0] == []
                assert server.take() is None
            finally:
                doomed.close()
                for sock in idle:
                    sock.close()


class _EvilPayload:
    """Pickle whose deserialisation has a visible side effect — if the
    flag directory ever appears, unauthenticated bytes were unpickled."""

    def __init__(self, path: str):
        self.path = path

    def __reduce__(self):
        return (os.mkdir, (self.path,))


class TestWorkerAuthentication:
    """The worker protocol unpickles frames, so every connection must
    clear the HMAC challenge first; the key rides the join token or the
    environment, never the wire."""

    def _server(self, tmp_path) -> _MatrixServer:
        return bare_server()

    def test_join_token_embeds_a_generated_key(self, tmp_path):
        runner = MatrixRunner(small_spec(), str(tmp_path), serve=SERVE)
        assert parse_authkey(runner.serve) is not None
        runner.run()  # parent alone finishes; also tears the server down

    def test_keyless_worker_gets_a_clear_error(self, tmp_path):
        with self._server(tmp_path) as server:
            bare = "{}:{}".format(*parse_address(server.address))
            with pytest.raises(JobError, match="requires an authkey"):
                run_matrix_worker(bare, connect_timeout=5.0)

    def test_wrong_key_worker_is_rejected(self, tmp_path):
        with self._server(tmp_path) as server:
            host, port = parse_address(server.address)
            with pytest.raises(MPIError, match="rejected|mismatch"):
                run_matrix_worker(f"{host}:{port}/wrong-key",
                                  connect_timeout=5.0)

    def test_env_key_round_trip(self, tmp_path, monkeypatch):
        """The CI shape: both sides share the key via the environment and
        the printed address stays a plain HOST:PORT."""
        monkeypatch.setenv(MATRIX_AUTHKEY_ENV_VAR, "ci-style-shared-key")
        runner = MatrixRunner(small_spec(), str(tmp_path), serve=SERVE)
        assert parse_authkey(runner.serve) is None
        result, executed = run_with_workers(runner, num_workers=1)
        assert not result.failed_cells()
        assert executed[0] >= 1

    def test_malformed_hello_does_not_kill_the_acceptor(self, tmp_path):
        """A hello whose payload is not a dict must drop that connection
        only — the single acceptor thread has to keep admitting."""
        with self._server(tmp_path) as server:
            key = parse_authkey(server.address).encode("utf-8")
            host_port = parse_address(server.address)
            bad = socket.create_connection(host_port)
            try:
                bad.settimeout(5.0)
                assert answer_challenge(bad, key)
                send_frame(bad, _WK_HELLO, obj=["not", "a", "dict"])
                good = socket.create_connection(host_port)
                try:
                    good.settimeout(10.0)
                    assert answer_challenge(good, key)
                    send_frame(good, _WK_HELLO, obj={"proto": _WORKER_PROTO})
                    frame = recv_frame(good)
                    assert frame is not None and frame[0] == _WK_WELCOME
                finally:
                    good.close()
            finally:
                bad.close()

    def test_unauthenticated_pickle_is_never_loaded(self, tmp_path):
        """A crafted frame sent without answering the challenge must be
        dropped before deserialisation, and admission must survive it."""
        flag = str(tmp_path / "pwned")
        payload = pickle.dumps(_EvilPayload(flag))
        with self._server(tmp_path) as server:
            key = parse_authkey(server.address).encode("utf-8")
            host_port = parse_address(server.address)
            attacker = socket.create_connection(host_port)
            try:
                attacker.sendall(
                    WIRE_HEADER.pack(_WK_HELLO, 1, 0, 0, len(payload)) + payload
                )
                good = socket.create_connection(host_port)
                try:
                    good.settimeout(10.0)
                    assert answer_challenge(good, key)
                    send_frame(good, _WK_HELLO, obj={"proto": _WORKER_PROTO})
                    frame = recv_frame(good)
                    assert frame is not None and frame[0] == _WK_WELCOME
                finally:
                    good.close()
            finally:
                attacker.close()
        assert not os.path.exists(flag)


class TestWorkersValidation:
    """`--parallel 0` is documented (CPU count); everything else bogus
    must be a one-line ConfigError, never a pool traceback."""

    def test_negative_workers_one_line_error(self, tmp_path):
        with pytest.raises(ConfigError, match="must be >= 0"):
            MatrixRunner(small_spec(), str(tmp_path), workers=-3)

    def test_non_integer_workers_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="must be an integer"):
            MatrixRunner(small_spec(), str(tmp_path), workers=2.5)

    def test_bool_workers_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="must be an integer"):
            MatrixRunner(small_spec(), str(tmp_path), workers=True)

    def test_serve_and_pool_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(ConfigError, match="mutually exclusive"):
            MatrixRunner(small_spec(), str(tmp_path), workers=4, serve=SERVE)


class TestWorkerEntryPoint:
    def test_worker_without_parent_fails_cleanly(self):
        with pytest.raises(JobError, match="no matrix parent serving"):
            run_matrix_worker("127.0.0.1:9", connect_timeout=0.5)

    def test_worker_against_mute_listener_errors_instead_of_hanging(self):
        """Joining a wrong-but-listening port (some other service) must
        surface a JobError once the handshake times out, not hang."""
        import socket as socket_module

        mute = socket_module.socket()
        mute.bind(("127.0.0.1", 0))
        mute.listen(1)
        host, port = mute.getsockname()[:2]
        try:
            with pytest.raises(JobError, match="never answered"):
                run_matrix_worker(f"{host}:{port}", connect_timeout=1.0)
        finally:
            mute.close()

    def test_silent_stray_connection_does_not_block_admission(
        self, tmp_path, monkeypatch
    ):
        """One connection that never sends a hello must not wedge the
        acceptor: a real worker arriving later still gets admitted."""
        import socket as socket_module

        monkeypatch.setattr(workers_module, "_WK_HELLO_TIMEOUT", 0.3)
        spec = small_spec()
        runner = MatrixRunner(spec, str(tmp_path), serve=SERVE)
        # Slow the parent down so the matrix outlives the stray's timeout
        # window and the admitted worker demonstrably takes cells.
        original = MatrixRunner.execute_cell

        def slowed(self, cell):
            # Injected latency, not polling: the test needs the parent
            # to be demonstrably slower than the stray's timeout.
            time.sleep(0.7)  # repro: allow[RPL004]
            return original(self, cell)

        monkeypatch.setattr(MatrixRunner, "execute_cell", slowed)
        from repro.mpi.transport import parse_address

        stray = socket_module.create_connection(parse_address(runner.serve))
        try:
            result, executed = run_with_workers(runner, num_workers=1)
        finally:
            stray.close()
        assert not result.failed_cells()
        assert executed[0] >= 1  # the real worker was admitted and worked
