"""Distributed MatrixRunner: claim files, cooperating workers, determinism.

The distributed strategy (``serve=`` + :func:`run_matrix_worker`) must be
behaviourally indistinguishable from a serial run: the parent stays the
only checkpoint writer, claim files arbitrate cell ownership exactly
once, a dead worker's claims are reclaimed, and the rendered reports are
byte-identical to a serial run of the same spec.
"""

import importlib.util
import json
import os
import pathlib
import pickle
import socket
import threading

import pytest

from repro.common.errors import ConfigError, JobError, MPIError
from repro.experiments.matrix import (
    MATRIX_AUTHKEY_ENV_VAR,
    MatrixRunner,
    _MatrixServer,
    _WK_HELLO,
    _WK_WELCOME,
    _WORKER_PROTO,
    claim_is_stale,
    claim_owner,
    claim_path,
    claim_record,
    refresh_claim,
    release_claim,
    run_matrix_worker,
    try_claim_cell,
)
from repro.mpi.transport import (
    answer_challenge,
    parse_address,
    parse_authkey,
)
from repro.mpi.transport.codec import WIRE_HEADER, recv_frame, send_frame
from repro.experiments.reportbuilder import ReportBuilder
from repro.experiments.spec import CellSpec, ExperimentSpec

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


class TestClaimFiles:
    def test_first_claim_wins(self, tmp_path):
        out = str(tmp_path)
        assert try_claim_cell(out, "cell-a", "hash", "worker-1") is True
        assert try_claim_cell(out, "cell-a", "hash", "worker-2") is False
        assert claim_owner(out, "cell-a") == "worker-1"

    def test_release_makes_cell_claimable_again(self, tmp_path):
        out = str(tmp_path)
        assert try_claim_cell(out, "cell-a", "hash", "worker-1")
        release_claim(out, "cell-a")
        assert claim_owner(out, "cell-a") is None
        assert try_claim_cell(out, "cell-a", "hash", "worker-2")

    def test_release_of_unclaimed_cell_is_a_noop(self, tmp_path):
        release_claim(str(tmp_path), "never-claimed")

    def test_claim_records_owner_and_spec_hash(self, tmp_path):
        out = str(tmp_path)
        try_claim_cell(out, "cell-b", "deadbeef", "worker-3")
        with open(claim_path(out, "cell-b"), encoding="utf-8") as handle:
            record = json.load(handle)
        assert record["owner"] == "worker-3"
        assert record["spec_hash"] == "deadbeef"

    def test_concurrent_claims_yield_exactly_one_winner(self, tmp_path):
        out = str(tmp_path)
        wins: list[str] = []
        barrier = threading.Barrier(8)

        def contender(name: str) -> None:
            barrier.wait()
            if try_claim_cell(out, "contested", "hash", name):
                wins.append(name)

        threads = [threading.Thread(target=contender, args=(f"w{i}",))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert len(wins) == 1
        assert claim_owner(out, "contested") == wins[0]

    def test_refresh_claim_keeps_cell_claimed_under_new_owner(self, tmp_path):
        """Re-stamping (a reconnected worker's new identity) must never
        open a window where the cell looks unclaimed."""
        out = str(tmp_path)
        assert try_claim_cell(out, "cell-a", "hash", "worker-1")
        refresh_claim(out, "cell-a", "hash", "worker-2")
        assert claim_owner(out, "cell-a") == "worker-2"
        assert not try_claim_cell(out, "cell-a", "hash", "worker-3")

    def test_claim_staleness_rules(self):
        local = socket.gethostname()
        assert claim_is_stale(None)
        assert claim_is_stale({})  # pre-liveness record: no pid at all
        # This very process's pid marks a *previous incarnation* of the
        # parent (a restarted parent reuses nothing else), so it is stale.
        assert claim_is_stale({"pid": os.getpid(), "host": local})
        assert claim_is_stale({"pid": "not-a-pid", "host": local})
        # pid 1 is alive on any Linux box, and not provably ours to kill.
        assert not claim_is_stale({"pid": 1, "host": local})
        # A remote host's claim is not provably dead from here.
        assert not claim_is_stale({"pid": 12345, "host": "elsewhere"})

    def test_claims_record_pid_and_host_for_liveness(self, tmp_path):
        out = str(tmp_path)
        assert try_claim_cell(out, "cell-a", "hash", "worker-1")
        record = claim_record(out, "cell-a")
        assert record["pid"] == os.getpid()
        assert record["host"] == socket.gethostname()


class TestDistributedExecution:
    def test_parent_and_worker_split_the_matrix(self, tmp_path):
        spec = small_spec()
        serial = MatrixRunner(spec, str(tmp_path / "serial")).run()
        runner = MatrixRunner(spec, str(tmp_path / "dist"), serve=SERVE)
        result, executed = run_with_workers(runner, num_workers=1)
        assert not result.failed_cells()
        assert result.executed == len(spec.cells)
        # Work genuinely split: the worker claimed at least one cell.
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

    def test_no_claim_files_left_behind(self, tmp_path):
        runner = MatrixRunner(small_spec(), str(tmp_path), serve=SERVE)
        run_with_workers(runner, num_workers=1)
        leftovers = [name for name in os.listdir(tmp_path / "cells")
                     if name.endswith(".claim")]
        assert leftovers == []

    def test_interrupt_releases_parent_claims(self, tmp_path, monkeypatch):
        """A Ctrl-C mid-served-run must not leave the parent's claim
        files behind — a leftover claim looks like a live owner and
        blocks the cell until the next run's debris sweep."""
        spec = small_spec()
        out = str(tmp_path)
        runner = MatrixRunner(spec, out, serve=SERVE)

        def claim_then_die(self, server, remaining, record):
            for cell in list(remaining.values())[:3]:
                assert try_claim_cell(out, cell.cell_id, spec.spec_hash,
                                      "parent")
            raise KeyboardInterrupt

        monkeypatch.setattr(MatrixRunner, "_serve_cells", claim_then_die)
        with pytest.raises(KeyboardInterrupt):
            runner.run()
        leftovers = [name for name in os.listdir(tmp_path / "cells")
                     if name.endswith(".claim")]
        assert leftovers == []
        # The interrupted run resumes: a fresh runner finishes the spec.
        result = MatrixRunner(spec, out).run()
        assert not result.failed_cells()

    def test_parent_alone_completes_a_served_run(self, tmp_path):
        """Serving with no worker ever joining must still finish."""
        runner = MatrixRunner(small_spec(), str(tmp_path), serve=SERVE)
        result = runner.run()
        assert not result.failed_cells()
        assert result.executed == len(small_spec().cells)

    def test_stale_claims_from_a_dead_run_are_swept(self, tmp_path):
        """Claims left by a previous (crashed) run must not block cells."""
        spec = small_spec()
        out = str(tmp_path)
        for cell in spec.cells:
            assert try_claim_cell(out, cell.cell_id, spec.spec_hash,
                                  "worker-from-last-tuesday")
        result = MatrixRunner(spec, out, serve=SERVE).run()
        assert not result.failed_cells()
        assert result.executed == len(spec.cells)

    def test_worker_reconnects_after_dropped_result_send(self, tmp_path,
                                                         monkeypatch):
        """A worker whose socket dies with a result in hand must reconnect
        to the still-serving parent, re-stamp its claim with the identity
        the parent hands back, and resend — losing neither the cell nor
        the run."""
        import repro.experiments.matrix as matrix_module

        spec = small_spec()
        out = str(tmp_path)
        real_claim = matrix_module.try_claim_cell

        def workers_only(out_dir, cell_id, spec_hash, owner):
            # Keep the parent from racing the worker to the cells: every
            # result in this test must travel the worker's socket.
            if owner == "parent":
                return False
            return real_claim(out_dir, cell_id, spec_hash, owner)

        real_send = matrix_module.send_frame
        dropped: list[int] = []

        def flaky_send(sock, kind, *args, **kwargs):
            if (kind == matrix_module._WK_RESULT and not dropped
                    and threading.current_thread().name == "flaky-worker"):
                dropped.append(kind)
                sock.close()
                raise OSError("injected: connection reset mid-result")
            return real_send(sock, kind, *args, **kwargs)

        monkeypatch.setattr(matrix_module, "try_claim_cell", workers_only)
        monkeypatch.setattr(matrix_module, "send_frame", flaky_send)

        runner = MatrixRunner(spec, out, serve=SERVE, worker_timeout=60.0)
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
        """resume=False deletes the stale checkpoints, so joined workers
        (which decide from the files on disk) re-execute cells instead of
        silently degrading the run to parent-only."""
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
        """A claim whose owner was admitted but died before streaming its
        result must be released and re-executed by the parent."""
        spec = small_spec()
        out = str(tmp_path)
        victim = spec.cells[0].cell_id

        import repro.experiments.matrix as matrix_module

        original = matrix_module._run_cell_worker

        def dying_worker(address: str) -> None:
            # A worker that claims its first cell and then vanishes
            # without sending the result (its socket closes with it).
            def die(payload):
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
        assert victim in {r.spec.cell_id for r in result.results}


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
        return _MatrixServer(small_spec(), str(tmp_path), "127.0.0.1:0", 0.02)

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


class TestClaimAtomicity:
    def test_claim_file_never_observable_without_owner(self, tmp_path):
        """A reader racing the claimant must never see a claim file
        without its owner record — the JSON is linked into place whole,
        so a mid-write window would let the coordinator mistake a live
        claim for a dead one and double-execute the cell."""
        out = str(tmp_path)
        stop = threading.Event()
        bad: list[str] = []

        def reader() -> None:
            path = claim_path(out, "contested")
            while not stop.is_set():
                try:
                    with open(path, encoding="utf-8") as handle:
                        content = handle.read()
                except FileNotFoundError:
                    continue
                try:
                    doc = json.loads(content)
                except ValueError:
                    bad.append(content)
                    continue
                if "owner" not in doc:
                    bad.append(content)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for _ in range(300):
                assert try_claim_cell(out, "contested", "hash", "w")
                release_claim(out, "contested")
        finally:
            stop.set()
            thread.join(10.0)
        assert bad == []

    def test_no_temp_files_left_behind(self, tmp_path):
        out = str(tmp_path)
        assert try_claim_cell(out, "cell-a", "hash", "winner")
        assert not try_claim_cell(out, "cell-a", "hash", "loser")
        leftovers = [name for name in os.listdir(tmp_path / "cells")
                     if name.endswith(".tmp")]
        assert leftovers == []

    def test_orphaned_temp_files_are_swept(self, tmp_path):
        """A claimant killed mid-claim leaves its temp file behind; the
        distributed run's startup sweep must clear it."""
        from repro.experiments.matrix import sweep_claim_debris

        os.makedirs(tmp_path / "cells", exist_ok=True)
        orphan = tmp_path / "cells" / "cell-x.claim.deadhost.123.456.tmp"
        orphan.write_text("{}")
        sweep_claim_debris(str(tmp_path))
        assert not orphan.exists()


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
        import time

        import repro.experiments.matrix as matrix_module

        monkeypatch.setattr(matrix_module, "_WK_HELLO_TIMEOUT", 0.3)
        spec = small_spec()
        runner = MatrixRunner(spec, str(tmp_path), serve=SERVE)
        # Slow the parent down so the matrix outlives the stray's timeout
        # window and the admitted worker demonstrably claims cells.
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
