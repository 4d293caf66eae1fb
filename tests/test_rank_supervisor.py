"""The rank supervisor (:mod:`repro.mpi.transport.ranks`) on its own.

Real pipes, real sockets, real forked children — ``wait`` is never
mocked: the properties pinned here are about what the kernel reports
(EOF, a ready sentinel, data and sentinel ready in one wake-up), so only
the kernel can vouch for them.
"""

import multiprocessing
import os
import signal
import socket
import threading
import time

import pytest

from repro.common.errors import MPIError
from repro.mpi import faultinject
from repro.mpi.transport import ranks
from repro.mpi.transport.base import PoisonedError
from repro.mpi.transport.codec import recv_frame, send_frame
from repro.mpi.transport.ranks import (
    KEEP_WAITING,
    ForkedRanks,
    collect_outcomes,
    fork_context,
    report_outcome,
)

KIND_STRAY = 1
KIND_OUTCOME = 5

TIMEOUT = 30.0


class Pipes:
    """``n`` result pipes plus the ``read`` a pipe transport supplies."""

    def __init__(self, n):
        ends = [multiprocessing.Pipe(duplex=False) for _ in range(n)]
        self.readers = [reader for reader, _ in ends]
        self.writers = [writer for _, writer in ends]

    def read(self, rank):
        try:
            return self.readers[rank].recv()
        except EOFError:
            return None

    def close(self):
        for conn in self.readers + self.writers:
            conn.close()


@pytest.fixture
def pipes():
    made = []

    def make(n):
        made.append(Pipes(n))
        return made[-1]

    yield make
    for each in made:
        each.close()


@pytest.fixture
def forked():
    family = ForkedRanks(fork_context("this test", "skip it"))
    yield family
    family.reap()


class Poison:
    """Records every call; a transport's poison must be called once."""

    def __init__(self):
        self.calls = []

    def __call__(self, still_running):
        self.calls.append(still_running)


def no_poison(still_running):
    raise AssertionError(f"poisoned {still_running} without a failure")


class TestCollectOverPipes:
    def test_results_by_rank_whatever_the_arrival_order(self, pipes):
        world = pipes(4)
        for rank in (2, 0, 3, 1):
            world.writers[rank].send(("ok", f"result-{rank}"))
        results, errors, dead = collect_outcomes(
            world.readers, world.read, no_poison, TIMEOUT)
        assert results == [f"result-{rank}" for rank in range(4)]
        assert errors == [] and dead == set()

    def test_outcomes_arriving_while_waiting(self, pipes):
        world = pipes(2)
        world.writers[1].send(("ok", "early"))
        late = threading.Timer(0.2, world.writers[0].send, [("ok", "late")])
        late.start()
        try:
            results, _errors, _dead = collect_outcomes(
                world.readers, world.read, no_poison, TIMEOUT)
        finally:
            late.join()
        assert results == ["late", "early"]

    def test_eof_is_a_death(self, pipes):
        world = pipes(2)
        world.writers[0].send(("ok", "fine"))
        world.writers[1].close()
        poison = Poison()
        results, errors, dead = collect_outcomes(
            world.readers, world.read, poison, TIMEOUT)
        assert results == ["fine", None]
        assert dead == {1}
        [(rank, error)] = errors
        assert rank == 1 and isinstance(error, MPIError)
        assert str(error) == "rank 1 died without reporting a result"

    def test_poison_called_once_with_the_ranks_still_pending(self, pipes):
        world = pipes(4)
        world.writers[0].send(("ok", 0))
        poison = Poison()

        def read(rank):
            outcome = world.read(rank)
            if rank == 0:  # rank 0 is in: now 2 fails, then 1, then 3 ends
                world.writers[2].send(("err", ValueError("first")))
            elif rank == 2:
                world.writers[1].send(("err", PoisonedError("echo")))
            elif rank == 1:
                world.writers[3].send(("ok", 3))
            return outcome

        results, errors, dead = collect_outcomes(
            world.readers, read, poison, TIMEOUT)
        assert poison.calls == [[1, 3]]
        assert [rank for rank, _ in errors] == [2, 1]
        assert results == [0, None, None, 3] and dead == set()


class TestCollectOverSockets:
    """No ``processes``: what ``TcpWorldServer`` has for joined ranks."""

    @pytest.fixture
    def pair(self):
        launcher, rank_side = socket.socketpair()
        yield launcher, rank_side
        launcher.close()
        rank_side.close()

    @staticmethod
    def reader(launcher):
        def read(_rank):
            frame = recv_frame(launcher)
            if frame is None:
                return None
            kind, _tag, obj = frame
            return obj if kind == KIND_OUTCOME else KEEP_WAITING

        return read

    def test_stray_message_is_skipped_and_the_outcome_after_it_taken(
            self, pair):
        launcher, rank_side = pair
        send_frame(rank_side, KIND_STRAY, obj="not an outcome")
        send_frame(rank_side, KIND_OUTCOME, obj=("ok", "the outcome"))
        results, errors, dead = collect_outcomes(
            [launcher], self.reader(launcher), no_poison, TIMEOUT)
        assert results == ["the outcome"] and not errors and not dead

    def test_closed_socket_is_a_death(self, pair):
        launcher, rank_side = pair
        send_frame(rank_side, KIND_STRAY, obj="last words, not an outcome")
        rank_side.close()
        _results, errors, dead = collect_outcomes(
            [launcher], self.reader(launcher), Poison(), TIMEOUT)
        assert dead == {0}
        assert str(errors[0][1]) == "rank 0 died without reporting a result"


class TestCollectWithProcesses:
    def test_child_that_reports_and_exits_is_never_called_dead(
            self, pipes, forked):
        """Outcome and sentinel become ready in the same wake-up; the
        outcome must win every time."""
        rounds = 50
        world = pipes(rounds)
        for rank in range(rounds):
            forked.spawn(
                f"prompt-{rank}",
                lambda rank=rank: world.writers[rank].send(("ok", rank)),
                None,
            )
            # Let the child exit first, so both are ready when we look.
            forked.processes[rank].join(TIMEOUT)
        results, errors, dead = collect_outcomes(
            world.readers, world.read, no_poison, TIMEOUT, forked.processes)
        assert results == list(range(rounds))
        assert errors == [] and dead == set()

    def test_exited_child_is_named_with_its_exit_code(self, pipes, forked):
        """The parent (like every sibling) still holds the write end, so
        the pipe never EOFs: only the sentinel tells."""
        world = pipes(2)
        forked.spawn("reports", lambda: world.writers[0].send(("ok", "in")),
                     None)
        forked.spawn("vanishes", lambda: os._exit(7), None)
        poison = Poison()
        results, errors, dead = collect_outcomes(
            world.readers, world.read, poison, TIMEOUT, forked.processes)
        assert results == ["in", None] and dead == {1}
        assert str(errors[0][1]) == (
            "rank 1 died without reporting a result (exit code 7)")
        assert len(poison.calls) == 1


class TestDeadline:
    def test_cause_reported_before_the_deadline_is_what_it_raises(
            self, pipes):
        world = pipes(3)
        world.writers[2].send(("err", PoisonedError("woken by rank 1")))
        world.writers[1].send(("err", ValueError("the real cause")))
        started = time.monotonic()
        with pytest.raises(MPIError, match="rank 1 failed.*the real cause"):
            collect_outcomes(world.readers, world.read, Poison(), 0.3)
        assert time.monotonic() - started < 5.0

    def test_symptoms_alone_do_not_explain_a_deadline(self, pipes):
        world = pipes(2)
        world.writers[1].send(("err", PoisonedError("woken, by whom?")))
        with pytest.raises(MPIError,
                           match=r"ranks \[0\] did not finish in 0\.3s"):
            collect_outcomes(world.readers, world.read, Poison(), 0.3)

    def test_a_run_wide_deadline_still_names_the_configured_timeout(
            self, pipes):
        world = pipes(2)
        world.writers[0].send(("ok", None))
        with pytest.raises(MPIError,
                           match=r"ranks \[1\] did not finish in 9\.0s"):
            collect_outcomes(world.readers, world.read, no_poison, 9.0,
                             deadline=time.monotonic() + 0.2)


class TestReportOutcome:
    def test_sendable_outcome_goes_out_as_is(self):
        sent = []
        report_outcome(sent.append, 3, ("ok", 42))
        assert sent == [("ok", 42)]

    def test_unsendable_outcome_degrades_and_says_why(self, pipes):
        world = pipes(1)
        report_outcome(world.writers[0].send, 3, ("ok", lambda: None))
        status, error = world.readers[0].recv()
        assert status == "err" and isinstance(error, MPIError)
        assert str(error).startswith("rank 3: <function ")
        assert "could not be sent (" in str(error)
        assert "pickle" in str(error).lower()


class TestForkedRanks:
    def test_child_runs_under_its_own_plan_and_is_killable(
            self, pipes, forked):
        """A stale plan in the parent must not leak into a rank that was
        given none; the plan a rank was given is the one installed."""
        faultinject.install("raise@o-phase")
        world = pipes(2)

        def report(rank):
            plan = faultinject.installed()
            world.writers[rank].send(
                ("ok", None if plan is None else plan.encode()))

        forked.spawn("clean", lambda: report(0), None)
        forked.spawn("planned", lambda: report(1),
                     faultinject.parse_fault_plan("delay@shuffle:delay=0.5"))
        results, _errors, _dead = collect_outcomes(
            world.readers, world.read, no_poison, TIMEOUT, forked.processes)
        assert results[0] is None
        assert results[1].startswith("delay@shuffle")
        assert [p.name for p in forked.processes] == ["clean", "planned"]
        assert all(p.daemon for p in forked.processes)

    def test_reap_kills_what_terminate_could_not(self, pipes, monkeypatch):
        monkeypatch.setattr(ranks, "REAP_GRACE", 0.5)
        family = ForkedRanks(fork_context("this test", "skip it"))
        world = pipes(1)

        def stubborn():
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            world.writers[0].send(("ok", "deaf to SIGTERM from here on"))
            threading.Event().wait(TIMEOUT)

        family.spawn("stubborn", stubborn, None)
        assert world.readers[0].recv()[0] == "ok"
        family.reap()
        assert family.exitcodes == [-signal.SIGKILL]
        assert multiprocessing.active_children() == []

    def test_no_fork_no_transport(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        with pytest.raises(MPIError, match="shm transport needs the fork "
                                           "start method.*use the thread"):
            fork_context("shm transport", "use the thread transport instead")
