"""The rank supervisor (:mod:`repro.mpi.transport.ranks`) on its own.

Real socket pairs, real forked children — ``wait`` is never mocked: the
properties pinned here are about what the kernel reports (EOF, a ready
sentinel, data and sentinel ready in one wake-up), so only the kernel
can vouch for them.  Each rank's control socket is a pair: the launcher
reads ``channels[rank]``, the rank writes ``ranks[rank]``.
"""

import multiprocessing
import os
import select
import signal
import socket
import threading
import time

import pytest

from repro.common.errors import MPIError
from repro.mpi import faultinject
from repro.mpi.transport import ranks as supervisor
from repro.mpi.transport.base import PoisonedError
from repro.mpi.transport.codec import WIRE_HEADER, recv_frame, send_frame
from repro.mpi.transport.ranks import (
    KIND_ABORT,
    KIND_DATA,
    KIND_OUTCOME,
    ForkedRanks,
    collect_outcomes,
    fork_context,
    report_outcome,
)

TIMEOUT = 30.0


class Controls:
    """``n`` control socket pairs: the launcher's ends and the ranks'."""

    def __init__(self, n):
        pairs = [socket.socketpair() for _ in range(n)]
        self.channels = [launcher for launcher, _ in pairs]
        self.ranks = [rank_side for _, rank_side in pairs]
        for rank_side in self.ranks:
            rank_side.settimeout(TIMEOUT)  # a poison that never comes fails

    def report(self, rank, status, value):
        send_frame(self.ranks[rank], KIND_OUTCOME, obj=(rank, status, value))

    def close(self):
        for sock in self.channels + self.ranks:
            sock.close()


@pytest.fixture
def controls():
    made = []

    def make(n):
        made.append(Controls(n))
        return made[-1]

    yield make
    for each in made:
        each.close()


@pytest.fixture
def forked():
    family = ForkedRanks(fork_context("this test", "skip it"))
    yield family
    family.reap()


def readable(sock):
    return bool(select.select([sock], [], [], 0)[0])


def kinds_waiting(sock):
    """The kinds of the frames already waiting on ``sock``."""
    kinds = []
    while readable(sock):
        kinds.append(recv_frame(sock)[0])
    return kinds


class TestCollect:
    def test_results_by_rank_whatever_the_arrival_order(self, controls):
        world = controls(4)
        for rank in (2, 0, 3, 1):
            world.report(rank, "ok", f"result-{rank}")
        results, errors, dead = collect_outcomes(world.channels, TIMEOUT)
        assert results == [f"result-{rank}" for rank in range(4)]
        assert errors == [] and dead == set()
        assert all(kinds_waiting(end) == [] for end in world.ranks)

    def test_outcomes_arriving_while_waiting(self, controls):
        world = controls(2)
        world.report(1, "ok", "early")
        late = threading.Timer(0.2, world.report, [0, "ok", "late"])
        late.start()
        try:
            results, _errors, _dead = collect_outcomes(world.channels, TIMEOUT)
        finally:
            late.join()
        assert results == ["late", "early"]

    def test_eof_is_a_death(self, controls):
        world = controls(2)
        world.report(0, "ok", "fine")
        world.ranks[1].close()
        results, errors, dead = collect_outcomes(world.channels, TIMEOUT)
        assert results == ["fine", None]
        assert dead == {1}
        [(rank, error)] = errors
        assert rank == 1 and isinstance(error, MPIError)
        assert str(error) == "rank 1 died without reporting a result"

    def test_poison_goes_out_once_to_the_ranks_still_pending(
            self, controls, wait_until):
        """Rank 0 is in before rank 2 fails; ranks 1 and 3 answer the
        poison like real ranks — 1 with the echo, then 3 with its result —
        and each gets exactly one ABORT frame."""
        world = controls(4)
        poisoned = []

        def drained(rank):  # the launcher has read all rank sent it
            wait_until(lambda: not readable(world.channels[rank]), TIMEOUT)

        def ranks_answering_the_poison():
            drained(0)
            world.report(2, "err", ValueError("first"))
            for rank in (1, 3):
                poisoned.append((rank, recv_frame(world.ranks[rank])[0]))
            world.report(1, "err", PoisonedError("echo"))
            drained(1)
            world.report(3, "ok", 3)

        world.report(0, "ok", 0)
        answering = threading.Thread(target=ranks_answering_the_poison)
        answering.start()
        try:
            results, errors, dead = collect_outcomes(world.channels, TIMEOUT)
        finally:
            answering.join(TIMEOUT)
        assert poisoned == [(1, KIND_ABORT), (3, KIND_ABORT)]
        assert [kinds_waiting(end) for end in world.ranks] == [[]] * 4
        assert [rank for rank, _ in errors] == [2, 1]
        assert results == [0, None, None, 3] and dead == set()


class TestCollectOverSockets:
    """No ``processes``: what ``TcpWorldServer`` has for joined ranks."""

    def test_stray_message_is_skipped_and_the_outcome_after_it_taken(
            self, controls):
        world = controls(1)
        send_frame(world.ranks[0], KIND_DATA, obj="not an outcome")
        world.report(0, "ok", "the outcome")
        results, errors, dead = collect_outcomes(world.channels, TIMEOUT)
        assert results == ["the outcome"] and not errors and not dead

    def test_closed_socket_is_a_death(self, controls):
        world = controls(1)
        send_frame(world.ranks[0], KIND_DATA, obj="last words, not an outcome")
        world.ranks[0].close()
        _results, errors, dead = collect_outcomes(world.channels, TIMEOUT)
        assert dead == {0}
        assert str(errors[0][1]) == "rank 0 died without reporting a result"

    def test_frame_torn_mid_payload_is_a_death(self, controls):
        world = controls(1)
        world.ranks[0].sendall(WIRE_HEADER.pack(KIND_OUTCOME, 0, -1, 0, 100)
                               + b"only ten b")
        world.ranks[0].close()
        _results, errors, dead = collect_outcomes(world.channels, TIMEOUT)
        assert dead == {0}
        assert str(errors[0][1]) == "rank 0 died without reporting a result"


class TestCollectWithProcesses:
    def test_child_that_reports_and_exits_is_never_called_dead(
            self, controls, forked):
        """Outcome and sentinel become ready in the same wake-up; the
        outcome must win every time."""
        rounds = 50
        world = controls(rounds)
        for rank in range(rounds):
            forked.spawn(
                f"prompt-{rank}",
                lambda rank=rank: world.report(rank, "ok", rank),
                None,
            )
            # Let the child exit first, so both are ready when we look.
            forked.processes[rank].join(TIMEOUT)
        results, errors, dead = collect_outcomes(
            world.channels, TIMEOUT, forked.processes)
        assert results == list(range(rounds))
        assert errors == [] and dead == set()

    def test_exited_child_is_named_with_its_exit_code(self, controls, forked):
        """A process forked meanwhile still holds the vanished rank's
        end, so its socket never EOFs: only the sentinel tells.  The
        death poisons rank 0, still pending: it reports the kind of the
        first frame it receives, so it reports only once poisoned."""
        world = controls(2)

        def reports_once_poisoned():
            world.report(0, "ok", recv_frame(world.ranks[0])[0])

        forked.spawn("reports", reports_once_poisoned, None)
        forked.spawn("vanishes", lambda: os._exit(7), None)
        holder = ForkedRanks(fork_context("this test", "skip it"))
        holder.spawn("holds", lambda: threading.Event().wait(TIMEOUT), None)
        try:
            world.ranks[1].close()
            results, errors, dead = collect_outcomes(
                world.channels, TIMEOUT, forked.processes)
            assert holder.processes[0].is_alive()
        finally:
            holder.reap()
        assert results == [KIND_ABORT, None] and dead == {1}
        assert str(errors[0][1]) == (
            "rank 1 died without reporting a result (exit code 7)")
        assert kinds_waiting(world.ranks[0]) == []  # one ABORT, not two


class TestDeadline:
    def test_cause_reported_before_the_deadline_is_what_it_raises(
            self, controls):
        world = controls(3)
        world.report(2, "err", PoisonedError("woken by rank 1"))
        world.report(1, "err", ValueError("the real cause"))
        started = time.monotonic()
        with pytest.raises(MPIError, match="rank 1 failed.*the real cause"):
            collect_outcomes(world.channels, 0.3)
        assert time.monotonic() - started < 5.0

    def test_symptoms_alone_do_not_explain_a_deadline(self, controls):
        world = controls(2)
        world.report(1, "err", PoisonedError("woken, by whom?"))
        with pytest.raises(MPIError,
                           match=r"ranks \[0\] did not finish in 0\.3s"):
            collect_outcomes(world.channels, 0.3)

    def test_a_run_wide_deadline_still_names_the_configured_timeout(
            self, controls):
        world = controls(2)
        world.report(0, "ok", None)
        with pytest.raises(MPIError,
                           match=r"ranks \[1\] did not finish in 9\.0s"):
            collect_outcomes(world.channels, 9.0,
                             deadline=time.monotonic() + 0.2)


class TestReportOutcome:
    def test_sendable_outcome_goes_out_as_is(self, controls):
        world = controls(1)
        report_outcome(world.ranks[0], 3, ("ok", 42))
        assert recv_frame(world.channels[0]) == (KIND_OUTCOME, 0, (3, "ok", 42))

    def test_unsendable_outcome_degrades_and_says_why(self, controls):
        world = controls(1)
        report_outcome(world.ranks[0], 3, ("ok", lambda: None))
        kind, _tag, (rank, status, error) = recv_frame(world.channels[0])
        assert (kind, rank, status) == (KIND_OUTCOME, 3, "err")
        assert isinstance(error, MPIError)
        assert str(error).startswith("rank 3: <function ")
        assert "could not be sent (" in str(error)
        assert "pickle" in str(error).lower()
        assert not readable(world.channels[0])  # nothing torn went out first


class TestForkedRanks:
    def test_child_runs_under_its_own_plan_and_is_killable(
            self, controls, forked):
        """A stale plan in the parent must not leak into a rank that was
        given none; the plan a rank was given is the one installed."""
        faultinject.install("raise@o-phase")
        world = controls(2)

        def report(rank):
            plan = faultinject.installed()
            world.report(rank, "ok", None if plan is None else plan.encode())

        forked.spawn("clean", lambda: report(0), None)
        forked.spawn("planned", lambda: report(1),
                     faultinject.parse_fault_plan("delay@shuffle:delay=0.5"))
        results, _errors, _dead = collect_outcomes(
            world.channels, TIMEOUT, forked.processes)
        assert results[0] is None
        assert results[1].startswith("delay@shuffle")
        assert [p.name for p in forked.processes] == ["clean", "planned"]
        assert all(p.daemon for p in forked.processes)

    def test_reap_kills_what_terminate_could_not(self, controls, monkeypatch):
        monkeypatch.setattr(supervisor, "REAP_GRACE", 0.5)
        family = ForkedRanks(fork_context("this test", "skip it"))
        world = controls(1)

        def stubborn():
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            world.report(0, "ok", "deaf to SIGTERM from here on")
            threading.Event().wait(TIMEOUT)

        family.spawn("stubborn", stubborn, None)
        assert recv_frame(world.channels[0])[2][1] == "ok"
        family.reap()
        assert family.exitcodes == [-signal.SIGKILL]
        assert multiprocessing.active_children() == []

    def test_no_fork_no_transport(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        with pytest.raises(MPIError, match="shm transport needs the fork "
                                           "start method.*use the thread"):
            fork_context("shm transport", "use the thread transport instead")
