"""Failure semantics pinned across *all four* backends.

Every transport must present the same :class:`MPIError` surface for the
two failure families that matter to the job drivers:

* **recv timeout / can-never-match** — a blocked receive surfaces
  ``MPIError`` (the inline scheduler proves non-delivery instantly and
  says "deadlock"; the others wait out the timeout and say "timed out" —
  both are the same contract: raise, never hang);
* **peer death** — when a rank raises, is hard-killed, or abandons a
  collective, every *other* rank blocked on it must fail fast via the
  backend's poison path, and the run must report the original failure,
  not the poison symptom.

This suite is parametrized over the full backend list so a new transport
(tcp was added this way) cannot ship with divergent failure behaviour.
"""

import multiprocessing
import os
import pickle
import signal
import threading
import time
from contextlib import contextmanager

import pytest

from repro.common.errors import MPIError
from repro.mpi import mpi_run
from repro.mpi.transport import ranks as rank_supervisor
from repro.workloads import RunParams, run_workload, wordcount_reference

ALL_BACKENDS = ("thread", "shm", "inline", "tcp")

#: Backends whose ranks are OS processes a hard kill can take out.
PROCESS_BACKENDS = ("shm", "tcp")

#: Timeout given to receives that must be cut short by peer death.
LONG_RECV = 60.0

# Named test tags (RPL003: no literal ints at send/recv call sites).
TAG_NEVER_SENT = 7
TAG_BLOCKED = 3
TAG_NOISE = 1
TAG_OTHER = 2
TAG_CHUNK = 5

#: A poisoned rank must fail well inside this monotonic budget.  The
#: property under test is "poison cut the 60s receive short", so the
#: budget is half the receive timeout — generous enough that a loaded
#: CI runner cannot flake it, while still proving the receive never ran
#: to its timeout.
FAIL_FAST_BUDGET = LONG_RECV / 2


@contextmanager
def fail_fast():
    """Assert the block finished before a generous monotonic deadline."""
    deadline = time.monotonic() + FAIL_FAST_BUDGET
    yield
    overshoot = time.monotonic() - deadline
    assert overshoot < 0, (
        f"expected fail-fast poison well inside {FAIL_FAST_BUDGET}s, "
        f"overshot the deadline by {overshoot:.1f}s — the rank likely "
        f"waited out its receive timeout instead"
    )


@pytest.fixture(params=ALL_BACKENDS)
def backend(request):
    return request.param


@pytest.fixture(params=PROCESS_BACKENDS)
def process_backend(request):
    return request.param


class TestRecvTimeout:
    def test_unsatisfiable_recv_raises_mpierror(self, backend):
        """Nobody ever sends tag 7: MPIError, never a hang."""

        def main(comm):
            if comm.rank == 1:
                comm.recv(source=0, tag=TAG_NEVER_SENT, timeout=0.3)
            return None

        with fail_fast(), pytest.raises(MPIError, match="timed out|deadlock"):
            mpi_run(2, main, transport=backend)

    def test_single_rank_self_deadlock(self, backend):
        def main(comm):
            comm.recv(source=0, tag=TAG_BLOCKED, timeout=0.2)

        with pytest.raises(MPIError, match="timed out|deadlock|rank 0"):
            mpi_run(1, main, transport=backend)

    def test_mismatched_tag_does_not_satisfy_recv(self, backend):
        """Selective receive must not be satisfied by a near-miss; the
        timeout error is the proof the message was (correctly) skipped."""

        def main(comm):
            if comm.rank == 0:
                comm.send(1, "noise", tag=TAG_NOISE)
                return None
            comm.recv(source=0, tag=TAG_OTHER, timeout=0.3)
            return None

        with pytest.raises(MPIError, match="timed out|deadlock"):
            mpi_run(2, main, transport=backend)


class TestPeerDeath:
    def test_original_error_wins_over_poison(self, backend):
        """The run reports the rank that *caused* the failure, not the
        ranks that were poisoned awake by it."""

        def main(comm):
            if comm.rank == 0:
                raise RuntimeError("the original failure")
            comm.recv(source=0, tag=TAG_BLOCKED, timeout=LONG_RECV)

        with pytest.raises(MPIError, match="the original failure"):
            mpi_run(2, main, transport=backend)

    def test_blocked_recv_fails_fast_after_peer_death(self, backend):
        """Peer death must cut a long-timeout receive short."""

        def main(comm):
            if comm.rank == 0:
                raise RuntimeError("early death")
            comm.recv(source=0, tag=TAG_BLOCKED, timeout=LONG_RECV)

        with fail_fast(), pytest.raises(MPIError):
            mpi_run(3, main, transport=backend)

    def test_blocked_barrier_fails_fast_after_peer_death(self, backend):
        def main(comm):
            if comm.rank == 0:
                raise RuntimeError("no barrier for you")
            comm.barrier(timeout=LONG_RECV)

        with fail_fast(), pytest.raises(MPIError):
            mpi_run(3, main, transport=backend)

    def test_blocked_collective_fails_fast_after_peer_death(self, backend):
        def main(comm):
            if comm.rank == 2:
                raise RuntimeError("gather will never complete")
            return comm.gather(comm.rank, root=0)

        with fail_fast(), pytest.raises(MPIError, match="gather will never complete"):
            mpi_run(3, main, transport=backend)


class TestHardKill:
    """SIGKILL-grade death: the rank reports nothing, its process simply
    vanishes.  Only the process backends can lose a rank this way."""

    def test_killed_rank_is_reported_not_awaited(self, process_backend):
        def main(comm):
            if comm.rank == 0:
                os._exit(17)  # no exception, no cleanup, no goodbye
            comm.recv(source=0, tag=TAG_BLOCKED, timeout=LONG_RECV)

        with fail_fast(), pytest.raises(MPIError, match="died without reporting|aborted|peer"):
            mpi_run(2, main, transport=process_backend)

    def test_killed_rank_unblocks_whole_world(self, process_backend):
        def main(comm):
            if comm.rank == 1:
                os._exit(1)
            comm.barrier(timeout=LONG_RECV)

        with fail_fast(), pytest.raises(MPIError):
            mpi_run(4, main, transport=process_backend)

    def test_survivor_results_are_not_fabricated(self, process_backend):
        """After a kill, the launcher must raise — never return a result
        list with holes where the dead rank's value would be."""

        def main(comm):
            if comm.rank == 0:
                os._exit(3)
            return "survivor"

        with pytest.raises(MPIError):
            mpi_run(2, main, transport=process_backend)


#: The run deadline of the cases below, and how long their deaf rank
#: ignores the world (no receive, so poison cannot reach it).
RUN_DEADLINE = 1.0
DEAF_FOR = 8.0

#: ``RUN_DEADLINE`` plus reaping a rank that honours SIGTERM.
DEADLINE_BUDGET = 4.0


def deaf(seconds: float = DEAF_FOR) -> None:
    """Block without touching the communicator."""
    threading.Event().wait(seconds)


class TestRunDeadline:
    """The run's deadline is a backstop, not a verdict: a cause already
    reported must survive it, on every backend, in the same words."""

    def test_deadline_does_not_mask_the_cause(self, backend):
        def main(comm):
            if comm.rank == 0:
                raise ValueError("the real cause")
            deaf()

        started = time.monotonic()
        with pytest.raises(MPIError, match="the real cause"):
            mpi_run(2, main, timeout=RUN_DEADLINE, transport=backend)
        assert time.monotonic() - started < DEADLINE_BUDGET

    def test_deadline_without_a_cause_names_the_configured_timeout(
            self, backend):
        def main(comm):
            if comm.rank == 1:
                deaf()

        started = time.monotonic()
        with pytest.raises(MPIError, match=r"did not finish in 1\.0s"):
            mpi_run(2, main, timeout=RUN_DEADLINE, transport=backend)
        assert time.monotonic() - started < DEADLINE_BUDGET


class TestNoRankOutlivesItsWorld:
    @pytest.mark.slow
    def test_sigterm_ignoring_rank_is_killed(self, process_backend,
                                             monkeypatch):
        """Reaping escalates: a rank that ignores ``terminate`` is gone
        all the same when ``run`` returns.  (The grace period is cut so
        two backends do not add ten seconds of waiting to the suite.)"""
        monkeypatch.setattr(rank_supervisor, "REAP_GRACE", 1.0)

        def main(comm):
            if comm.rank == 0:
                raise RuntimeError("the world ends here")
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            deaf()

        with pytest.raises(MPIError, match="the world ends here"):
            mpi_run(2, main, timeout=RUN_DEADLINE, transport=process_backend)
        assert multiprocessing.active_children() == []


class Unsendable(Exception):
    """Module-level, so only its attribute stands between it and pickle."""


class TestDegradedOutcome:
    """An outcome that cannot cross the process boundary still arrives as
    an ``MPIError`` naming the rank — and says what failed to encode."""

    def test_unpicklable_result_says_why(self, process_backend):
        def main(comm):
            return (lambda: None) if comm.rank == 1 else None

        with pytest.raises(
            MPIError,
            match=r"rank 1: <function .*<lambda>.*could not be sent "
                  r"\(\w+: .*pickle",
        ):
            mpi_run(2, main, transport=process_backend)

    def test_unpicklable_exception_attribute_says_why(self, process_backend):
        def main(comm):
            if comm.rank == 1:
                error = Unsendable("kept in the repr")
                error.handle = lambda: None
                raise error

        with pytest.raises(
            MPIError,
            match=r"rank 1: Unsendable\('kept in the repr'\) could not be "
                  r"sent \(\w+: .*pickle",
        ):
            mpi_run(2, main, transport=process_backend)


class TestDataPlaneNeverPickles:
    """Acceptance for the typed binary codec: ``bytes`` chunk payloads
    must cross every backend without passing through ``pickle``.

    The canary replaces ``pickle.dumps`` with a wrapper that raises the
    moment a top-level bytes-like object is serialized.  Control-plane
    objects (tuples, EOF ``None`` markers, outcome reports) may still
    pickle — only the data plane is under test.  Fork-based backends
    (shm, tcp) inherit the patched function, so a violation in a child
    process surfaces as that rank's error and fails the run loudly.
    """

    @pytest.fixture(autouse=True)
    def _pickle_canary(self, monkeypatch):
        real_dumps = pickle.dumps

        def guard(obj, *args, **kwargs):
            if isinstance(obj, (bytes, bytearray, memoryview)):
                raise AssertionError(
                    "data-plane violation: a bytes payload reached "
                    "pickle.dumps"
                )
            return real_dumps(obj, *args, **kwargs)

        monkeypatch.setattr(pickle, "dumps", guard)

    def test_bytes_payloads_skip_pickle(self, backend):
        """A ring of raw byte chunks (several below and one above the shm
        batch threshold) must be delivered as ``bytes``, unpickled."""

        def main(comm):
            peer = (comm.rank + 1) % comm.size
            chunks = [b"chunk-%03d" % i for i in range(20)]
            chunks.append(b"x" * (64 * 1024))  # past any batch threshold
            for chunk in chunks:
                comm.send(peer, chunk, tag=TAG_CHUNK)
            comm.send(peer, bytearray(b"mutable"), tag=TAG_CHUNK)
            source = (comm.rank - 1) % comm.size
            got = [comm.recv(source=source, tag=TAG_CHUNK) for _ in range(22)]
            assert all(isinstance(m.payload, bytes) for m in got)
            return sum(len(m.payload) for m in got)

        expected = sum(len(c) for c in
                       [b"chunk-%03d" % i for i in range(20)]) + 64 * 1024 + 7
        assert mpi_run(3, main, transport=backend) == [expected] * 3

    def test_datampi_job_runs_under_canary(self, backend):
        """A full O/A job (encoded chunks + control traffic) completes
        with the canary armed: the chunks travelled FMT_RAW end to end."""

        lines = [f"alpha beta gamma delta line {i}" for i in range(40)]
        record = run_workload("wordcount", "datampi", lines,
                              RunParams(parallelism=2, transport=backend))
        assert record.output == wordcount_reference(lines)
