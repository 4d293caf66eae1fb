"""Transport backends: shared semantics, plus backend-specific guarantees.

Every backend must implement the same MPI subset — selective receive,
non-overtaking delivery, collectives, error propagation.  On top of that,
``shm`` must actually cross process boundaries and ``inline`` must be
deterministic and detect deadlock immediately.
"""

import gc
import os
import socket
import time

import pytest

from repro.common.errors import MPIError
from repro.mpi import available_transports, get_transport, mpi_run
from repro.mpi.comm import ANY_SOURCE, ANY_TAG
from repro.mpi.transport import (
    InlineTransport,
    ShmTransport,
    TcpTransport,
    ThreadTransport,
    Transport,
)

TRANSPORTS = ("thread", "shm", "inline", "tcp")

# Named test tags (RPL003: no literal ints at send/recv call sites).
TAG_WRONG = 5
TAG_RIGHT = 9
TAG_ECHO = 3
TAG_NEVER_SENT = 42
TAG_BULK = 11
TAG_NEGATIVE = -1
TAG_COLLECTIVE_BASE = 1 << 20  # the first tag the collectives own
TAG_TOP_USER = TAG_COLLECTIVE_BASE - 1


@pytest.fixture(params=TRANSPORTS)
def transport(request):
    return request.param


class TestRegistry:
    def test_all_backends_registered(self):
        assert set(TRANSPORTS) <= set(available_transports())

    def test_get_by_name(self):
        assert isinstance(get_transport("thread"), ThreadTransport)
        assert isinstance(get_transport("shm"), ShmTransport)
        assert isinstance(get_transport("inline"), InlineTransport)
        assert isinstance(get_transport("tcp"), TcpTransport)

    def test_instance_passthrough(self):
        instance = ThreadTransport()
        assert get_transport(instance) is instance

    def test_unknown_name_rejected(self):
        with pytest.raises(MPIError, match="unknown transport"):
            get_transport("carrier-pigeon")

    def test_default_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSPORT", "inline")
        assert isinstance(get_transport(), InlineTransport)

    def test_default_is_thread(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRANSPORT", raising=False)
        assert isinstance(get_transport(), ThreadTransport)

    def test_backend_options_pass_through(self):
        transport = get_transport("tcp", hosts="127.0.0.1", port=0)
        assert transport.hosts == ["127.0.0.1"]
        plan = get_transport("shm", fault_plan="kill@shuffle:rank=1").fault_plan
        assert [rule.action for rule in plan.rules] == ["kill"]

    def test_unknown_option_names_backend_and_kwarg(self):
        """A kwarg the backend does not accept must raise MPIError naming
        both, not vanish silently or surface a bare TypeError."""
        with pytest.raises(MPIError, match=r"'thread'.*'hosts'"):
            get_transport("thread", hosts="a,b")
        with pytest.raises(MPIError, match=r"'inline'.*'port'"):
            get_transport("inline", port=99)
        with pytest.raises(MPIError, match=r"'shm'.*'hosts'.*fault_plan"):
            get_transport("shm", hosts="a")  # names the accepted options

    def test_options_rejected_on_instance_passthrough(self):
        instance = ThreadTransport()
        with pytest.raises(MPIError, match="already-constructed"):
            get_transport(instance, hosts="a")


class TestSharedSemantics:
    """The contract every backend must honour, run on all of them."""

    def test_send_recv(self, transport):
        def main(comm):
            if comm.rank == 0:
                comm.send(1, "hello")
                return None
            return comm.recv(source=0).payload

        assert mpi_run(2, main, transport=transport) == [None, "hello"]

    def test_fifo_per_pair(self, transport):
        def main(comm):
            if comm.rank == 0:
                for i in range(50):
                    comm.send(1, i)
                return None
            return [comm.recv(source=0).payload for _ in range(50)]

        assert mpi_run(2, main, transport=transport)[1] == list(range(50))

    def test_tag_matching_skips_other_tags(self, transport):
        def main(comm):
            if comm.rank == 0:
                comm.send(1, "wrong", tag=TAG_WRONG)
                comm.send(1, "right", tag=TAG_RIGHT)
                return None
            first = comm.recv(source=0, tag=TAG_RIGHT).payload
            second = comm.recv(source=0, tag=TAG_WRONG).payload
            return (first, second)

        assert mpi_run(2, main, transport=transport)[1] == ("right", "wrong")

    def test_any_source(self, transport):
        def main(comm):
            if comm.rank in (0, 1):
                comm.send(2, comm.rank)
                return None
            return {comm.recv(source=ANY_SOURCE).source for _ in range(2)}

        assert mpi_run(3, main, transport=transport)[2] == {0, 1}

    def test_self_send(self, transport):
        def main(comm):
            comm.send(comm.rank, f"echo-{comm.rank}", tag=TAG_ECHO)
            return comm.recv(source=comm.rank, tag=TAG_ECHO).payload

        assert mpi_run(2, main, transport=transport) == ["echo-0", "echo-1"]

    @pytest.mark.parametrize("chunks, chunk_bytes", [(1, 1 << 20), (200, 64 << 10)],
                             ids=["1x1MiB", "200x64KiB"])
    def test_large_bytes_payload(self, transport, chunks, chunk_bytes):
        # One 1 MiB blob outgrows any socket buffer; a long stream of
        # 64 KiB chunks is the O->A hot path's shape.
        blob = bytes(range(256)) * (chunk_bytes // 256)

        def main(comm):
            if comm.rank == 0:
                for _ in range(chunks):
                    comm.send(1, blob)
                return None
            return [comm.recv(source=0).payload == blob for _ in range(chunks)]

        results = mpi_run(2, main, transport=transport)
        assert results[1] == [True] * chunks

    def test_large_bytes_bcast(self, transport):
        """One writer bcasts 512 KiB to three readers, ten rounds."""
        blob = bytes(range(256)) * 2048

        def main(comm):
            return [comm.bcast(blob if comm.rank == 0 else None, root=0) == blob
                    for _ in range(10)]

        assert mpi_run(4, main, transport=transport) == [[True] * 10] * 4

    @pytest.mark.parametrize("chunk_bytes", [2 << 20, 8 << 20],
                             ids=["2MiB", "8MiB"])
    def test_alltoall_outgrows_the_pair_buffering(self, transport, chunk_bytes):
        """Every rank sends each peer a chunk larger than a socket pair
        buffers: no two ranks may block in sends to each other."""

        def main(comm):
            received = comm.alltoall([bytes([comm.rank]) * chunk_bytes] * comm.size)
            return [chunk == bytes([source]) * chunk_bytes
                    for source, chunk in enumerate(received)]

        assert mpi_run(4, main, transport=transport, timeout=20.0) == \
            [[True] * 4] * 4

    def test_collectives(self, transport):
        def main(comm):
            broadcast = comm.bcast("root" if comm.rank == 0 else None, root=0)
            gathered = comm.gather(comm.rank * 10, root=0)
            everyone = comm.allgather(comm.rank)
            total = comm.allreduce(comm.rank + 1)
            exchanged = comm.alltoall(
                [f"{comm.rank}->{dest}" for dest in range(comm.size)]
            )
            return (broadcast, gathered, everyone, total, exchanged)

        results = mpi_run(3, main, transport=transport)
        for rank, (broadcast, gathered, everyone, total, exchanged) in enumerate(results):
            assert broadcast == "root"
            assert gathered == ([0, 10, 20] if rank == 0 else None)
            assert everyone == [0, 1, 2]
            assert total == 6
            assert exchanged == [f"{src}->{rank}" for src in range(3)]

    def test_scatter_gives_each_rank_its_own_slot(self, transport):
        def main(comm):
            root = 1
            payloads = None
            if comm.rank == root:
                payloads = [f"for-{dest}" for dest in range(comm.size)]
            mine = comm.scatter(payloads, root=root)
            # The root keeps its own slot: the very object, never sent.
            return mine, comm.rank == root and mine is payloads[root]

        results = mpi_run(3, main, transport=transport)
        assert results == [("for-0", False), ("for-1", True), ("for-2", False)]

    def test_scatter_interleaved_with_bcast_and_gather_keeps_its_tags(
            self, transport):
        def main(comm):
            def slots(tag, root):
                if comm.rank != root:
                    return None
                return [(tag, dest) for dest in range(comm.size)]

            first = comm.scatter(slots("s1", 1), root=1)
            told = comm.bcast("b" if comm.rank == 2 else None, root=2)
            gathered = comm.gather(("g", comm.rank), root=0)
            second = comm.scatter(slots("s2", 0), root=0)
            return first, told, gathered, second

        results = mpi_run(3, main, transport=transport)
        for rank, (first, told, gathered, second) in enumerate(results):
            assert first == ("s1", rank)
            assert told == "b"
            assert gathered == ([("g", 0), ("g", 1), ("g", 2)] if rank == 0 else None)
            assert second == ("s2", rank)

    def test_scatter_wrong_length_raises(self, transport):
        def main(comm):
            comm.scatter(["only-one"] if comm.rank == 0 else None)

        with pytest.raises(MPIError, match="scatter needs 2 payloads, got 1"):
            mpi_run(2, main, transport=transport)

    def test_barrier(self, transport):
        def main(comm):
            if comm.rank == 0:
                for dest in range(1, comm.size):
                    comm.send(dest, "pre-barrier")
            comm.barrier()
            if comm.rank != 0:
                # The message must already be deliverable after the barrier.
                return comm.recv(source=0, timeout=5.0).payload
            return None

        assert mpi_run(3, main, transport=transport)[1:] == ["pre-barrier"] * 2

    def test_barrier_interleaved_with_collectives_keeps_rounds_apart(
            self, transport):
        """Barrier draws from the collectives' tag sequence: ten rounds of
        barrier mixed with gather, bcast and alltoall never cross rounds."""
        rounds = 10

        def main(comm):
            seen = []
            for round_ in range(rounds):
                comm.barrier()
                gathered = comm.gather((round_, comm.rank), root=0)
                comm.barrier()
                told = comm.bcast(("b", round_) if comm.rank == 1 else None,
                                  root=1)
                exchanged = comm.alltoall(
                    [(round_, comm.rank, dest) for dest in range(comm.size)]
                )
                comm.barrier()
                seen.append((gathered, told, exchanged))
            return seen

        results = mpi_run(3, main, transport=transport)
        for rank, seen in enumerate(results):
            for round_, (gathered, told, exchanged) in enumerate(seen):
                expected = [(round_, r) for r in range(3)] if rank == 0 else None
                assert gathered == expected
                assert told == ("b", round_)
                assert exchanged == [(round_, src, rank) for src in range(3)]

    def test_writable_memoryview_is_snapshotted_at_send(self, transport):
        """The bytes delivered are the bytes at send time on every backend,
        even when the sender reuses the buffer right after."""
        def main(comm):
            if comm.rank == 0:
                buffer = bytearray(b"before")
                comm.send(1, memoryview(buffer))
                buffer[:] = b"AFTER!"
                return None
            return comm.recv(source=0).payload

        assert mpi_run(2, main, transport=transport)[1] == b"before"

    def test_user_tags_stop_below_the_collective_range(self, transport):
        def main(comm):
            if comm.rank == 0:
                rejected = []
                for tag in (TAG_NEGATIVE, TAG_COLLECTIVE_BASE):
                    try:
                        comm.send(1, "stray", tag=tag)
                    except MPIError as exc:
                        rejected.append(str(exc))
                comm.send(1, "top", tag=TAG_TOP_USER)
            else:
                rejected = comm.recv(source=0, tag=TAG_TOP_USER).payload
            return rejected, comm.gather(comm.rank, root=0)

        results = mpi_run(2, main, transport=transport)
        allowed = f"tag must be in [0, {TAG_COLLECTIVE_BASE})"
        assert results[0] == (
            [f"{allowed}, got -1", f"{allowed}, got {TAG_COLLECTIVE_BASE}"],
            [0, 1],
        )
        assert results[1] == ("top", None)

    def test_exception_propagates(self, transport):
        def main(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            return "ok"

        with pytest.raises(MPIError, match="rank 1"):
            mpi_run(2, main, transport=transport)

    def test_failed_rank_unblocks_barrier_peers(self, transport):
        def main(comm):
            if comm.rank == 0:
                raise RuntimeError("dead rank")
            comm.barrier()

        with pytest.raises(MPIError):
            mpi_run(2, main, transport=transport)

    def test_send_to_invalid_rank(self, transport):
        def main(comm):
            comm.send(99, "x")

        with pytest.raises(MPIError):
            mpi_run(1, main, transport=transport)

    def test_world_size_validation(self, transport):
        with pytest.raises(MPIError):
            mpi_run(0, lambda comm: None, transport=transport)

    def test_results_by_rank(self, transport):
        assert mpi_run(5, lambda comm: comm.rank ** 2, transport=transport) == \
            [0, 1, 4, 9, 16]

    def test_extra_args(self, transport):
        assert mpi_run(
            2, lambda comm, base: base + comm.rank, args=(100,), transport=transport
        ) == [100, 101]


@pytest.mark.parametrize("transport", ("shm", "tcp"))
class TestProcessRanks:
    """Forked-rank backends: a finished rank still drains its peers, and
    a dead one fails them at once."""

    def test_finished_rank_drains_what_peers_still_send(self, transport):
        """A rank that returned still reads its sockets while it waits
        for the launcher's verdict, so a peer sending it far more than
        the socket buffers hold never blocks."""
        blob = b"x" * (1 << 20)

        def main(comm):
            if comm.rank == 0:
                for _ in range(32):
                    comm.send(1, blob, tag=TAG_BULK)
            return comm.rank

        assert mpi_run(2, main, transport=transport, timeout=20.0) == [0, 1]

    def test_send_to_a_dead_rank_fails_at_once(self, transport):
        """A hard-killed rank's sockets EOF at its peers: one blocked
        sending it more than the socket buffers hold fails with the death
        at once instead of waiting out the world's deadline."""
        blob = b"x" * (1 << 20)

        def main(comm):
            if comm.rank == 1:
                os._exit(3)
            for _ in range(32):
                comm.send(1, blob, tag=TAG_BULK)

        started = time.monotonic()
        with pytest.raises(MPIError, match="rank 1 died"):
            mpi_run(2, main, transport=transport, timeout=30.0)
        assert time.monotonic() - started < 10.0


class TestShmSpecifics:
    def test_ranks_are_distinct_processes(self):
        def main(comm):
            return comm.allgather(os.getpid())

        pids = mpi_run(4, main, transport="shm")[0]
        assert len(set(pids)) == 4
        assert os.getpid() not in pids

    def test_recv_timeout_raises(self):
        def main(comm):
            comm.recv(source=0, timeout=0.2)

        with pytest.raises(MPIError, match="timed out|rank 0"):
            mpi_run(1, main, transport="shm")


class TestShmFdLeaks:
    """Every socket and pipe the shm fabric opens is closed on *every*
    exit path: the launcher's open-descriptor count after a run equals
    the count before it, whether the ranks finished, one failed, or the
    fabric never finished building."""

    @staticmethod
    def _open_fds(prefix: str = "") -> int:
        """This process's open descriptors whose target starts with
        ``prefix`` (``"socket:"``, or every one), once unreachable objects
        of earlier tests have released theirs."""
        gc.collect()
        count = 0
        for fd in os.listdir("/proc/self/fd"):
            try:
                count += os.readlink(f"/proc/self/fd/{fd}").startswith(prefix)
            except OSError:
                pass  # the listing's own descriptor, closed by now
        return count

    @pytest.fixture(autouse=True)
    def _warm(self):
        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("needs /proc/self/fd to count open descriptors")
        # One run first: whatever the first fork opens for good is not
        # this fabric's.
        mpi_run(2, lambda comm: None, transport="shm")

    def test_normal_exit_closes_every_fd(self):
        before = self._open_fds()
        assert mpi_run(3, lambda comm: comm.rank, transport="shm") == [0, 1, 2]
        assert self._open_fds() == before

    def test_rank_failure_closes_every_fd(self):
        def main(comm):
            if comm.rank == 1:
                raise RuntimeError("mid-run abort")
            comm.barrier()

        before, sockets = self._open_fds(), self._open_fds("socket:")
        with pytest.raises(MPIError) as caught:
            mpi_run(3, main, transport="shm")
        # The traceback keeps the launcher's frame alive, so a socket it
        # did not close itself would still be open here.
        assert self._open_fds("socket:") == sockets
        del caught
        assert self._open_fds() == before

    def test_abort_mid_fabric_construction_closes_partial_fabric(
        self, monkeypatch
    ):
        """A ``socketpair`` failing part way (descriptors exhausted) must
        close the pairs already made, and fork no rank."""
        real = socket.socketpair
        made = []

        def fourth_fails(*args, **kwargs):
            if len(made) == 3:
                raise OSError("injected fabric construction failure")
            made.append(real(*args, **kwargs))
            return made[-1]

        before = self._open_fds()
        monkeypatch.setattr(socket, "socketpair", fourth_fails)
        with pytest.raises(OSError, match="injected fabric construction"):
            mpi_run(3, lambda comm: None, transport="shm")
        assert len(made) == 3
        assert all(end.fileno() == -1 for pair in made for end in pair)
        assert self._open_fds() == before


class TestInlineSpecifics:
    def test_deterministic_arrival_order(self):
        """Many senders, ANY_SOURCE receiver: arrival order never varies."""

        def main(comm):
            if comm.rank == 0:
                return [comm.recv(source=ANY_SOURCE).source for _ in range(9)]
            for _ in range(3):
                comm.send(0, None)
            return None

        orders = {tuple(mpi_run(4, main, transport="inline")[0]) for _ in range(5)}
        assert len(orders) == 1

    def test_deadlock_detected_immediately(self):
        """A recv that can never match fails fast, not after RECV_TIMEOUT."""
        import time

        def main(comm):
            comm.recv(source=0, tag=TAG_NEVER_SENT, timeout=3600.0)

        start = time.monotonic()
        with pytest.raises(MPIError, match="deadlock"):
            mpi_run(1, main, transport="inline")
        assert time.monotonic() - start < 5.0

    def test_barrier_deadlock_detected_immediately(self):
        """A barrier a peer never enters fails fast, like a blocked recv."""
        import time

        def main(comm):
            if comm.rank == 0:
                comm.barrier(timeout=3600.0)

        start = time.monotonic()
        with pytest.raises(MPIError, match="deadlock"):
            mpi_run(2, main, transport="inline")
        assert time.monotonic() - start < 5.0

    def test_cross_deadlock_detected(self):
        def main(comm):
            # Both ranks receive first: classic deadlock.
            comm.recv(source=1 - comm.rank, timeout=3600.0)

        with pytest.raises(MPIError, match="deadlock"):
            mpi_run(2, main, transport="inline")

    def test_original_error_preferred_over_poison(self):
        def main(comm):
            if comm.rank == 1:
                raise KeyError("the real cause")
            comm.recv(source=1)

        with pytest.raises(MPIError, match="the real cause"):
            mpi_run(2, main, transport="inline")


class TestCustomTransportRegistration:
    def test_register_and_resolve(self):
        from repro.mpi.transport import register_transport

        @register_transport
        class _NullTransport(Transport):
            name = "null-test"

            def run(self, world_size, main, args=(), timeout=300.0):
                return ["null"] * world_size

        try:
            assert "null-test" in available_transports()
            assert mpi_run(3, lambda comm: None, transport="null-test") == ["null"] * 3
        finally:
            from repro.mpi.transport import base as _base

            _base._REGISTRY.pop("null-test", None)
