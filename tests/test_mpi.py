"""Tests for the in-process MPI substrate."""

import pytest

from repro.common import MPIError
from repro.mpi import ANY_SOURCE, ANY_TAG, Comm, World, mpi_run
from repro.mpi.transport import ThreadEndpoint

# Named test tags (RPL003: no literal ints at send/recv call sites).
TAG_WRONG = 5
TAG_RIGHT = 9


class TestPointToPoint:
    def test_send_recv(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(1, "hello")
                return None
            message = comm.recv(source=0)
            return message.payload

        results = mpi_run(2, main)
        assert results == [None, "hello"]

    def test_fifo_per_pair(self):
        def main(comm):
            if comm.rank == 0:
                for i in range(10):
                    comm.send(1, i)
                return None
            return [comm.recv(source=0).payload for _ in range(10)]

        results = mpi_run(2, main)
        assert results[1] == list(range(10))

    def test_tag_matching_skips_other_tags(self):
        def main(comm):
            if comm.rank == 0:
                comm.send(1, "wrong", tag=TAG_WRONG)
                comm.send(1, "right", tag=TAG_RIGHT)
                return None
            first = comm.recv(source=0, tag=TAG_RIGHT).payload
            second = comm.recv(source=0, tag=TAG_WRONG).payload
            return (first, second)

        results = mpi_run(2, main)
        assert results[1] == ("right", "wrong")

    def test_any_source(self):
        def main(comm):
            if comm.rank in (0, 1):
                comm.send(2, comm.rank)
                return None
            sources = {comm.recv(source=ANY_SOURCE).source for _ in range(2)}
            return sources

        results = mpi_run(3, main)
        assert results[2] == {0, 1}

    def test_send_to_invalid_rank(self):
        def main(comm):
            comm.send(99, "x")

        with pytest.raises(MPIError):
            mpi_run(1, main)

    def test_recv_timeout_raises(self):
        def main(comm):
            comm.recv(source=0, timeout=0.05)

        with pytest.raises(MPIError):
            mpi_run(1, main)

    def test_negative_tag_rejected(self):
        def main(comm):
            comm.send(0, "x", tag=-3)

        with pytest.raises(MPIError):
            mpi_run(1, main)


class TestCollectives:
    def test_barrier_synchronizes(self):
        import threading
        counter = {"before": 0}
        lock = threading.Lock()

        def main(comm):
            with lock:
                counter["before"] += 1
            comm.barrier()
            # After the barrier every rank must observe all increments.
            with lock:
                return counter["before"]

        results = mpi_run(4, main)
        assert all(value == 4 for value in results)

    def test_bcast(self):
        def main(comm):
            value = "root-data" if comm.rank == 0 else None
            return comm.bcast(value, root=0)

        assert mpi_run(3, main) == ["root-data"] * 3

    def test_gather(self):
        def main(comm):
            return comm.gather(comm.rank * 10, root=0)

        results = mpi_run(4, main)
        assert results[0] == [0, 10, 20, 30]
        assert results[1] is None


class TestLauncher:
    def test_results_by_rank(self):
        assert mpi_run(5, lambda comm: comm.rank ** 2) == [0, 1, 4, 9, 16]

    def test_extra_args(self):
        assert mpi_run(2, lambda comm, base: base + comm.rank, args=(100,)) == [100, 101]

    def test_exception_propagates(self):
        def main(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            return "ok"

        with pytest.raises(MPIError, match="rank 1"):
            mpi_run(2, main)

    def test_failed_rank_breaks_barrier_for_peers(self):
        def main(comm):
            if comm.rank == 0:
                raise RuntimeError("dead rank")
            comm.barrier()

        with pytest.raises(MPIError):
            mpi_run(2, main)

    def test_world_size_validation(self):
        with pytest.raises(MPIError):
            World(0)

    def test_rank_bounds(self):
        with pytest.raises(MPIError):
            Comm(ThreadEndpoint(World(2), 2))
