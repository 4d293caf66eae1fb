"""How a warm pool's world ends: one goodbye, and nothing left behind.

A :class:`~repro.serving.WorldPool` runs its world on a ``worldpool-world``
thread that records why the world ended and then writes the result pipe's
one goodbye; the ``worldpool-dispatch`` thread stops there.  The contract
pinned here:

* a dead world refuses every later submission with ``JobError("pool world
  died: …")`` naming the cause, and ``close()`` still returns;
* no ``worldpool-`` thread outlives ``close()``, whether the world stopped
  cleanly or died;
* a pool leaves nothing registered on a transport it was handed, so one
  transport instance can serve pool after pool.
"""

import threading

import pytest

from repro.bigdatabench import TextGenerator
from repro.common.errors import JobError, MPIError
from repro.mpi.transport import get_transport
from repro.serving import WorldPool
from repro.workloads import (
    split_round_robin,
    wordcount_datampi_job,
    wordcount_reference,
)

ALL_BACKENDS = ("thread", "shm", "inline", "tcp")

LINES = TextGenerator(seed=5).lines(120)
PARALLELISM = 2

#: Rank 1 dies as it binds the first submission (tcp gets no respawns,
#: so the whole world fails fast).
KILL_RANK_1 = "kill@pool-submit:rank=1:superstep=1"


def _wordcount_pool(transport) -> WorldPool:
    pool = WorldPool(num_o=PARALLELISM, num_a=PARALLELISM, transport=transport)
    pool.register("wordcount", wordcount_datampi_job(PARALLELISM))
    return pool.start()


def _pool_threads() -> list[str]:
    return [thread.name for thread in threading.enumerate()
            if thread.name.startswith("worldpool-")]


def _kill_world(backend) -> WorldPool:
    """A started pool whose world died on its first submission."""
    pool = _wordcount_pool(get_transport(backend, fault_plan=KILL_RANK_1))
    doomed = pool.submit("wordcount", split_round_robin(LINES, PARALLELISM))
    with pytest.raises((JobError, MPIError), match="rank 1"):
        doomed.result(timeout=120)
    return pool


@pytest.mark.parametrize("backend", ALL_BACKENDS)
class TestWorldEnd:
    def test_submit_after_world_died_names_the_cause(self, backend):
        pool = _kill_world(backend)
        with pytest.raises(JobError, match="pool world died") as excinfo:
            pool.submit("wordcount", split_round_robin(LINES, PARALLELISM))
        assert "rank 1" in str(excinfo.value)
        pool.close()

    def test_no_pool_thread_outlives_close_after_world_death(self, backend):
        pool = _kill_world(backend)
        pool.close()
        assert _pool_threads() == []

    def test_no_pool_thread_outlives_close_after_clean_run(self, backend):
        pool = _wordcount_pool(backend)
        result = pool.run_job("wordcount",
                              split_round_robin(LINES, PARALLELISM))
        assert dict(result.merged_outputs()) == wordcount_reference(LINES)
        assert len(_pool_threads()) == 2
        pool.close()
        assert _pool_threads() == []


def test_closed_pools_leave_no_restart_listener_on_a_reused_transport():
    """Pool after pool on one elastic tcp transport instance: each close
    leaves the transport's listener list empty, so the transport keeps
    no closed pool alive."""
    transport = get_transport("tcp", respawns=1)
    for _pool in range(2):
        pool = _wordcount_pool(transport)
        assert transport.restart_listeners == [pool._on_world_restart]
        result = pool.run_job("wordcount",
                              split_round_robin(LINES, PARALLELISM))
        assert dict(result.merged_outputs()) == wordcount_reference(LINES)
        pool.close()
        assert transport.restart_listeners == []
