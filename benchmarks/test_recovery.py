"""Elastic recovery cost: rank killed mid-superstep on the tcp transport.

A deterministic ``kill`` rule fires inside O rank 1 during superstep 2 of
an iterative job (no sleeps or signals — see docs/testing.md).  The world
supervisor respawns the dead rank, survivors re-form the world, and the
respawned rank resumes from the last iteration checkpoint.  The metric is
``recovery_seconds``: wall-clock the injected run pays *on top of* a
clean run of the identical job — death detection, respawn, re-rendezvous,
and the replayed superstep.  The run must also stay byte-identical to the
clean run, otherwise the time measured recovered the wrong thing.
"""

import pickle
import time

from repro.datampi import DataMPIConf, IterativeJob
from repro.mpi.transport import get_transport

KILL_PLAN = "kill@o-phase:rank=1:superstep=2"
SPLITS = [list(range(5)), list(range(5, 10))]


def counting_o(ctx, split, _state):
    for item in split:
        ctx.send(item % 5, 1)


def counting_a(ctx):
    return [(key, sum(values)) for key, values in ctx.grouped()]


def sum_update(state, merged, _iteration):
    new_state = state + sum(count for _key, count in merged)
    return new_state, new_state >= 30


def _run(checkpoint_dir: str, fault_plan: str | None, respawns: int):
    transport = get_transport("tcp", respawns=respawns,
                              fault_plan=fault_plan)
    conf = DataMPIConf(num_o=2, num_a=2, mode="iteration",
                       transport=transport, checkpoint_dir=checkpoint_dir)
    job = IterativeJob(counting_o, counting_a, sum_update, conf,
                       max_iterations=3)
    started = time.perf_counter()
    result = job.run(SPLITS, 0)
    return time.perf_counter() - started, result


def test_tcp_rank_kill_recovery(benchmark, once, tmp_path):
    def measure():
        clean_sec, clean = _run(str(tmp_path / "clean"), None, respawns=0)
        injected_sec, injected = _run(str(tmp_path / "injected"),
                                      KILL_PLAN, respawns=1)
        return clean_sec, clean, injected_sec, injected

    clean_sec, clean, injected_sec, injected = once(measure)

    # Equivalence first: a fast recovery to the wrong answer is no recovery.
    assert injected.state == clean.state == 30
    assert injected.iterations == clean.iterations
    assert injected.converged and clean.converged
    assert pickle.dumps(injected.outputs, protocol=4) == \
        pickle.dumps(clean.outputs, protocol=4)

    recovery_sec = injected_sec - clean_sec
    benchmark.extra_info["scenario"] = "rank-kill-mid-superstep"
    benchmark.extra_info["transport"] = "tcp"
    benchmark.extra_info["fault_plan"] = KILL_PLAN
    benchmark.extra_info["clean_seconds"] = round(clean_sec, 6)
    benchmark.extra_info["injected_seconds"] = round(injected_sec, 6)
    benchmark.extra_info["recovery_seconds"] = round(recovery_sec, 6)
    print(f"\ntcp clean {clean_sec:.3f}s vs injected {injected_sec:.3f}s "
          f"— recovery cost {recovery_sec:.3f}s")
    # The injected run does strictly more work (detect, respawn,
    # re-rendezvous, replay superstep 2): its overhead must be visible.
    assert recovery_sec > 0, (
        f"injected run ({injected_sec:.3f}s) was not slower than the "
        f"clean run ({clean_sec:.3f}s); the kill rule likely never fired"
    )
