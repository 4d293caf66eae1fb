"""Chaos matrix: deterministic faults at every instrumented point.

The fault-injection harness (:mod:`repro.mpi.faultinject`) fires *inside*
the rank at named points — no sleeps, polls, or signals from test code —
so every cell of the {action} x {point} x {transport} matrix below is a
reproducible failure, not a race we hope to win:

* ``delay`` is a pure perturbation: every transport must produce output
  byte-identical to an uninjected run.
* ``kill``/``drop`` on the in-process transports (thread, inline) degrade
  to a fail-fast :class:`FaultInjected` abort — the host interpreter
  cannot lose a rank for real.
* ``kill``/``drop`` on shm hard-exit the rank process
  (``os._exit(KILL_EXIT_CODE)``): the world must abort loudly, never hang.
* ``kill``/``drop`` on tcp with a respawn budget exercise elastic
  recovery: the world re-forms, the respawned rank resumes from the last
  iteration checkpoint, and the final result is byte-identical to an
  uninjected run.  (Counters are *not* compared: a replayed superstep
  legitimately moves extra bytes.)
"""

import pickle

import pytest

from repro.common.errors import ConfigError, MPIError
from repro.datampi import DataMPIConf, IterativeJob
from repro.mpi import faultinject
from repro.mpi.faultinject import FaultInjected, FaultPlan, parse_fault_plan
from repro.mpi.transport import get_transport

ACTIONS = ("kill", "drop", "delay")
POINTS = ("rendezvous", "o-phase", "shuffle", "a-phase", "checkpoint-write")
FAIL_FAST = ("thread", "inline", "shm")
ALL_BACKENDS = ("thread", "shm", "inline", "tcp")

SPLITS = [list(range(5)), list(range(5, 10))]  # 10 records per superstep


# Module-level tasks: shm/tcp rank processes must be able to run them.
def counting_o(ctx, split, _state):
    for item in split:
        ctx.send(item % 5, 1)


def counting_a(ctx):
    return [(key, sum(values)) for key, values in ctx.grouped()]


def sum_update(state, merged, _iteration):
    new_state = state + sum(count for _key, count in merged)
    return new_state, new_state >= 30


def make_job(transport, checkpoint_dir=None, fault_plan=None,
             max_iterations=3) -> IterativeJob:
    conf = DataMPIConf(
        num_o=2, num_a=2, mode="iteration", transport=transport,
        checkpoint_dir=checkpoint_dir, fault_plan=fault_plan,
        # Small enough that the shuffle point fires on mid-phase chunks,
        # not only on the final flush.
        send_buffer_bytes=64,
    )
    return IterativeJob(counting_o, counting_a, sum_update, conf,
                        max_iterations=max_iterations)


def target_rank(point: str) -> int:
    # The checkpoint-write point only fires on the root rank, and a-phase
    # only on A ranks (global ranks 2-3 in this 2x2 world); everything
    # else targets O rank 1 so the root's driver duties stay in the blast
    # radius of *recovery*, not of the injection itself.
    return {"checkpoint-write": 0, "a-phase": 2}.get(point, 1)


def plan_for(action: str, point: str) -> str:
    clause = f"{action}@{point}:rank={target_rank(point)}"
    if point != "rendezvous":  # rendezvous fires before supersteps exist
        clause += ":superstep=2"
    if action == "delay":
        clause += ":delay=0.01"
    return clause


@pytest.fixture(scope="module")
def reference():
    """The uninjected answer every surviving run must reproduce."""
    result = make_job("thread").run(SPLITS, 0)
    assert result.state == 30 and result.converged
    return result


def assert_equivalent(result, reference) -> None:
    assert result.state == reference.state
    assert result.iterations == reference.iterations
    assert result.converged == reference.converged
    assert pickle.dumps(result.outputs, protocol=4) == \
        pickle.dumps(reference.outputs, protocol=4)


class TestFaultPlanDSL:
    def test_parse_encode_roundtrip(self):
        text = ("kill@o-phase:rank=1:superstep=2;"
                "delay@shuffle:delay=0.5:count=3;drop@rendezvous")
        plan = FaultPlan.parse(text)
        assert len(plan.rules) == 3
        assert FaultPlan.parse(plan.encode()) == plan

    def test_every_documented_point_parses(self):
        for point in sorted(faultinject.POINTS):
            plan = FaultPlan.parse(f"raise@{point}")
            assert plan.rules[0].point == point

    @pytest.mark.parametrize("bad", [
        "explode@o-phase",            # unknown action
        "kill@warp-core",             # unknown point
        "kill",                       # no @point
        "kill@o-phase:rank=one",      # non-integer value
        "kill@o-phase:color=red",     # unknown key
        "delay@o-phase",              # delay without seconds
        "kill@o-phase:count=0",       # budget must be >= 1
    ])
    def test_bad_clauses_rejected(self, bad):
        with pytest.raises(MPIError):
            FaultPlan.parse(bad)

    def test_parse_fault_plan_coerces(self):
        assert parse_fault_plan(None) is None
        assert parse_fault_plan("  ;; ") is None  # empty clauses, no rules
        plan = parse_fault_plan("raise@o-phase")
        assert parse_fault_plan(plan) is plan

    def test_count_limits_firings_per_process(self):
        faultinject.install("raise@o-phase:count=2")
        for _ in range(2):
            with pytest.raises(FaultInjected):
                faultinject.fire("o-phase", rank=0)
        faultinject.fire("o-phase", rank=0)  # budget spent: no-op

    def test_install_resets_budget(self):
        plan = parse_fault_plan("raise@o-phase")
        for _ in range(2):  # same plan object, fresh budget each install
            faultinject.install(plan)
            with pytest.raises(FaultInjected):
                faultinject.fire("o-phase", rank=0)

    def test_env_var_plan_is_consulted(self, monkeypatch):
        monkeypatch.setenv(faultinject.FAULT_PLAN_ENV,
                           "raise@o-phase:rank=1:superstep=2")
        monkeypatch.setattr(faultinject, "_env_checked", False)
        with pytest.raises(MPIError, match="fault plan"):
            make_job("thread").run(SPLITS, 0)

    def test_conf_plan_with_transport_instance_rejected(self):
        with pytest.raises(ConfigError, match="fault_plan"):
            DataMPIConf(num_o=2, num_a=2,
                        transport=get_transport("thread"),
                        fault_plan="raise@o-phase")


class TestDelayIsHarmless:
    """A slow rank is a perturbation, never a semantics change."""

    @pytest.mark.parametrize("point", POINTS)
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_delayed_run_matches_reference(self, backend, point, tmp_path,
                                           reference):
        job = make_job(backend, checkpoint_dir=str(tmp_path),
                       fault_plan=plan_for("delay", point))
        assert_equivalent(job.run(SPLITS, 0), reference)


class TestFailFastTransports:
    """Without spare hardware there is nothing to recover onto: a lost
    rank must abort the job loudly (and promptly) on every transport."""

    @pytest.mark.parametrize("point", POINTS)
    @pytest.mark.parametrize("action", ("kill", "drop"))
    @pytest.mark.parametrize("backend", FAIL_FAST)
    def test_lost_rank_aborts(self, backend, action, point, tmp_path):
        job = make_job(backend, checkpoint_dir=str(tmp_path),
                       fault_plan=plan_for(action, point))
        with pytest.raises(MPIError) as excinfo:
            job.run(SPLITS, 0)
        if backend in ("thread", "inline"):
            # In-process ranks degrade kill/drop to the injected abort.
            assert "fault plan" in str(excinfo.value)
        else:
            # The lost rank is the cause, not a peer it poisoned.
            assert (f"rank {target_rank(point)} died without reporting a "
                    f"result") in str(excinfo.value)

    def test_tcp_without_respawn_budget_aborts(self, tmp_path):
        transport = get_transport(
            "tcp", fault_plan=plan_for("kill", "o-phase"))
        job = make_job(transport, checkpoint_dir=str(tmp_path))
        with pytest.raises(MPIError):
            job.run(SPLITS, 0)


class TestTcpElasticRecovery:
    """The tentpole: a rank lost mid-run is respawned, rejoins from the
    last iteration checkpoint, and the job's answer does not change."""

    @pytest.mark.parametrize("point", POINTS)
    @pytest.mark.parametrize("action", ("kill", "drop"))
    def test_recovered_run_is_byte_identical(self, action, point, tmp_path,
                                             reference):
        transport = get_transport("tcp", respawns=1,
                                  fault_plan=plan_for(action, point))
        job = make_job(transport, checkpoint_dir=str(tmp_path))
        assert_equivalent(job.run(SPLITS, 0), reference)

    def test_two_deaths_within_budget_recover(self, tmp_path, reference):
        plan = "kill@o-phase:rank=1:superstep=1;kill@a-phase:rank=2:superstep=3"
        transport = get_transport("tcp", respawns=2, fault_plan=plan)
        job = make_job(transport, checkpoint_dir=str(tmp_path))
        assert_equivalent(job.run(SPLITS, 0), reference)

    def test_death_beyond_budget_aborts(self, tmp_path):
        plan = ("kill@o-phase:rank=1:superstep=1;"
                "kill@a-phase:rank=2:superstep=2")
        transport = get_transport("tcp", respawns=1, fault_plan=plan)
        job = make_job(transport, checkpoint_dir=str(tmp_path))
        with pytest.raises(MPIError):
            job.run(SPLITS, 0)
