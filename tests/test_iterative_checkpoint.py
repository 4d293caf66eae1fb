"""Checkpoint/restart for Iteration mode: a killed superstep resumes from
the last completed iteration, under both the thread and shm transports.

The iteration checkpoint is written by the root after each *completed*
superstep (atomically — rename, never a partial file), so a failure in
iteration N leaves the iteration N-1 state on disk and ``resume=True``
replays only iterations N onward, converging to a state byte-identical
to an uninterrupted run.
"""

import pickle

import pytest

from repro.common.errors import CheckpointError, MPIError
from repro.datampi import (
    DataMPIConf,
    IterativeJob,
    read_iteration_state,
    write_iteration_state,
)

TRANSPORTS = ("thread", "shm", "tcp")

SPLITS = [list(range(6)), list(range(6, 12))]


def o_task(ctx, split, state):
    for item in split:
        ctx.send(item % 4, item * state["scale"])


def a_task(ctx):
    return [(key, sum(values)) for key, values in ctx.grouped()]


def update(state, merged, iteration):
    totals = dict(state["totals"])
    for key, value in merged:
        totals[key] = totals.get(key, 0) + value
    new_state = {"scale": state["scale"] + 1, "totals": totals}
    return new_state, iteration >= 4


def make_job(checkpoint_dir, transport, kill_at=None):
    def maybe_killed_o(ctx, split, state):
        if kill_at is not None and state["scale"] == kill_at:
            raise RuntimeError(f"superstep killed at scale {kill_at}")
        o_task(ctx, split, state)

    return IterativeJob(
        maybe_killed_o, a_task, update,
        DataMPIConf(num_o=2, num_a=2, mode="iteration",
                    checkpoint_dir=checkpoint_dir, transport=transport),
        max_iterations=6,
    )


INITIAL = {"scale": 1, "totals": {}}


class TestKilledSuperstepResume:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_resume_from_last_completed_iteration(self, tmp_path, transport):
        directory = str(tmp_path / "ckpt")
        uninterrupted = make_job(str(tmp_path / "ref"), transport).run(
            SPLITS, INITIAL
        )
        assert uninterrupted.iterations == 4 and uninterrupted.converged

        # Iteration 3 (scale 3) dies on every O rank: supersteps 1-2 complete.
        killed = make_job(directory, transport, kill_at=3)
        with pytest.raises(MPIError, match="superstep killed at scale 3"):
            killed.run(SPLITS, INITIAL)
        saved = read_iteration_state(directory)
        assert saved is not None and saved["iteration"] == 2
        assert saved["state"]["scale"] == 3

        resumed = make_job(directory, transport).run(
            SPLITS, INITIAL, resume=True
        )
        assert resumed.start_iteration == 2
        assert resumed.iterations == 4 and resumed.converged
        # Only iterations 3 and 4 re-ran.
        assert len(resumed.per_iteration) == 2
        assert [r["superstep"] for r in resumed.per_iteration] == [3, 4]
        assert pickle.dumps(resumed.state) == pickle.dumps(uninterrupted.state)
        assert pickle.dumps(resumed.outputs) == pickle.dumps(uninterrupted.outputs)

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_kill_in_first_iteration_leaves_no_checkpoint(self, tmp_path, transport):
        directory = str(tmp_path / "ckpt")
        job = make_job(directory, transport, kill_at=1)
        with pytest.raises(MPIError, match="superstep killed"):
            job.run(SPLITS, INITIAL)
        assert read_iteration_state(directory) is None
        with pytest.raises(CheckpointError, match="no iteration checkpoint"):
            make_job(directory, transport).run(SPLITS, INITIAL, resume=True)

    def test_common_mode_checkpoints_and_resumes_too(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        job = IterativeJob(
            o_task, a_task, update,
            DataMPIConf(num_o=2, num_a=2, mode="common",
                        checkpoint_dir=directory),
            max_iterations=6,
        )
        full = job.run(SPLITS, INITIAL)
        assert read_iteration_state(directory)["iteration"] == full.iterations
        resumed = job.run(SPLITS, INITIAL, resume=True)
        # The resumed run picks up after the last completed iteration: one
        # more superstep runs and its update converges immediately.
        assert resumed.start_iteration == full.iterations
        assert resumed.iterations == full.iterations + 1
        assert resumed.converged


class TestIterationStateFile:
    def test_round_trip(self, tmp_path):
        write_iteration_state(str(tmp_path), 3, {"x": [1.5, None, ("a", 2)]})
        saved = read_iteration_state(str(tmp_path))
        assert saved == {"iteration": 3, "state": {"x": [1.5, None, ("a", 2)]}}

    def test_rewrite_is_atomic_overwrite(self, tmp_path):
        write_iteration_state(str(tmp_path), 1, "first")
        write_iteration_state(str(tmp_path), 2, "second")
        assert read_iteration_state(str(tmp_path)) == {
            "iteration": 2, "state": "second",
        }
        assert not list(tmp_path.glob("*.tmp"))

    def test_bad_magic_rejected(self, tmp_path):
        write_iteration_state(str(tmp_path), 1, "ok")
        path = tmp_path / "iteration-state.ckpt"
        path.write_bytes(b"GARBAGE!" + path.read_bytes()[8:])
        with pytest.raises(CheckpointError, match="magic"):
            read_iteration_state(str(tmp_path))

    def test_truncated_payload_rejected(self, tmp_path):
        write_iteration_state(str(tmp_path), 1, {"big": list(range(50))})
        path = tmp_path / "iteration-state.ckpt"
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(CheckpointError, match="unreadable"):
            read_iteration_state(str(tmp_path))

    def test_bad_iteration_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="iteration"):
            write_iteration_state(str(tmp_path), 0, "state")
