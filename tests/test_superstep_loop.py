"""The superstep round, pinned for all four drivers in one table.

Iteration mode, its Common replay, Streaming mode and the warm pool all
run the same round — control scatter, input exchange, shuffle, outcome
gather.  ``tests/data/superstep_wire.json`` was recorded before the four
hand-written copies of that round became one loop: for one fixed 2x1 job
per driver on the ``inline`` transport it holds every ``[dest, payload]``
the root handed ``Comm.scatter`` each round, every ``TAG_SPLITS`` answer,
the fault points each rank fired in order, and every per-round counter
record.  Re-recorded three times since, each time with nothing else in
the file moving:

* when the pool's two ``("job", ...)`` controls stopped carrying the
  submitted splits;
* when ``(str, int)`` chunks went columnar — ``o.bytes_sent`` /
  ``a.bytes_received`` / ``mode.bytes_moved`` of the WordCount-shaped
  ``streaming`` and ``pool`` jobs shrank;
* when the control became a scatter that leaves the state out of A
  ranks' ``("run",)`` (``iteration`` / ``common``: ``mode.state_bytes``
  and ``mode.bytes_moved`` shrank by exactly that), and the duplicate
  ``a.spilled_bytes`` counter was dropped (every driver: the key left
  the records and ``mode.gather_bytes`` shrank by its pickled bytes per
  A rank per round).

The suite asserts the runtime still reproduces them byte-for-byte, and
that a failing O task, A task or ``update`` ends every driver with the
original cause.

Re-record (only when the wire is *meant* to change)::

    PYTHONPATH=src python tests/test_superstep_loop.py
"""

import json
import multiprocessing
import pathlib
import pickle
import threading
from unittest import mock

import pytest

from repro.common.errors import JobError, MPIError
from repro.datampi import (
    TAG_SPLITS,
    DataMPIConf,
    DataMPIJob,
    IterativeJob,
    StreamingJob,
)
from repro.mpi import faultinject
from repro.mpi.comm import Comm
from repro.serving import WorldPool

PIN_FILE = pathlib.Path(__file__).parent / "data" / "superstep_wire.json"
NUM_O, NUM_A = 2, 1
WORLD = NUM_O + NUM_A
DRIVERS = ("iteration", "common", "streaming", "pool")


# -- the fixed jobs --------------------------------------------------------------


def iter_o(ctx, split, state):
    for item in split:
        ctx.send(item % 3, item + state)


def iter_a(ctx):
    return [(key, sum(values)) for key, values in ctx.grouped()]


def iter_update(state, merged, _iteration):
    total = state + sum(value for _key, value in merged)
    return total, total >= 500


def word_o(ctx, split):
    for word in split:
        ctx.send(word, 1)


def word_a(ctx):
    return [(word, sum(ones)) for word, ones in ctx.grouped()]


ITER_SPLITS = [[1, 2, 3], [4, 5]]
STREAM_SPLITS = [["a", "b"], ["b"], ["c", "a", "a"]]
POOL_INPUTS = ([["a", "b"], ["a"]], [["c"], ["d", "c"]])


def conf(mode, transport="inline", **kwargs):
    return DataMPIConf(num_o=NUM_O, num_a=NUM_A, mode=mode, transport=transport,
                       **kwargs)


def run_iterative(mode, tmp_path, transport="inline", o_task=iter_o,
                  a_task=iter_a, update=iter_update):
    # Only the kept-alive world checkpoints here, so the pinned
    # ``checkpoint-write`` firings are the ones a rank performs.
    extra = {"checkpoint_dir": str(tmp_path)} if mode == "iteration" else {}
    job = IterativeJob(o_task, a_task, update, conf(mode, transport, **extra),
                       max_iterations=4)
    result = job.run(ITER_SPLITS, 0)
    return result.per_iteration, result.counters


def run_streaming(transport="inline", o_task=word_o, a_task=word_a):
    job = StreamingJob(o_task, a_task, conf("streaming", transport),
                       window_splits=2)
    result = job.run(iter(STREAM_SPLITS))
    return [window.counters for window in result.windows], result.counters


def run_pool(transport="inline", o_task=word_o, a_task=word_a,
             inputs=POOL_INPUTS):
    """Two submissions through one warm world, then a clean stop."""
    job = DataMPIJob(o_task, a_task, conf("common"))
    with WorldPool(num_o=NUM_O, num_a=NUM_A, transport=transport) as pool:
        pool.register("wc", job).start()
        records = [pool.run_job("wc", splits).counters for splits in inputs]
    return records, {}


def run_driver(driver, tmp_path, transport="inline", **tasks):
    if driver in ("iteration", "common"):
        return run_iterative(driver, tmp_path, transport, **tasks)
    return {"streaming": run_streaming, "pool": run_pool}[driver](transport, **tasks)


# -- recording -------------------------------------------------------------------


def trace(driver, tmp_path, **overrides):
    """Run ``driver``'s fixed job with the wire tapped; returns the pin."""
    lock = threading.Lock()
    scatters, answers, fires = [], [], {}
    real_scatter, real_send, real_fire = Comm.scatter, Comm.send, faultinject.fire

    def scatter(self, payloads, root=0, **kwargs):
        if self.rank == root:
            with lock:
                scatters.append([[dest, payload.hex()]
                                 for dest, payload in enumerate(payloads)
                                 if dest != root])
        return real_scatter(self, payloads, root, **kwargs)

    def send(self, dest, payload, tag=0):
        if tag == TAG_SPLITS:
            with lock:
                answers.append([dest, bytes(payload).hex()])
        return real_send(self, dest, payload, tag)

    def fire(point, *, rank=None, superstep=None):
        with lock:
            fires.setdefault(str(rank), []).append([point, superstep])
        return real_fire(point, rank=rank, superstep=superstep)

    with (mock.patch.object(Comm, "scatter", scatter),
          mock.patch.object(Comm, "send", send),
          mock.patch.object(faultinject, "fire", fire)):
        records, totals = run_driver(driver, tmp_path, **overrides)
    return {
        "scatter": scatters,
        "splits": answers,
        "fires": dict(sorted(fires.items())),
        "records": [[[key, value] for key, value in record.items()]
                    for record in records],
        "totals": [[key, value] for key, value in totals.items()],
    }


def controls_of(pin):
    """Each round's control payloads, by destination rank."""
    return [{dest: bytes.fromhex(payload) for dest, payload in sent}
            for sent in pin["scatter"]]


def kinds_of(pin):
    """Each round's control kind — the same on every rank."""
    kinds = [{pickle.loads(control)[0] for control in sent.values()}
             for sent in controls_of(pin)]
    assert all(len(kind) == 1 for kind in kinds)
    return [kind.pop() for kind in kinds]


def rounds_of(pin):
    """Pair each data round's control payloads with its counter record."""
    data_rounds = [sent for sent, kind in zip(controls_of(pin), kinds_of(pin))
                   if kind not in ("stop", "error")]
    assert len(data_rounds) == len(pin["records"])
    return list(zip(data_rounds, (dict(record) for record in pin["records"])))


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PIN_FILE.read_text())


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Every driver's fixed job, run once on this checkout."""
    return {driver: trace(driver, tmp_path_factory.mktemp(driver))
            for driver in DRIVERS}


# -- the wire and the records ----------------------------------------------------


@pytest.mark.parametrize("driver", DRIVERS)
class TestPinnedRound:
    def test_wire_fault_points_and_records_are_byte_identical(
            self, driver, traced, pinned):
        got, want = traced[driver], pinned[driver]
        # Compared field by field so a drift names what moved.
        assert got["scatter"] == want["scatter"]
        assert got["splits"] == want["splits"]
        assert got["fires"] == want["fires"]
        assert got["records"] == want["records"]
        assert got["totals"] == want["totals"]

    def test_control_vocabulary(self, driver, traced):
        kinds = kinds_of(traced[driver])
        expected = {
            "iteration": ["run", "run", "run", "stop"],
            # Every rank of a fresh one-round world knows the bound.
            "common": ["run", "run", "run"],
            "streaming": ["window", "window", "stop"],
            "pool": ["job", "job", "stop"],
        }[driver]
        assert kinds == expected

    def test_input_exchange_matches_the_drivers_cache_policy(self, driver, traced):
        kinds = [pickle.loads(bytes.fromhex(payload))[0]
                 for _dest, payload in traced[driver]["splits"]]
        rounds = len(traced[driver]["records"])
        if driver == "iteration":  # scattered once, then served from cache
            assert kinds == ["data"] * NUM_O + ["cached"] * NUM_O * (rounds - 1)
        else:  # fresh world, fresh window, or recycled between jobs
            assert kinds == ["data"] * NUM_O * rounds


def test_pool_input_travels_once_to_the_rank_that_owns_it(tmp_path):
    """The control names the job and nothing else — its size is the same
    for a one-word and a 100 KB submission — and each O rank is answered
    with exactly its stride of the submitted splits."""
    inputs = ([["a"], ["b"], ["c"]],
              [[f"word-{n}" * 40 for n in range(200)] for _split in range(5)])
    pin = trace("pool", tmp_path, inputs=inputs)
    controls = [set(sent.values()) for sent in controls_of(pin)]
    assert all(len(sent) == 1 for sent in controls)  # every rank hears the same
    controls = [sent.pop() for sent in controls]
    assert [pickle.loads(control) for control in controls] == [
        ("job", 1, "wc"), ("job", 2, "wc"), ("stop",)]
    assert len(controls[0]) == len(controls[1])
    answers = [(dest, pickle.loads(bytes.fromhex(payload)))
               for dest, payload in pin["splits"]]
    assert answers == [(o_index, ("data", splits[o_index::NUM_O]))
                       for splits in inputs for o_index in range(NUM_O)]


# The pool's JobResult.counters carry no mode.* record.
@pytest.mark.parametrize("driver", ("iteration", "common", "streaming"))
def test_byte_counters_add_up_per_round(driver, traced):
    pin = traced[driver]
    answers = [len(bytes.fromhex(payload)) for _dest, payload in pin["splits"]]
    for index, (sent, record) in enumerate(rounds_of(pin)):
        assert record["mode.state_bytes"] == sum(map(len, sent.values()))
        served = answers[index * NUM_O:(index + 1) * NUM_O]
        assert record["mode.scatter_bytes"] == sum(served)
        assert record["mode.bytes_moved"] == (
            record["mode.state_bytes"] + record["mode.scatter_bytes"]
            + record["mode.gather_bytes"] + record["o.bytes_sent"]
        )


# -- failures --------------------------------------------------------------------
#
# ``tcp`` beside ``inline``: forked ranks over sockets are where a rank
# left behind by a failed round would actually linger.


@pytest.fixture
def no_rank_outlives(wait_until):
    """After the test body, every rank thread and rank process has ended."""
    threads = threading.active_count()
    yield
    wait_until(
        lambda: threading.active_count() <= threads
        and not multiprocessing.active_children(),
        message="a rank outlived the failed round",
    )


def kill(side):
    def bad(*_args):
        raise RuntimeError(f"{side}-side kill")

    return {f"{side}_task": bad}


@pytest.mark.parametrize("transport", ("inline", "tcp"))
@pytest.mark.parametrize("side", ("o", "a"))
class TestTaskFailure:
    @pytest.mark.parametrize("driver", ("iteration", "common", "streaming"))
    def test_every_rank_ends_with_the_cause(self, driver, side, transport,
                                            tmp_path, no_rank_outlives):
        with pytest.raises(MPIError, match=f"{side}-side kill"):
            run_driver(driver, tmp_path, transport, **kill(side))

    def test_pool_fails_only_that_submission(self, side, transport,
                                             no_rank_outlives):
        doomed = DataMPIJob(**{"o_task": word_o, "a_task": word_a, **kill(side)},
                            conf=conf("common"))
        healthy = DataMPIJob(word_o, word_a, conf("common"))
        with WorldPool(num_o=NUM_O, num_a=NUM_A, transport=transport) as pool:
            pool.register("doomed", doomed).register("wc", healthy).start()
            with pytest.raises(JobError, match=f"{side}-side kill"):
                pool.run_job("doomed", POOL_INPUTS[0])
            served = pool.run_job("wc", POOL_INPUTS[0])
        assert dict(served.merged_outputs()) == {"a": 2, "b": 1}


@pytest.mark.parametrize("transport", ("inline", "tcp"))
@pytest.mark.parametrize("mode", ("iteration", "common"))
def test_update_failure_ends_every_rank_with_the_cause(mode, transport, tmp_path,
                                                       no_rank_outlives):
    def bad_update(_state, _merged, _iteration):
        raise KeyError("update kill")

    with pytest.raises(MPIError, match=r"update failed at iteration 1: "
                                       r"KeyError\('update kill'\)"):
        run_iterative(mode, tmp_path, transport, update=bad_update)


if __name__ == "__main__":
    import tempfile

    pins = {}
    for name in DRIVERS:
        with tempfile.TemporaryDirectory() as scratch:
            pins[name] = trace(name, pathlib.Path(scratch))
    PIN_FILE.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"recorded {', '.join(DRIVERS)} -> {PIN_FILE}")
