"""The superstep round, pinned for all four drivers in one table.

Iteration mode, its Common replay, Streaming mode and the warm pool all
run the same round — control scatter (each O rank's input riding its
slot), shuffle, outcome gather.  ``tests/data/superstep_wire.json`` was
recorded before the four hand-written copies of that round became one
loop: for one fixed 2x1 job per driver on the ``inline`` transport it
holds, each round, the control part of every ``[dest, payload]`` the
root handed ``Comm.scatter`` and the input part of every O rank's slot
(the root's own included), the fault points each rank fired in order,
and every per-round counter record.  Re-recorded four times since, each
time with nothing else in the file moving:

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
  A rank per round);
* when each O rank's input moved from a ``TAG_SPLITS`` answer to an
  input request into its scatter slot — the pickled splits alone, no
  ``("data", ...)`` / ``("cached", None)`` wrapper, and nothing at all
  for a rank that caches them — and each outcome gained the rank's
  holds-its-splits flag: only the traced inputs, ``mode.scatter_bytes``,
  ``mode.gather_bytes`` (one byte per non-root rank per round) and
  ``mode.bytes_moved`` moved.

The suite asserts the runtime still reproduces them byte-for-byte, and
that a failing O task, A task or ``update`` ends every driver with the
original cause.

Re-record (only when the wire is *meant* to change)::

    PYTHONPATH=src python tests/test_superstep_loop.py
"""

import io
import json
import multiprocessing
import pathlib
import pickle
import sys
import threading
from types import SimpleNamespace
from unittest import mock

import pytest

import repro
from repro.bigdatabench import generate_kmeans_vectors
from repro.common.errors import JobError, MPIError
from repro.datampi import (
    BipartiteComm,
    DataMPIConf,
    DataMPIJob,
    IterativeJob,
    KVCache,
    StreamingJob,
    run_superstep,
)
from repro.mpi import faultinject
from repro.mpi.comm import Comm
from repro.serving import WorldPool
from repro.workloads import kmeans_iterative_job

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


def split_slot(slot):
    """A scatter slot as ``(control, input)``: the control pickle and the
    bytes after it."""
    reader = io.BytesIO(slot)
    pickle.load(reader)
    return slot[:reader.tell()], slot[reader.tell():]


def trace(driver, tmp_path, **overrides):
    """Run ``driver``'s fixed job with the wire tapped; returns the pin."""
    lock = threading.Lock()
    scatters, inputs, fires = [], [], {}
    real_scatter, real_fire = Comm.scatter, faultinject.fire

    def scatter(self, payloads, root=0, **kwargs):
        if self.rank == root:
            slots = [split_slot(payload) for payload in payloads]
            with lock:
                scatters.append([[dest, control.hex()]
                                 for dest, (control, _) in enumerate(slots)
                                 if dest != root])
                inputs.append([[dest, served.hex()]
                               for dest, (_, served) in enumerate(slots[:NUM_O])])
        return real_scatter(self, payloads, root, **kwargs)

    def fire(point, *, rank=None, superstep=None):
        with lock:
            fires.setdefault(str(rank), []).append([point, superstep])
        return real_fire(point, rank=rank, superstep=superstep)

    with (mock.patch.object(Comm, "scatter", scatter),
          mock.patch.object(faultinject, "fire", fire)):
        records, totals = run_driver(driver, tmp_path, **overrides)
    return {
        "scatter": scatters,
        "splits": inputs,
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


def inputs_of(pin):
    """Each round's O-rank inputs, by destination rank (empty: none sent)."""
    return [{dest: bytes.fromhex(payload) for dest, payload in served}
            for served in pin["splits"]]


def rounds_of(pin):
    """Each data round's control payloads and inputs with its counter record."""
    data_rounds = [(sent, served) for sent, served, kind
                   in zip(controls_of(pin), inputs_of(pin), kinds_of(pin))
                   if kind not in ("stop", "error")]
    assert len(data_rounds) == len(pin["records"])
    return [(sent, served, record) for (sent, served), record
            in zip(data_rounds, (dict(record) for record in pin["records"]))]


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
        pin = traced[driver]
        sent = [[bool(served[dest]) for dest in range(NUM_O)]
                for _, served, _ in rounds_of(pin)]
        rounds = len(pin["records"])
        if driver == "iteration":  # scattered once, then read from cache
            assert sent == [[True] * NUM_O] + [[False] * NUM_O] * (rounds - 1)
        else:  # fresh world, fresh window, or recycled between jobs
            assert sent == [[True] * NUM_O] * rounds
        stops = [served for served, kind in zip(inputs_of(pin), kinds_of(pin))
                 if kind in ("stop", "error")]
        assert not any(payload for served in stops for payload in served.values())


def test_pool_input_travels_once_to_the_rank_that_owns_it(tmp_path):
    """The control names the job and nothing else — its size is the same
    for a one-word and a 100 KB submission — and each O rank's slot
    carries exactly its stride of the submitted splits after it."""
    inputs = ([["a"], ["b"], ["c"]],
              [[f"word-{n}" * 40 for n in range(200)] for _split in range(5)])
    pin = trace("pool", tmp_path, inputs=inputs)
    controls = [set(sent.values()) for sent in controls_of(pin)]
    assert all(len(sent) == 1 for sent in controls)  # every rank hears the same
    controls = [sent.pop() for sent in controls]
    assert [pickle.loads(control) for control in controls] == [
        ("job", 1, "wc"), ("job", 2, "wc"), ("stop",)]
    assert len(controls[0]) == len(controls[1])
    served = [(dest, pickle.loads(payload))
              for sent in inputs_of(pin) for dest, payload in sent.items() if payload]
    assert served == [(o_index, splits[o_index::NUM_O])
                      for splits in inputs for o_index in range(NUM_O)]


# The pool's JobResult.counters carry no mode.* record.
@pytest.mark.parametrize("driver", ("iteration", "common", "streaming"))
def test_byte_counters_add_up_per_round(driver, traced):
    for sent, served, record in rounds_of(traced[driver]):
        assert record["mode.state_bytes"] == sum(map(len, sent.values()))
        assert record["mode.scatter_bytes"] == sum(map(len, served.values()))
        assert record["mode.bytes_moved"] == (
            record["mode.state_bytes"] + record["mode.scatter_bytes"]
            + record["mode.gather_bytes"] + record["o.bytes_sent"]
        )


def test_an_o_rank_sent_no_input_that_holds_none_fails():
    """An empty slot tail means "read your pin": without one the rank has
    nothing to run on and says so, instead of running on no splits."""
    bcomm = BipartiteComm(SimpleNamespace(rank=0, size=2), 1, 1)
    with pytest.raises(MPIError, match="O rank 0 got no input at superstep 2"):
        run_superstep(bcomm, conf("iteration"), iter_o, iter_a, b"", None,
                      KVCache(), 2, cache_input=True)


# -- messages per round ------------------------------------------------------------


def sends(run):
    """How many messages ``run()`` puts through ``Comm._send``."""
    count = 0
    real_send = Comm._send

    def counting_send(self, dest, payload, tag):
        nonlocal count
        count += 1
        return real_send(self, dest, payload, tag)

    with mock.patch.object(Comm, "_send", counting_send):
        run()
    return count


class TestSuperstepMessages:
    """A round sends only what carries work on a 2x2 world: one control
    per non-root rank (an O rank's input riding it), one EOF per O->A
    pair (its last chunk riding it) and one outcome per non-root rank."""

    SHAPE = {"num_o": 2, "num_a": 2, "transport": "inline"}
    WORDS = ["a b c d e f g h", "b c d e f g h i"]

    def test_a_warm_iteration_superstep_sends_ten(self):
        def run(iterations):
            job = IterativeJob(
                iter_o, iter_a, lambda state, _merged, _iteration: (state, False),
                DataMPIConf(mode="iteration", **self.SHAPE),
                max_iterations=iterations)
            return lambda: job.run([[1, 2, 3], [4, 5, 6, 7]], 0)

        assert sends(run(3)) - sends(run(2)) == 3 + 4 + 3

    def test_a_pooled_job_sends_ten(self):
        def run(jobs):
            def serve():
                job = DataMPIJob(word_o, word_a, DataMPIConf(**self.SHAPE))
                with WorldPool(num_o=2, num_a=2, transport="inline") as pool:
                    pool.register("wc", job).start()
                    for _ in range(jobs):
                        pool.run_job("wc", [line.split() for line in self.WORDS])
            return serve

        assert sends(run(2)) - sends(run(1)) == 3 + 4 + 3

    def test_a_cold_wordcount_sends_one_message_per_pair(self):
        job = DataMPIJob(word_o, word_a, DataMPIConf(
            combiner=lambda _word, ones: sum(ones), **self.SHAPE))
        outputs = []
        assert sends(lambda: outputs.extend(
            job.run([line.split() for line in self.WORDS]).outputs)) == 2 * 2
        assert all(outputs)  # every A rank got words: each pair had a chunk


# -- runtime calls per round -----------------------------------------------------


RUNTIME = pathlib.Path(repro.__file__).parent
WORKLOAD_CODE = tuple(str(RUNTIME / name) for name in (
    "workloads/kmeans.py", "bigdatabench/vectors.py"))


def runtime_calls(run):
    """Python ``call`` events (function entries and generator resumes) in
    the runtime's own code while ``run()`` runs, on every thread it
    starts: the workload's modules and the test's tasks do not count."""
    calls = 0
    runtime, workload = str(RUNTIME), WORKLOAD_CODE

    def profiler(frame, event, _arg):
        nonlocal calls
        if event == "call":
            filename = frame.f_code.co_filename
            if filename.startswith(runtime) and not filename.startswith(workload):
                calls += 1  # the inline scheduler runs one rank at a time

    threading.setprofile(profiler)
    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return calls


class TestSuperstepStaysFlat:
    """What one more superstep costs the runtime, counted in call events
    over all four ranks of a 2x2 ``inline`` world: (21 supersteps − 1) / 20.
    The count is deterministic on ``inline`` to within an event, so it
    pins the runtime's per-round work without a clock.

    Each budget is the count measured on CPython 3.11, rounded up, plus
    3 % headroom, rounded down; newer interpreters inline comprehensions
    and count fewer.  A budget only ever tightens."""

    STEPS = 21
    HEADROOM = 1.03

    def per_superstep(self, run):
        return (runtime_calls(lambda: run(self.STEPS))
                - runtime_calls(lambda: run(1))) / (self.STEPS - 1)

    def test_a_kmeans_superstep(self):
        vectors, _labels = generate_kmeans_vectors(16, seed=229)

        def run(supersteps):
            kmeans_iterative_job(
                vectors, 5, max_iterations=supersteps, epsilon=0.0, seed=229,
                parallelism=2, transport="inline", mode="iteration")

        assert self.per_superstep(run) <= int(675 * self.HEADROOM)

    def test_a_noop_superstep(self):
        def run(supersteps):
            IterativeJob(
                lambda _ctx, _split, _state: None, lambda _ctx: None,
                lambda state, _merged, _iteration: (state, False),
                DataMPIConf(num_o=2, num_a=2, mode="iteration", transport="inline"),
                max_iterations=supersteps,
            ).run([[1], [2]], 0)

        assert self.per_superstep(run) <= int(306 * self.HEADROOM)


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
