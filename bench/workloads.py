"""The seven workloads: inputs, oracle, one job, its check, its ladder plan.

Every workload builds its inputs from the run's seed with the repo's own
generators, so the program under test only ever sees generated inputs.
World shape is fixed at 2 O ranks + 2 A ranks on every workload: with
the benchmark container's two cores both stay busy in each phase.
``bench/README.md`` says why each workload exists.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

from repro.bigdatabench import TextGenerator, generate_kmeans_vectors
from repro.datampi import DataMPIConf, StorageConfig
from repro.mpi.transport import PICKLE_PROTOCOL
from repro.serving import WorldPool
from repro.workloads import (
    chunk_lines,
    kmeans_iterative_job,
    kmeans_reference,
    merge_window_counts,
    sort_reference,
    split_round_robin,
    text_sort_datampi_job,
    text_sort_datampi_result,
    wordcount_datampi_job,
    wordcount_datampi_result,
    wordcount_reference,
    wordcount_streaming,
)

# The K-means O/A tasks are closures inside ``kmeans_iterative_job``; the
# ladder rebuilds them from the same two helpers so its task rungs time
# the program's arithmetic, not a copy of it.
from repro.workloads.kmeans import _nearest, _reduce_partial_list

NUM_O = 2
NUM_A = 2
WORLD = NUM_O + NUM_A

SPILL_THRESHOLD = 256 * 1024
KMEANS_K = 5
STREAM_LINES_PER_SPLIT = 250
STREAM_WINDOW_SPLITS = 8
SMALL_JOB_LINES = 160


@dataclass(frozen=True)
class Scale:
    """Input sizes and warm-up counts of one ``--scale``."""

    sort_lines: int
    wordcount_lines: int
    kmeans_vectors: int
    kmeans_supersteps: int
    stream_lines: int
    small_inputs: int  # distinct inputs the small-jobs client cycles through
    warmups: int
    pool_warmups: int
    setup_repeats: int
    probe_rounds: int  # ping-pongs, control rounds and no-op pool jobs per ladder round


SCALES = {
    # One job is 0.3-1 s on the 2-core container, so a 10 s run times
    # 10-30 jobs (about 170 for the pool) and a whole run stays under 20 s
    # even when the machine is at its slowest.
    "full": Scale(sort_lines=100_000, wordcount_lines=24_000,
                  kmeans_vectors=16, kmeans_supersteps=60,
                  stream_lines=14_000, small_inputs=50,
                  warmups=2, pool_warmups=20, setup_repeats=3,
                  probe_rounds=20),
    # The tier-1 smoke test: every code path (10k lines is the least that
    # overflows the sort's 256 KiB spill budget), milliseconds of data.
    "smoke": Scale(sort_lines=10_000, wordcount_lines=1_000,
                   kmeans_vectors=12, kmeans_supersteps=3,
                   stream_lines=2_500, small_inputs=2,
                   warmups=0, pool_warmups=0, setup_repeats=1,
                   probe_rounds=3),
}


def _dumps(obj: Any) -> bytes:
    return pickle.dumps(obj, protocol=PICKLE_PROTOCOL)


def _superstep_control(bcast: bytes, responses: list[bytes]) -> list[Any]:
    """What one superstep of a kept-alive world sends besides chunks: the
    root's broadcast, each O rank's input request and its answer, and the
    EOFs.  (The outcome gather is left out: its payload is the program's.)"""
    return ([bcast] * (WORLD - 1) + [False] * NUM_O + responses
            + [None] * (NUM_O * NUM_A))


@dataclass
class LadderPlan:
    """What the ladder replays through each layer for one workload."""

    conf: DataMPIConf
    o_task: Callable[[Any, Any], None]
    a_task: Callable[[Any], Any]
    #: Captured supersteps; each is one list of splits per O rank.
    supersteps: list[list[list[Any]]]
    #: Rung totals over ``supersteps`` times this is one job's share.
    per_job: float
    #: Non-chunk payloads the captured supersteps put on the wire.
    control: list[Any]
    #: The largest payload the root broadcasts (shared-bcast rung).
    bcast_payload: bytes
    uses_cache: bool = False
    #: Set where jobs run on a warm pool: the job the pool rungs register.
    pool_job: Any = None


class Workload:
    """One workload: ``prepare`` (set-up), ``job`` (timed), ``check``."""

    name: str
    transport: str
    #: Jobs the timed loop runs at least, whatever ``--seconds`` says.
    min_jobs = 1
    #: Whether job wall time scales with machine speed (see bench/speed.py).
    cpu_bound = True

    def __init__(self, scale: Scale, seed: int, tmp_dir: Path):
        self.scale = scale
        self.seed = seed
        self.tmp_dir = tmp_dir
        self.warmups = scale.warmups

    def prepare(self) -> None:
        """Generate the input and compute the oracle (timed as set-up)."""
        raise NotImplementedError

    def job(self) -> Any:
        """Run one job, in-memory input to complete output."""
        raise NotImplementedError

    def check(self, result: Any) -> str | None:
        """What is wrong with ``result``, or None when it equals the oracle."""
        raise NotImplementedError

    def reference(self) -> Any:
        """The single-threaded plain-Python baseline of the same job."""
        raise NotImplementedError

    def bytes_moved(self, result: Any) -> int:
        counters = result.counters
        return counters.get("mode.bytes_moved", counters["o.bytes_sent"])

    def input_key(self) -> int:
        """Which input the last ``job`` ran (its bytes must repeat)."""
        return 0

    def close(self) -> None:
        """Release what ``prepare`` opened."""

    def plan(self) -> LadderPlan:
        raise NotImplementedError


class TextSort(Workload):
    """Text Sort: every input byte crosses common.kv, the transport and
    the A-side merge; ``spill`` puts a 256 KiB budget on the A-side store."""

    def __init__(self, scale: Scale, seed: int, tmp_dir: Path, *,
                 name: str, transport: str, spill: bool = False):
        super().__init__(scale, seed, tmp_dir)
        self.name, self.transport, self.spill = name, transport, spill

    def prepare(self) -> None:
        self.lines = TextGenerator(seed=self.seed).lines(self.scale.sort_lines)
        self.expected = self.reference()
        self.storage = StorageConfig(
            spill_threshold=SPILL_THRESHOLD, spill_dir=str(self.tmp_dir / "spill"),
        ) if self.spill else None

    def reference(self) -> list[str]:
        return sort_reference(self.lines)

    def job(self) -> Any:
        return text_sort_datampi_result(
            self.lines, NUM_O, transport=self.transport, storage=self.storage)

    def check(self, result: Any) -> str | None:
        got = [line for output in result.outputs for line in output]
        return None if got == self.expected else "output is not sorted(input)"

    def plan(self) -> LadderPlan:
        job = text_sort_datampi_job(self.lines, NUM_O, storage=self.storage)
        splits = split_round_robin(self.lines, NUM_O)
        return LadderPlan(
            conf=job.conf, o_task=job.o_task, a_task=job.a_task,
            supersteps=[[[split] for split in splits]], per_job=1.0,
            control=[None] * (NUM_O * NUM_A),
            bcast_payload=_dumps(splits[0]),
        )


class WordCount(Workload):
    name = "wordcount_shm"
    transport = "shm"

    def prepare(self) -> None:
        self.lines = TextGenerator(seed=self.seed).lines(self.scale.wordcount_lines)
        self.expected = self.reference()

    def reference(self) -> dict[str, int]:
        return wordcount_reference(self.lines)

    def job(self) -> Any:
        return wordcount_datampi_result(self.lines, NUM_O, transport=self.transport)

    def check(self, result: Any) -> str | None:
        got = dict(result.merged_outputs())
        return None if got == self.expected else "counts differ from wordcount_reference"

    def plan(self) -> LadderPlan:
        job = wordcount_datampi_job(NUM_O)
        splits = split_round_robin(self.lines, NUM_O)
        return LadderPlan(
            conf=job.conf, o_task=job.o_task, a_task=job.a_task,
            supersteps=[[[split] for split in splits]], per_job=1.0,
            control=[None] * (NUM_O * NUM_A),
            bcast_payload=_dumps(splits[0]),
        )


class KMeansIteration(Workload):
    name = "kmeans_iter_shm"
    transport = "shm"

    def _run(self, transport: str) -> tuple[Any, Any]:
        return kmeans_iterative_job(
            self.vectors, KMEANS_K, max_iterations=self.scale.kmeans_supersteps,
            epsilon=0.0, seed=self.seed, parallelism=NUM_O, transport=transport,
            mode="iteration",
        )

    def prepare(self) -> None:
        self.vectors, _labels = generate_kmeans_vectors(
            self.scale.kmeans_vectors, seed=self.seed)
        # The repo's byte-identity contract: every transport gives the
        # centroids the deterministic inline scheduler gives.
        self.expected = self._run("inline")[0].centroids
        self.baseline = self.reference().centroids

    def reference(self) -> Any:
        return kmeans_reference(
            self.vectors, KMEANS_K, max_iterations=self.scale.kmeans_supersteps,
            epsilon=0.0, seed=self.seed)

    def job(self) -> Any:
        clustering, result = self._run(self.transport)
        result.clustering = clustering
        return result

    def check(self, result: Any) -> str | None:
        if result.iterations != self.scale.kmeans_supersteps:
            return f"ran {result.iterations} supersteps"
        centroids = result.clustering.centroids
        if centroids != self.expected:
            return "centroids differ from the inline-transport run"
        for got, want in zip(centroids, self.baseline):
            dims = got.weights.keys() | want.weights.keys()
            if any(abs(got.weights.get(d, 0.0) - want.weights.get(d, 0.0)) > 1e-9
                   for d in dims):
                return "centroids differ from kmeans_reference by more than 1e-9"
        return None

    def plan(self) -> LadderPlan:
        # Steady-state centroids (dense), not the sparse initial sample:
        # that is what all but the first superstep compute against.
        state = self.expected

        def o_task(ctx: Any, split: Any) -> None:
            for vector in split:
                ctx.send(_nearest(vector, state), (dict(vector.weights), 1))

        def a_task(ctx: Any) -> Any:
            return [(cluster, _reduce_partial_list(values))
                    for cluster, values in ctx.grouped()]

        conf = DataMPIConf(
            num_o=NUM_O, num_a=NUM_A, mode="iteration",
            combiner=lambda cluster, values: _reduce_partial_list(values))
        bcast = _dumps(("run", state))
        return LadderPlan(
            conf=conf, o_task=o_task, a_task=a_task,
            supersteps=[[[split] for split in split_round_robin(self.vectors, NUM_O)]],
            per_job=float(self.scale.kmeans_supersteps),
            control=_superstep_control(bcast, [_dumps(("cached", None))] * NUM_O),
            bcast_payload=bcast, uses_cache=True,
        )


class WordCountStream(Workload):
    name = "wcstream_thread"
    transport = "thread"

    def prepare(self) -> None:
        self.lines = TextGenerator(seed=self.seed).lines(self.scale.stream_lines)
        self.expected = self.reference()
        self.splits = list(chunk_lines(self.lines, STREAM_LINES_PER_SPLIT))
        self.windows = -(-len(self.splits) // STREAM_WINDOW_SPLITS)

    def reference(self) -> dict[str, int]:
        return wordcount_reference(self.lines)

    def job(self) -> Any:
        return wordcount_streaming(
            self.lines, parallelism=NUM_O, lines_per_split=STREAM_LINES_PER_SPLIT,
            window_splits=STREAM_WINDOW_SPLITS, transport=self.transport)

    def check(self, result: Any) -> str | None:
        if len(result.windows) != self.windows:
            return f"flushed {len(result.windows)} windows, expected {self.windows}"
        if merge_window_counts(result) != self.expected:
            return "merged window counts differ from wordcount_reference"
        return None

    def plan(self) -> LadderPlan:
        # ``wordcount_streaming`` builds its tasks inline; they are the
        # batch WordCount's tasks line for line, which are reachable.
        job = wordcount_datampi_job(NUM_O)
        windows = [self.splits[i:i + STREAM_WINDOW_SPLITS]
                   for i in range(0, len(self.splits), STREAM_WINDOW_SPLITS)]
        control: list[Any] = []
        for number, batch in enumerate(windows, start=1):
            control += _superstep_control(
                _dumps(("window", number)),
                [_dumps(("data", batch[o::NUM_O])) for o in range(NUM_O)])
        return LadderPlan(
            conf=DataMPIConf(num_o=NUM_O, num_a=NUM_A, mode="streaming",
                             combiner=job.conf.combiner),
            o_task=job.o_task, a_task=job.a_task,
            supersteps=[[batch[o::NUM_O] for o in range(NUM_O)] for batch in windows],
            per_job=1.0, control=control,
            bcast_payload=_dumps(("data", windows[0][0::NUM_O])),
        )


class SmallJobs(Workload):
    name = "smalljobs_tcp"
    transport = "tcp"
    # 48 ms of a 50 ms job is four small-message tcp rounds waiting on
    # delayed-ACK timers; the job is as slow on a fast machine.
    cpu_bound = False
    pool: WorldPool | None = None

    def __init__(self, scale: Scale, seed: int, tmp_dir: Path):
        super().__init__(scale, seed, tmp_dir)
        self.warmups = scale.pool_warmups
        # Every distinct input runs at least once, so bytes_moved (a mean
        # over the distinct inputs) does not depend on how many jobs fit.
        self.min_jobs = scale.small_inputs
        self._next = 0

    def prepare(self) -> None:
        generator = TextGenerator(seed=self.seed)
        self.inputs = [generator.lines(SMALL_JOB_LINES, stream=index)
                       for index in range(self.scale.small_inputs)]
        self.expected = [wordcount_reference(lines) for lines in self.inputs]
        # Warm-pool formation and the first job are set-up: a serving
        # user pays them once, not per request.
        self.pool = WorldPool(num_o=NUM_O, num_a=NUM_A, transport=self.transport)
        self.pool.register("wordcount", wordcount_datampi_job(NUM_O))
        self.pool.start()
        problem = self.check(self.job())
        if problem is not None:
            raise AssertionError(f"first pooled job: {problem}")

    def reference(self) -> dict[str, int]:
        return wordcount_reference(self.inputs[0])

    def job(self) -> Any:
        assert self.pool is not None
        self._last = self._next % len(self.inputs)
        self._next += 1
        return self.pool.run_job(
            "wordcount", split_round_robin(self.inputs[self._last], NUM_O))

    def input_key(self) -> int:
        return self._last

    def check(self, result: Any) -> str | None:
        got = dict(result.merged_outputs())
        if got != self.expected[self._last]:
            return f"counts of input {self._last} differ from wordcount_reference"
        return None

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    def plan(self) -> LadderPlan:
        job = wordcount_datampi_job(NUM_O)
        control: list[Any] = []
        supersteps = []
        for seq, lines in enumerate(self.inputs, start=1):
            splits = split_round_robin(lines, NUM_O)
            supersteps.append([[split] for split in splits])
            control += _superstep_control(
                _dumps(("job", seq, "wordcount", splits)),
                [_dumps(("data", [split])) for split in splits])
        return LadderPlan(
            conf=job.conf, o_task=job.o_task, a_task=job.a_task,
            supersteps=supersteps, per_job=1.0 / len(self.inputs),
            control=control,
            bcast_payload=_dumps(("job", 1, "wordcount",
                                  split_round_robin(self.inputs[0], NUM_O))),
            uses_cache=True, pool_job=job,
        )


WORKLOADS: dict[str, Callable[[Scale, int, Path], Workload]] = {
    "sort_shm": partial(TextSort, name="sort_shm", transport="shm"),
    "sort_tcp": partial(TextSort, name="sort_tcp", transport="tcp"),
    "sort_spill_shm": partial(TextSort, name="sort_spill_shm", transport="shm",
                              spill=True),
    "wordcount_shm": WordCount,
    "kmeans_iter_shm": KMeansIteration,
    "wcstream_thread": WordCountStream,
    "smalljobs_tcp": SmallJobs,
}
