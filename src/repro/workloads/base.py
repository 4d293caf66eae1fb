"""The workload table: which workloads exist, on which engines and modes,
and how one is run and checked.

The paper is a fixed comparison matrix — the BigDataBench workloads of
its Table 1 on three engines — so the repository keeps that matrix in
one literal: :data:`WORKLOADS`.  Every entry is a :class:`Workload`
record of plain callables.  The experiment matrix, ``repro workload``
and the warm-pool front end all read it; adding a workload is adding one
entry.

:func:`run_workload` is the single way to execute an entry.  Whatever
the engine, it returns a :class:`RunRecord`, so callers never learn
which driver ran underneath or where that driver keeps its counters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Mapping, NamedTuple

from repro.bigdatabench import TextGenerator, generate_kmeans_vectors, to_sequence_file
from repro.bigdatabench.vectors import SparseVector
from repro.common.errors import WorkloadError
from repro.datampi import DataMPIJob, IterativeResult, StorageConfig, StreamResult
from repro.hadoop import MapReduceJob
from repro.mpi.transport import Transport
from repro.spark import SparkContext
from repro.workloads.grep import (
    grep_datampi_job,
    grep_hadoop_job,
    grep_reference,
    grep_spark,
)
from repro.workloads.kmeans import (
    KMeansResult,
    kmeans_agree,
    kmeans_iterative_job,
    kmeans_reference,
    kmeans_spark,
)
from repro.workloads.naivebayes import (
    LabeledDocument,
    NaiveBayesModel,
    generate_labeled_documents,
    train_datampi_iterative,
    train_datampi_result,
    train_hadoop_result,
    train_reference,
)
from repro.workloads.sort import (
    sort_reference,
    text_sort_datampi_job,
    text_sort_hadoop_job,
    text_sort_spark,
)
from repro.workloads.splits import split_round_robin
from repro.workloads.streaming import (
    grep_streaming,
    merge_window_counts,
    wordcount_streaming,
)
from repro.workloads.wordcount import (
    wordcount_datampi_job,
    wordcount_hadoop_job,
    wordcount_reference,
    wordcount_spark,
)

if TYPE_CHECKING:
    from repro.experiments.spec import DataScale

ENGINES = ("hadoop", "spark", "datampi")

#: Pattern grep searches unless told otherwise (matches the generated text).
GREP_PATTERN = r"ba[a-z]*"

#: Clusters kmeans trains unless told otherwise.
KMEANS_K = 4


@dataclass(frozen=True)
class RunParams:
    """Everything a run can be told; each runner reads the fields that
    apply to its workload and engine."""

    mode: str = "common"
    #: O/A (and map/reduce, and RDD partition) parallelism.
    parallelism: int = 4
    #: IPC backend and receive-store budgets — datampi engine only.
    transport: str | Transport | None = None
    storage: StorageConfig | None = None
    #: K-means centroid seeding and superstep budget.
    seed: int = 0
    max_iterations: int = 10
    k: int = KMEANS_K
    pattern: str = GREP_PATTERN


class RunRecord(NamedTuple):
    """What every runner returns, whichever engine ran."""

    output: Any
    counters: dict[str, int]
    #: Bytes the engine moved between its two sides (None if uncounted).
    bytes_moved: int | None
    #: Supersteps executed (iterative runs) or windows flushed (streaming).
    iterations: int | None = None
    per_iteration_bytes: list[int] | None = None


Runner = Callable[[Any, RunParams], RunRecord]


@dataclass(frozen=True)
class Workload:
    """One row of the paper's comparison matrix."""

    #: ``(DataScale, seed) -> input``: the generated data every engine shares.
    make_input: Callable[[DataScale, int], Any]
    #: ``mode -> engine -> runner``; a missing key is a combination the
    #: workload does not have (e.g. no Spark Naive Bayes, Section 4.6).
    runners: Mapping[str, Mapping[str, Runner]]
    #: ``(input, params) -> output`` computed in plain Python.
    reference: Callable[[Any, RunParams], Any]
    #: ``output -> JSON-able``: the form cross-engine checksums digest.
    canonical: Callable[[Any], Any]
    #: ``(output, reference) -> bool`` where canonical equality is too
    #: strict (float reductions); None means canonical forms must be equal.
    agrees: Callable[[Any, Any], bool] | None = None
    #: ``(input, params) -> DataMPIJob`` a warm pool can register, where
    #: the workload is a single run-once O/A job.
    job: Callable[[Any, RunParams], DataMPIJob] | None = None

    @property
    def modes(self) -> tuple[str, ...]:
        return tuple(self.runners)

    @property
    def engines(self) -> tuple[str, ...]:
        return tuple(e for e in ENGINES if any(e in by for by in self.runners.values()))

    def verify(self, output: Any, reference: Any) -> bool:
        if self.agrees is not None:
            return self.agrees(output, reference)
        return bool(self.canonical(output) == self.canonical(reference))


# -- records: where each driver keeps the bytes it moved -------------------------


def _ran_once(output: Any, counters: Mapping[str, int], iterations: int | None = None) -> RunRecord:
    """A run-once job (or a chain of them).  DataMPI counts the bytes its
    O side sent; the MapReduce and RDD engines count their shuffle."""
    moved = counters.get("o.bytes_sent", counters.get("shuffle_bytes"))
    return RunRecord(output, dict(counters), moved, iterations)


def _ran_supersteps(output: Any, stats: IterativeResult) -> RunRecord:
    return RunRecord(
        output,
        dict(stats.counters),
        stats.counters.get("mode.bytes_moved"),
        stats.iterations,
        [step["mode.bytes_moved"] for step in stats.per_iteration],
    )


def _ran_windows(stream: StreamResult) -> RunRecord:
    return RunRecord(
        merge_window_counts(stream),
        dict(stream.counters),
        stream.counters.get("mode.bytes_moved"),
        len(stream.windows),
    )


# -- runners: one adapter per engine, shared by the run-once text workloads ------


def _mapreduce(
    make_job: Callable[[list[str], RunParams], MapReduceJob],
    collect: Callable[[list[Any]], Any],
) -> Runner:
    def run(lines: list[str], p: RunParams) -> RunRecord:
        splits = split_round_robin(list(enumerate(lines)), p.parallelism)
        result = make_job(lines, p).run(splits)
        return _ran_once(collect(result.merged_outputs()), result.counters)

    return run


def _rdd(pipeline: Callable[[SparkContext, list[str], RunParams], Any]) -> Runner:
    def run(lines: list[str], p: RunParams) -> RunRecord:
        ctx = SparkContext(default_parallelism=p.parallelism)
        return _ran_once(pipeline(ctx, lines, p), ctx.counters)

    return run


def _oa_job(
    make_job: Callable[[list[str], RunParams], DataMPIJob],
    collect: Callable[[list[Any]], Any],
) -> Runner:
    def run(lines: list[str], p: RunParams) -> RunRecord:
        splits = split_round_robin(list(lines), p.parallelism)
        result = make_job(lines, p).run(splits)
        return _ran_once(collect(result.merged_outputs()), result.counters)

    return run


def _window_lines(lines: list[str]) -> int:
    """Streaming runs chunk their input into (about) eight splits."""
    return max(1, len(lines) // 8)


def _wordcount_windows(lines: list[str], p: RunParams) -> RunRecord:
    stream = wordcount_streaming(
        lines, p.parallelism, _window_lines(lines), transport=p.transport, storage=p.storage
    )
    return _ran_windows(stream)


def _grep_windows(lines: list[str], p: RunParams) -> RunRecord:
    stream = grep_streaming(
        lines,
        p.pattern,
        p.parallelism,
        _window_lines(lines),
        transport=p.transport,
        storage=p.storage,
    )
    return _ran_windows(stream)


def _decompressed(runner: Runner) -> Runner:
    """Normal Sort: the ToSeqFile conversion (key = value = line, DEFLATE)
    in front of a Text Sort runner, with the compression counters beside
    the sort's own — the workload Spark OOMs on at the paper's scale."""

    def run(lines: list[str], p: RunParams) -> RunRecord:
        seqfile = to_sequence_file(lines)
        record = runner([key for key, _value in seqfile.records()], p)
        record.counters["seqfile.raw_bytes"] = seqfile.raw_bytes
        record.counters["seqfile.compressed_bytes"] = seqfile.compressed_bytes
        record.counters["seqfile.records"] = seqfile.num_records
        return record

    return run


def _replayed(runner: Runner) -> Runner:
    """Hadoop's execution of an iterative workload: one fresh job per
    superstep and no cross-iteration cache — the superstep driver's
    Common mode.  It is a measurement device, not a transport benchmark,
    so it is pinned to the deterministic backend and its byte counters
    never depend on the ambient ``REPRO_TRANSPORT``."""

    def run(data: Any, p: RunParams) -> RunRecord:
        return runner(data, replace(p, mode="common", transport="inline", storage=None))

    return run


def _keys(pairs: list[Any]) -> list[Any]:
    return [key for key, _value in pairs]


# -- the iterative workloads' runners --------------------------------------------


def _kmeans_supersteps(vectors: list[SparseVector], p: RunParams) -> RunRecord:
    result, stats = kmeans_iterative_job(
        vectors,
        p.k,
        p.max_iterations,
        seed=p.seed,
        parallelism=p.parallelism,
        transport=p.transport,
        mode=p.mode,
        storage=p.storage,
    )
    return _ran_supersteps(result, stats)


def _kmeans_rdd(vectors: list[SparseVector], p: RunParams) -> RunRecord:
    result, counters = kmeans_spark(
        vectors, p.k, p.max_iterations, seed=p.seed, parallelism=p.parallelism
    )
    return _ran_once(result, counters, result.iterations)


def _naive_bayes_pipeline(documents: list[LabeledDocument], p: RunParams) -> RunRecord:
    return _ran_once(*train_hadoop_result(documents, p.parallelism))


def _naive_bayes_chained(documents: list[LabeledDocument], p: RunParams) -> RunRecord:
    model, counters = train_datampi_result(
        documents, p.parallelism, transport=p.transport, storage=p.storage
    )
    return _ran_once(model, counters)


def _naive_bayes_supersteps(documents: list[LabeledDocument], p: RunParams) -> RunRecord:
    model, stats = train_datampi_iterative(
        documents, p.parallelism, transport=p.transport, mode=p.mode, storage=p.storage
    )
    return _ran_supersteps(model, stats)


# -- inputs and canonical forms --------------------------------------------------


def _text_lines(scale: DataScale, seed: int) -> list[str]:
    return TextGenerator(seed=seed).lines(scale.lines)


def _vectors(scale: DataScale, seed: int) -> list[SparseVector]:
    vectors, _labels = generate_kmeans_vectors(scale.vectors, seed=seed)
    return vectors


def _documents(scale: DataScale, seed: int) -> list[LabeledDocument]:
    return generate_labeled_documents(scale.docs, seed=seed)


def _canonical_counts(counts: Any) -> list[list[Any]]:
    """Accepts the ``{key: count}`` dict or a pool's merged ``(key, count)``
    pairs."""
    return [[key, count] for key, count in sorted(dict(counts).items())]


def _canonical_centroids(result: KMeansResult) -> list[list[list[Any]]]:
    return [sorted([dim, weight] for dim, weight in c.weights.items()) for c in result.centroids]


def _canonical_model(model: NaiveBayesModel) -> dict[str, Any]:
    return {
        "doc_counts": sorted(model.class_doc_counts.items()),
        "term_counts": [
            [label, sorted(counts.items())]
            for label, counts in sorted(model.class_term_counts.items())
        ],
        "vocabulary": sorted(model.vocabulary),
    }


# -- the table -------------------------------------------------------------------


def _wordcount_job(_lines: list[str], p: RunParams) -> DataMPIJob:
    return wordcount_datampi_job(p.parallelism, p.transport, p.storage)


def _grep_job(_lines: list[str], p: RunParams) -> DataMPIJob:
    return grep_datampi_job(p.pattern, p.parallelism, p.transport, p.storage)


def _text_sort_job(lines: list[str], p: RunParams) -> DataMPIJob:
    return text_sort_datampi_job(lines, p.parallelism, p.transport, p.storage)


def _grep_mapreduce(_lines: list[str], p: RunParams) -> MapReduceJob:
    return grep_hadoop_job(p.pattern, p.parallelism)


def _grep_rdd(ctx: SparkContext, lines: list[str], p: RunParams) -> dict[str, int]:
    return grep_spark(ctx, lines, p.pattern, p.parallelism)


_TEXT_SORT: dict[str, Runner] = {
    "hadoop": _mapreduce(lambda lines, p: text_sort_hadoop_job(lines, p.parallelism), _keys),
    "spark": _rdd(lambda ctx, lines, p: text_sort_spark(ctx, lines, p.parallelism)),
    "datampi": _oa_job(_text_sort_job, list),
}

# K-means is iterative on every engine, so both of its modes run the same
# drivers; only the O/A stack distinguishes them (``p.mode``).
_KMEANS: dict[str, Runner] = {
    "hadoop": _replayed(_kmeans_supersteps),
    "spark": _kmeans_rdd,
    "datampi": _kmeans_supersteps,
}

#: Keyed in the order the full matrix enumerates them (Table 1's order).
WORKLOADS: dict[str, Workload] = {
    "wordcount": Workload(
        make_input=_text_lines,
        runners={
            "common": {
                "hadoop": _mapreduce(lambda _lines, p: wordcount_hadoop_job(p.parallelism), dict),
                "spark": _rdd(lambda ctx, lines, p: wordcount_spark(ctx, lines, p.parallelism)),
                "datampi": _oa_job(_wordcount_job, dict),
            },
            "streaming": {"datampi": _wordcount_windows},
        },
        reference=lambda lines, _p: wordcount_reference(lines),
        canonical=_canonical_counts,
        job=_wordcount_job,
    ),
    "grep": Workload(
        make_input=_text_lines,
        runners={
            "common": {
                "hadoop": _mapreduce(_grep_mapreduce, dict),
                "spark": _rdd(_grep_rdd),
                "datampi": _oa_job(_grep_job, dict),
            },
            "streaming": {"datampi": _grep_windows},
        },
        reference=lambda lines, p: grep_reference(lines, p.pattern),
        canonical=_canonical_counts,
        job=_grep_job,
    ),
    "text_sort": Workload(
        make_input=_text_lines,
        runners={"common": _TEXT_SORT},
        reference=lambda lines, _p: sort_reference(lines),
        canonical=list,
        job=_text_sort_job,
    ),
    "normal_sort": Workload(
        make_input=_text_lines,
        runners={"common": {engine: _decompressed(run) for engine, run in _TEXT_SORT.items()}},
        reference=lambda lines, _p: sort_reference(lines),
        canonical=list,
    ),
    "kmeans": Workload(
        make_input=_vectors,
        runners={"common": _KMEANS, "iteration": _KMEANS},
        reference=lambda vectors, p: kmeans_reference(vectors, p.k, p.max_iterations, seed=p.seed),
        canonical=_canonical_centroids,
        # Reduction order differs per engine: centroids agree to 1e-9, and
        # only the O/A stack's runs are bit-identical to each other.
        agrees=kmeans_agree,
    ),
    "naive_bayes": Workload(
        make_input=_documents,
        runners={
            "common": {"hadoop": _naive_bayes_pipeline, "datampi": _naive_bayes_chained},
            "iteration": {
                "hadoop": _replayed(_naive_bayes_supersteps),
                "datampi": _naive_bayes_supersteps,
            },
        },
        reference=lambda documents, _p: train_reference(documents),
        canonical=_canonical_model,
    ),
}


def run_workload(name: str, engine: str, data: Any, params: RunParams = RunParams()) -> RunRecord:
    """Run workload ``name`` on ``engine`` over ``data``.

    A combination the table does not declare raises
    :class:`~repro.common.errors.WorkloadError` naming the supported set.

    Examples:
        >>> from repro.workloads import RunParams, run_workload
        >>> record = run_workload("wordcount", "spark", ["b a", "a"],
        ...                       RunParams(parallelism=2))
        >>> sorted(record.output.items()), record.bytes_moved > 0
        ([('a', 2), ('b', 1)], True)
    """
    workload = WORKLOADS.get(name)
    if workload is None:
        raise WorkloadError(f"unknown workload {name!r}; available: {sorted(WORKLOADS)}")
    if engine not in workload.engines:
        raise WorkloadError(f"workload {name!r} runs on engines {workload.engines}, got {engine!r}")
    runner = workload.runners.get(params.mode, {}).get(engine)
    if runner is None:
        modes = tuple(m for m, by_engine in workload.runners.items() if engine in by_engine)
        raise WorkloadError(
            f"workload {name!r} supports modes {modes} on engine {engine!r}, "
            f"got {params.mode!r}"
        )
    return runner(data, params)
