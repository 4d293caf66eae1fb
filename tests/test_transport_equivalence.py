"""Cross-backend equivalence: every workload on the DataMPI engine must
produce byte-identical output on the ``thread``, ``shm``, and ``inline``
transports.

Outputs are serialized to bytes with a stable encoder and compared against
the ``thread`` backend's result, so any divergence — ordering, float
summation order, partition routing — fails loudly.  This is the guarantee
that makes the transport layer a pure performance knob.

The mode x transport matrix extends the same guarantee to the Iteration
and Streaming execution modes: merged outputs, per-superstep counters,
and (for iteration mode) the evolved state must be byte-identical on
every backend, because the superstep control traffic (control scatter,
input scatter, outcome gather) is pickled to bytes before it travels.
"""

import pickle

import pytest

from repro.bigdatabench import TextGenerator
from repro.bigdatabench.vectors import SparseVector
from repro.common.rng import substream
from repro.datampi import DataMPIConf, DataMPIJob
from repro.workloads import (
    RunParams,
    generate_labeled_documents,
    grep_reference,
    grep_streaming,
    kmeans_iterative_job,
    merge_window_counts,
    run_workload,
    sort_reference,
    train_datampi_iterative,
    wordcount_reference,
    wordcount_streaming,
)

TRANSPORTS = ("thread", "shm", "inline", "tcp")
ALT_TRANSPORTS = tuple(t for t in TRANSPORTS if t != "thread")

LINES = TextGenerator(seed=7).lines(240)
PARALLELISM = 3


def stable_bytes(value) -> bytes:
    """Deterministic byte serialization of a workload output."""
    return pickle.dumps(_canonical(value), protocol=4)


def _canonical(value):
    if isinstance(value, dict):
        # Dict content AND iteration order must agree across backends.
        return ("dict", [( _canonical(k), _canonical(v)) for k, v in value.items()])
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, set):
        return ("set", sorted(value))
    if isinstance(value, SparseVector):
        return ("vec", [(dim, weight) for dim, weight in value.weights.items()])
    return value


@pytest.fixture(params=ALT_TRANSPORTS)
def alt_transport(request):
    return request.param


def _datampi(name, data, transport, **params):
    """Common-mode run of a table workload on the O/A stack."""
    return run_workload(
        name, "datampi", data,
        RunParams(parallelism=PARALLELISM, transport=transport, **params),
    ).output


class TestWorkloadEquivalence:
    def test_sort(self, alt_transport):
        reference = _datampi("text_sort", LINES, "thread")
        assert reference == sort_reference(LINES)
        other = _datampi("text_sort", LINES, alt_transport)
        assert stable_bytes(other) == stable_bytes(reference)

    def test_wordcount(self, alt_transport):
        reference = _datampi("wordcount", LINES, "thread")
        assert reference == wordcount_reference(LINES)
        other = _datampi("wordcount", LINES, alt_transport)
        assert stable_bytes(other) == stable_bytes(reference)

    def test_grep(self, alt_transport):
        pattern = r"ba[a-z]*"
        reference = _datampi("grep", LINES, "thread", pattern=pattern)
        assert reference == grep_reference(LINES, pattern)
        other = _datampi("grep", LINES, alt_transport, pattern=pattern)
        assert stable_bytes(other) == stable_bytes(reference)

    def test_kmeans(self, alt_transport):
        rng = substream(11, "transport-kmeans")
        vectors = [
            SparseVector({dim: rng.random() for dim in rng.sample(range(12), 4)})
            for _ in range(60)
        ]
        reference = _datampi("kmeans", vectors, "thread", k=4, max_iterations=3)
        other = _datampi("kmeans", vectors, alt_transport, k=4, max_iterations=3)
        # Float-exact: same addition order on every backend (chunk origins
        # canonicalise the merge), so centroids agree to the last bit.
        assert stable_bytes(other.centroids) == stable_bytes(reference.centroids)
        assert other.iterations == reference.iterations
        assert other.converged == reference.converged

    def test_naive_bayes(self, alt_transport):
        documents = generate_labeled_documents(40, words_per_doc=12, seed=3)
        reference = _datampi("naive_bayes", documents, "thread")
        other = _datampi("naive_bayes", documents, alt_transport)
        for attribute in ("class_term_counts", "class_doc_counts", "vocabulary"):
            assert stable_bytes(getattr(other, attribute)) == \
                stable_bytes(getattr(reference, attribute))


class TestManyChunkEquivalence:
    """Tiny send buffers force many interleaved chunks per destination, the
    regime where arrival order actually varies between backends."""

    @staticmethod
    def _run(transport: str, send_buffer_bytes: int = 64, lines=LINES):
        def o_task(ctx, split):
            for index, line in enumerate(split):
                ctx.send(len(line) % 5, (line, index * 0.125))

        def a_task(ctx):
            return [(key, values) for key, values in ctx.grouped()]

        job = DataMPIJob(
            o_task, a_task,
            DataMPIConf(num_o=3, num_a=2, send_buffer_bytes=send_buffer_bytes,
                        job_name="many-chunks", transport=transport),
        )
        splits = [lines[index::3] for index in range(3)]
        return job.run(splits)

    def test_outputs_and_counters_match(self, alt_transport):
        reference = self._run("thread")
        other = self._run(alt_transport)
        assert stable_bytes(other.outputs) == stable_bytes(reference.outputs)
        assert other.counters == reference.counters

    def test_8kib_buffers_stream_every_record(self, alt_transport):
        """The O->A streaming shape at a mid-size send buffer: several
        8 KiB chunks per O->A pair, every record arrives, and outputs and
        counters match the thread backend."""
        lines = LINES * 16
        reference = self._run("thread", 8 * 1024, lines)
        other = self._run(alt_transport, 8 * 1024, lines)
        assert reference.counters["o.chunks_sent"] > 3 * 2
        assert reference.counters["a.records_received"] == len(lines)
        assert stable_bytes(other.outputs) == stable_bytes(reference.outputs)
        assert other.counters == reference.counters


# -- mode x transport matrix ----------------------------------------------------
#
# Each execution mode runs one representative workload on every backend;
# outputs AND the driver's per-superstep counter records must agree with
# the thread backend byte for byte.

KMEANS_VECTORS = [
    SparseVector({dim: rng.random() for dim in rng.sample(range(12), 4)})
    for rng in [substream(11, "mode-matrix-kmeans")]
    for _ in range(60)
]

DOCUMENTS = generate_labeled_documents(30, words_per_doc=10, seed=5)


def _iteration_kmeans(transport):
    result, stats = kmeans_iterative_job(
        KMEANS_VECTORS, k=4, max_iterations=3, parallelism=PARALLELISM,
        transport=transport,
    )
    return result, stats


def _iteration_naive_bayes(transport):
    model, stats = train_datampi_iterative(
        DOCUMENTS, parallelism=PARALLELISM, transport=transport
    )
    return model, stats


def _streaming_wordcount(transport):
    return wordcount_streaming(LINES, parallelism=PARALLELISM,
                               lines_per_split=30, transport=transport)


def _streaming_grep(transport):
    return grep_streaming(LINES, r"ba[a-z]*", parallelism=PARALLELISM,
                          lines_per_split=30, transport=transport)


class TestModeTransportMatrix:
    """2 modes x 3 transports x 2 workloads, all against the thread run."""

    def test_iteration_kmeans(self, alt_transport):
        reference, ref_stats = _iteration_kmeans("thread")
        other, other_stats = _iteration_kmeans(alt_transport)
        assert stable_bytes(other.centroids) == stable_bytes(reference.centroids)
        assert other.iterations == reference.iterations
        assert other.converged == reference.converged
        assert other_stats.per_iteration == ref_stats.per_iteration
        assert other_stats.counters == ref_stats.counters
        assert stable_bytes(other_stats.merged_outputs()) == \
            stable_bytes(ref_stats.merged_outputs())

    def test_iteration_naive_bayes(self, alt_transport):
        reference, ref_stats = _iteration_naive_bayes("thread")
        other, other_stats = _iteration_naive_bayes(alt_transport)
        for attribute in ("class_term_counts", "class_doc_counts", "vocabulary"):
            assert stable_bytes(getattr(other, attribute)) == \
                stable_bytes(getattr(reference, attribute))
        assert other_stats.per_iteration == ref_stats.per_iteration

    def test_streaming_wordcount(self, alt_transport):
        reference = _streaming_wordcount("thread")
        assert merge_window_counts(reference) == wordcount_reference(LINES)
        other = _streaming_wordcount(alt_transport)
        assert [w.watermark for w in other.windows] == \
            [w.watermark for w in reference.windows]
        for mine, theirs in zip(other.windows, reference.windows):
            assert stable_bytes(mine.outputs) == stable_bytes(theirs.outputs)
            assert mine.counters == theirs.counters
        assert other.counters == reference.counters

    def test_streaming_grep(self, alt_transport):
        reference = _streaming_grep("thread")
        assert merge_window_counts(reference) == \
            grep_reference(LINES, r"ba[a-z]*")
        other = _streaming_grep(alt_transport)
        assert stable_bytes([w.outputs for w in other.windows]) == \
            stable_bytes([w.outputs for w in reference.windows])
        assert other.counters == reference.counters

    def test_iteration_mode_agrees_with_common_mode_across_transports(
        self, alt_transport
    ):
        """The mode axis itself: iteration-mode centroids equal the
        one-job-per-iteration baseline's on every backend."""
        baseline = _datampi("kmeans", KMEANS_VECTORS, "thread", k=4,
                            max_iterations=3)
        other, _stats = _iteration_kmeans(alt_transport)
        assert stable_bytes(other.centroids) == stable_bytes(baseline.centroids)
