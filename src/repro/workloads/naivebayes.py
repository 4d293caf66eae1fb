"""Naive Bayes on Hadoop and DataMPI (Mahout's multi-job pipeline).

Section 4.6: "The procedure of Naive Bayes mainly contains two steps,
including converting sequence files to sparse vectors and training the
Naive Bayes model. ... The main operation in steps above is counting,
including term counting and document counting."  The paper compares only
Hadoop and DataMPI because "the latest BigDataBench lacks the
implementation of Naive Bayes in Spark" — this module mirrors that: the
``WORKLOADS`` table's ``naive_bayes`` entry has ``hadoop`` and
``datampi`` runners only.

The pipeline runs three counting jobs (term frequency per class, document
frequency, per-class document counts) and then trains a multinomial model
with Laplace smoothing.  Both engines produce bit-identical models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.bigdatabench.seedmodels import all_amazon_models
from repro.common.errors import WorkloadError
from repro.common.rng import substream
from repro.datampi import DataMPIConf, DataMPIJob, IterativeJob, IterativeResult, StorageConfig
from repro.hadoop import HadoopConf, JobPipeline, MapReduceJob
from repro.mpi.transport import Transport
from repro.workloads.splits import split_round_robin


@dataclass(frozen=True)
class LabeledDocument:
    """One training/test document."""

    doc_id: int
    label: str
    tokens: tuple[str, ...]


def generate_labeled_documents(
    num_docs: int, words_per_doc: int = 30, seed: int = 0
) -> list[LabeledDocument]:
    """Documents drawn from the five amazon seed models, labels balanced.

    "By default, these documents are classified into five categories
    according to their dependent seed models, e.g. amazon1-amazon5."
    """
    if num_docs < 1:
        raise WorkloadError(f"need >= 1 document, got {num_docs}")
    models = all_amazon_models()
    documents = []
    for doc_id in range(num_docs):
        model = models[doc_id % len(models)]
        rng = substream(seed, "nbgen", doc_id)
        tokens = tuple(model.sample_sentence(rng, words_per_doc).split())
        documents.append(LabeledDocument(doc_id, model.name, tokens))
    return documents


@dataclass
class NaiveBayesModel:
    """Multinomial Naive Bayes with Laplace smoothing."""

    class_term_counts: dict[str, dict[str, int]]
    class_doc_counts: dict[str, int]
    vocabulary: set[str]
    alpha: float = 1.0

    def log_prior(self, label: str) -> float:
        total_docs = sum(self.class_doc_counts.values())
        return math.log(self.class_doc_counts[label] / total_docs)

    def log_likelihood(self, label: str, token: str) -> float:
        counts = self.class_term_counts[label]
        total = sum(counts.values())
        smoothed = counts.get(token, 0) + self.alpha
        return math.log(smoothed / (total + self.alpha * len(self.vocabulary)))

    def classify(self, tokens: Sequence[str]) -> str:
        """Most probable class for a token sequence."""
        best_label, best_score = None, -math.inf
        for label in sorted(self.class_doc_counts):
            score = self.log_prior(label)
            for token in tokens:
                score += self.log_likelihood(label, token)
            if score > best_score:
                best_label, best_score = label, score
        assert best_label is not None
        return best_label

    def accuracy(self, documents: Sequence[LabeledDocument]) -> float:
        if not documents:
            raise WorkloadError("accuracy over zero documents")
        correct = sum(
            1 for doc in documents if self.classify(doc.tokens) == doc.label
        )
        return correct / len(documents)


def train_reference(documents: Sequence[LabeledDocument], alpha: float = 1.0) -> NaiveBayesModel:
    """Direct single-pass trainer (verification oracle)."""
    term_counts: dict[str, dict[str, int]] = {}
    doc_counts: dict[str, int] = {}
    vocabulary: set[str] = set()
    for doc in documents:
        doc_counts[doc.label] = doc_counts.get(doc.label, 0) + 1
        table = term_counts.setdefault(doc.label, {})
        for token in doc.tokens:
            table[token] = table.get(token, 0) + 1
            vocabulary.add(token)
    return NaiveBayesModel(term_counts, doc_counts, vocabulary, alpha)


def _assemble(term_rows, doc_rows, vocab_rows, alpha) -> NaiveBayesModel:
    """Build the model from the three counting jobs' outputs."""
    term_counts: dict[str, dict[str, int]] = {}
    for (label, token), count in term_rows:
        term_counts.setdefault(label, {})[token] = count
    doc_counts = dict(doc_rows)
    vocabulary = {token for token, _count in vocab_rows}
    return NaiveBayesModel(term_counts, doc_counts, vocabulary, alpha)


def train_hadoop_result(
    documents: Sequence[LabeledDocument], parallelism: int = 4,
    alpha: float = 1.0,
) -> tuple[NaiveBayesModel, dict[str, int]]:
    """Mahout-on-Hadoop: three chained counting MapReduce jobs.

    Returns the trained model together with the pipeline's summed
    counters (``shuffle_bytes`` etc. across all three jobs), so the
    experiment matrix can report the bytes the chained-job structure
    moves.
    """
    pipeline = JobPipeline(num_splits=parallelism)
    splits = split_round_robin([(d.doc_id, d) for d in documents], parallelism)

    def tf_mapper(_doc_id, doc):
        for token in doc.tokens:
            yield (doc.label, token), 1

    def sum_reducer(key, values):
        yield key, sum(values)

    term_job = MapReduceJob(
        tf_mapper, sum_reducer,
        HadoopConf(num_reduces=parallelism, combiner=lambda k, vs: sum(vs),
                   job_name="nb-termcount"),
    )
    term_result = pipeline.run_job(term_job, splits)

    def df_mapper(_doc_id, doc):
        for token in set(doc.tokens):
            yield token, 1

    df_job = MapReduceJob(
        df_mapper, sum_reducer,
        HadoopConf(num_reduces=parallelism, combiner=lambda k, vs: sum(vs),
                   job_name="nb-docfreq"),
    )
    df_result = pipeline.run_job(df_job, splits)

    def label_mapper(_doc_id, doc):
        yield doc.label, 1

    label_job = MapReduceJob(
        label_mapper, sum_reducer,
        HadoopConf(num_reduces=parallelism, combiner=lambda k, vs: sum(vs),
                   job_name="nb-classcount"),
    )
    label_result = pipeline.run_job(label_job, splits)

    model = _assemble(
        [(kv.key, kv.value) for kv in term_result.merged_outputs()],
        [(kv.key, kv.value) for kv in label_result.merged_outputs()],
        [(kv.key, kv.value) for kv in df_result.merged_outputs()],
        alpha,
    )
    return model, pipeline.total_counters


def _sum_combiner(_key, values):
    """Every counting pass's combiner, in both modes."""
    return sum(values)


def _sum_a_task(ctx):
    """Every counting pass's A task, in both modes: sum each key's ones."""
    return [(key, sum(values)) for key, values in ctx.grouped()]


def train_datampi_result(
    documents: Sequence[LabeledDocument], parallelism: int = 4,
    alpha: float = 1.0, transport: str | Transport | None = None,
    storage: StorageConfig | None = None,
) -> tuple[NaiveBayesModel, dict[str, int]]:
    """The same three counting passes as chained DataMPI jobs.

    Returns the trained model plus the three jobs' summed counters
    (``o.bytes_sent`` etc.), the Common-mode cost the Iteration-mode
    variant exists to undercut.
    """
    splits = split_round_robin(list(documents), parallelism)
    conf = DataMPIConf(num_o=parallelism, num_a=parallelism,
                       combiner=_sum_combiner,
                       job_name="nb-count",
                       transport=transport,
                       storage=storage)

    def term_o(ctx, split):
        for doc in split:
            for token in doc.tokens:
                ctx.send((doc.label, token), 1)

    def df_o(ctx, split):
        for doc in split:
            for token in set(doc.tokens):
                ctx.send(token, 1)

    def label_o(ctx, split):
        for doc in split:
            ctx.send(doc.label, 1)

    totals: dict[str, int] = {}

    def run_pass(o_task):
        result = DataMPIJob(o_task, _sum_a_task, conf).run(splits)
        for name, value in result.counters.items():
            totals[name] = totals.get(name, 0) + value
        return result.merged_outputs()

    term_rows = run_pass(term_o)
    df_rows = run_pass(df_o)
    label_rows = run_pass(label_o)
    return _assemble(term_rows, label_rows, df_rows, alpha), totals


#: Counting passes of the Mahout pipeline, run as one superstep each in
#: Iteration mode (the per-iteration "state" is simply which pass runs).
_NB_PHASES = ("term", "df", "label")


def train_datampi_iterative(
    documents: Sequence[LabeledDocument], parallelism: int = 4,
    alpha: float = 1.0, transport: str | Transport | None = None,
    mode: str = "iteration", storage: StorageConfig | None = None,
) -> tuple[NaiveBayesModel, IterativeResult]:
    """The three counting passes as supersteps of one kept-alive world.

    The documents are scattered once and pinned in the O-side cache; the
    document-frequency and class-count passes read them locally instead
    of re-partitioning — the chained-job redundancy Common mode pays
    three times.  Counting math matches :func:`train_datampi_result`
    exactly, so the model is bit-identical.  Returns the model plus the
    driver-level per-superstep counters.
    """

    def o_task(ctx, split, state):
        phase = state["phase"]
        for doc in split:
            if phase == "term":
                for token in doc.tokens:
                    ctx.send((doc.label, token), 1)
            elif phase == "df":
                for token in set(doc.tokens):
                    ctx.send(token, 1)
            else:
                ctx.send(doc.label, 1)

    def update(state, merged, _iteration):
        rows = dict(state["rows"])
        rows[state["phase"]] = merged
        done = len(rows) == len(_NB_PHASES)
        next_phase = state["phase"] if done else _NB_PHASES[len(rows)]
        return {"phase": next_phase, "rows": rows}, done

    job = IterativeJob(
        o_task, _sum_a_task, update,
        DataMPIConf(num_o=parallelism, num_a=parallelism,
                    combiner=_sum_combiner,
                    job_name="nb-iterative", transport=transport,
                    mode=mode, storage=storage),
        max_iterations=len(_NB_PHASES),
    )
    result = job.run(
        split_round_robin(list(documents), parallelism),
        {"phase": _NB_PHASES[0], "rows": {}},
    )
    rows = result.state["rows"]
    model = _assemble(rows["term"], rows["label"], rows["df"], alpha)
    return model, result
