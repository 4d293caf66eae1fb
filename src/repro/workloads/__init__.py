"""The BigDataBench workloads (Table 1) on the three engines.

:data:`WORKLOADS` (in :mod:`repro.workloads.base`) is the table of what
exists; :func:`run_workload` runs one entry.  The per-workload modules
hold the jobs themselves — the names re-exported here are the table API
plus the job factories, references and data types other layers use
directly.
"""

from repro.workloads.base import (
    ENGINES,
    WORKLOADS,
    RunParams,
    RunRecord,
    Workload,
    run_workload,
)
from repro.workloads.grep import grep_datampi_job, grep_reference
from repro.workloads.kmeans import (
    DEFAULT_EPSILON,
    KMeansResult,
    initial_centroids,
    kmeans_agree,
    kmeans_iterative_job,
    kmeans_reference,
)
from repro.workloads.naivebayes import (
    LabeledDocument,
    NaiveBayesModel,
    generate_labeled_documents,
    train_datampi_iterative,
    train_reference,
)
from repro.workloads.sort import (
    sort_reference,
    text_sort_datampi_job,
    text_sort_datampi_result,
)
from repro.workloads.splits import split_round_robin
from repro.workloads.streaming import (
    chunk_lines,
    grep_streaming,
    merge_window_counts,
    wordcount_streaming,
)
from repro.workloads.wordcount import (
    wordcount_datampi_job,
    wordcount_datampi_result,
    wordcount_reference,
)

__all__ = [
    "ENGINES",
    "WORKLOADS",
    "RunParams",
    "RunRecord",
    "Workload",
    "run_workload",
    "grep_datampi_job",
    "grep_reference",
    "DEFAULT_EPSILON",
    "KMeansResult",
    "initial_centroids",
    "kmeans_agree",
    "kmeans_iterative_job",
    "kmeans_reference",
    "LabeledDocument",
    "NaiveBayesModel",
    "generate_labeled_documents",
    "train_datampi_iterative",
    "train_reference",
    "sort_reference",
    "text_sort_datampi_job",
    "text_sort_datampi_result",
    "split_round_robin",
    "chunk_lines",
    "grep_streaming",
    "merge_window_counts",
    "wordcount_streaming",
    "wordcount_datampi_job",
    "wordcount_datampi_result",
    "wordcount_reference",
]
