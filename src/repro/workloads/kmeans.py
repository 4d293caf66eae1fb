"""K-means on all three engines (Mahout's iterative structure).

Section 4.6: "Each iterative execution in Mahout is a MapReduce job.  In
one job, Map tasks read the initial or previous cluster centroids from
HDFS, afterwards, assign the input vectors to appropriate clusters
according to the distance calculation and train the new centroids
independently. ... Reduce tasks receive and update the centroids for
next iteration."  The paper also notes "most of K-means calculation
happens in Map phase, and few intermediate data is generated" — with a
combiner, each map task emits at most ``k`` partial sums.

DataMPI runs it as a superstep job (:func:`kmeans_iterative_job`):
Iteration mode keeps the ranks and the input alive across iterations,
Common mode replays one fresh job per iteration — which is also exactly
Hadoop/Mahout's execution pattern, so the ``WORKLOADS`` table's hadoop
runner is that replay.  Spark iterates over a cached RDD
(:func:`kmeans_spark`).  All run the same assignment/update math, so
they converge to identical centroids from identical seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.bigdatabench.vectors import SparseVector, mean_vector
from repro.common.errors import WorkloadError
from repro.common.rng import substream
from repro.datampi import DataMPIConf, IterativeJob, IterativeResult, StorageConfig
from repro.mpi.transport import Transport
from repro.spark import SparkContext
from repro.workloads.splits import split_round_robin

#: Convergence threshold on centroid movement (Mahout's default-ish).
DEFAULT_EPSILON = 1e-3


@dataclass
class KMeansResult:
    """Final clustering state."""

    centroids: list[SparseVector]
    iterations: int
    converged: bool

    def assign(self, vector: SparseVector) -> int:
        """Nearest-centroid assignment for one vector."""
        return min(
            range(len(self.centroids)),
            key=lambda index: vector.squared_distance(self.centroids[index]),
        )


def initial_centroids(vectors: Sequence[SparseVector], k: int, seed: int = 0) -> list[SparseVector]:
    """Sample k distinct starting centroids (Mahout's random seeding)."""
    if k < 1:
        raise WorkloadError(f"k must be >= 1, got {k}")
    if len(vectors) < k:
        raise WorkloadError(f"need >= {k} vectors, got {len(vectors)}")
    rng = substream(seed, "kmeans-init")
    return [SparseVector(dict(v.weights)) for v in rng.sample(list(vectors), k)]


def _nearest(vector: SparseVector, centroids: Sequence[SparseVector]) -> int:
    return min(
        range(len(centroids)),
        key=lambda index: vector.squared_distance(centroids[index]),
    )


def _max_shift(old: Sequence[SparseVector], new: Sequence[SparseVector]) -> float:
    return max(
        math.sqrt(o.squared_distance(n)) for o, n in zip(old, new)
    )


def kmeans_agree(a: KMeansResult, b: KMeansResult,
                 tolerance: float = 1e-9) -> bool:
    """Same trajectory: equal iteration counts and centroids within
    ``tolerance`` (the engines reduce partial sums in different orders,
    so only runs on the same stack are bit-identical)."""
    return (a.iterations == b.iterations
            and _max_shift(a.centroids, b.centroids) < tolerance)


def _merge_partials(a: tuple[dict, int], b: tuple[dict, int]) -> tuple[dict, int]:
    """Merge two (weight-sum dict, count) partial aggregates."""
    weights = dict(a[0])
    for dim, weight in b[0].items():
        weights[dim] = weights.get(dim, 0.0) + weight
    return weights, a[1] + b[1]


def _centroid_of(partial: tuple[dict, int]) -> SparseVector:
    weights, count = partial
    if count == 0:
        raise WorkloadError("empty cluster partial")
    return SparseVector({dim: w / count for dim, w in weights.items()})


def _step(centroids: Sequence[SparseVector],
          partials: dict[int, tuple[dict, int]]) -> tuple[list[SparseVector], float]:
    """One update from merged per-cluster partials: the new centroids (an
    empty cluster keeps its old one) and how far the furthest one moved."""
    updated = [
        _centroid_of(partials[index]) if index in partials else centroids[index]
        for index in range(len(centroids))
    ]
    return updated, _max_shift(centroids, updated)


def kmeans_reference(
    vectors: Sequence[SparseVector], k: int, max_iterations: int = 10,
    epsilon: float = DEFAULT_EPSILON, seed: int = 0,
) -> KMeansResult:
    """Single-threaded reference implementation."""
    centroids = initial_centroids(vectors, k, seed)
    for iteration in range(1, max_iterations + 1):
        buckets: dict[int, list[SparseVector]] = {}
        for vector in vectors:
            buckets.setdefault(_nearest(vector, centroids), []).append(vector)
        updated = [
            mean_vector(buckets[index]) if index in buckets else centroids[index]
            for index in range(k)
        ]
        shift = _max_shift(centroids, updated)
        centroids = updated
        if shift < epsilon:
            return KMeansResult(centroids, iteration, True)
    return KMeansResult(centroids, max_iterations, False)


def _reduce_partial_list(partials: list[tuple[dict, int]]) -> tuple[dict, int]:
    merged = partials[0]
    for partial in partials[1:]:
        merged = _merge_partials(merged, partial)
    return merged


def _combine_partials(_cluster: int, partials: list[tuple[dict, int]]) -> tuple[dict, int]:
    """The DataMPI combiner: one cluster's partials, left-folded."""
    return _reduce_partial_list(partials)


def kmeans_spark(
    vectors: Sequence[SparseVector], k: int, max_iterations: int = 10,
    epsilon: float = DEFAULT_EPSILON, seed: int = 0, parallelism: int = 4,
) -> tuple[KMeansResult, dict[str, int]]:
    """K-means on the functional RDD engine, iterating over a cached RDD.

    Returns the clustering plus the context's counters (``shuffle_bytes``
    across all iterations).
    """
    if max_iterations < 1:
        raise WorkloadError("max_iterations must be >= 1")
    ctx = SparkContext(default_parallelism=parallelism, memory_capacity=1 << 30)
    cached_rdd = ctx.parallelize(list(enumerate(vectors)), parallelism).cache()
    centroids = initial_centroids(vectors, k, seed)
    for iteration in range(1, max_iterations + 1):
        assignments = cached_rdd.map(
            lambda pair: (_nearest(pair[1], centroids), (dict(pair[1].weights), 1))
        )
        partials = dict(
            assignments.reduce_by_key(_merge_partials, parallelism).collect()
        )
        centroids, shift = _step(centroids, partials)
        if shift < epsilon:
            return KMeansResult(centroids, iteration, True), ctx.counters
    return KMeansResult(centroids, max_iterations, False), ctx.counters


def kmeans_iterative_job(
    vectors: Sequence[SparseVector],
    k: int,
    max_iterations: int = 10,
    epsilon: float = DEFAULT_EPSILON,
    seed: int = 0,
    parallelism: int = 4,
    transport: str | Transport | None = None,
    mode: str = "iteration",
    checkpoint_dir: str | None = None,
    resume: bool = False,
    storage: StorageConfig | None = None,
) -> tuple[KMeansResult, IterativeResult]:
    """K-means as a DataMPI superstep job (Iteration mode or its Common
    baseline).

    Same math, partitioning, buffers and merge order as the run-once
    loop, so the centroids are byte-identical across modes — but with
    ``mode="iteration"`` the input vectors cross the comm layer once and
    are served from the per-rank cache thereafter.  Returns both the
    workload-level :class:`KMeansResult` and the driver-level
    :class:`IterativeResult` (per-iteration byte counters and timings).
    """
    if max_iterations < 1:
        raise WorkloadError("max_iterations must be >= 1")

    def o_task(ctx, split, centroids):
        for vector in split:
            ctx.send(_nearest(vector, centroids), (dict(vector.weights), 1))

    def a_task(ctx):
        return [
            (cluster, _reduce_partial_list(values))
            for cluster, values in ctx.grouped()
        ]

    def update(centroids, merged, _iteration):
        updated, shift = _step(centroids, dict(merged))
        return updated, shift < epsilon

    job = IterativeJob(
        o_task, a_task, update,
        DataMPIConf(num_o=parallelism, num_a=parallelism,
                    combiner=_combine_partials,
                    job_name="kmeans-iterative", transport=transport,
                    mode=mode, checkpoint_dir=checkpoint_dir,
                    storage=storage),
        max_iterations=max_iterations,
    )
    result = job.run(
        split_round_robin(list(vectors), parallelism),
        initial_centroids(vectors, k, seed),
        resume=resume,
    )
    return (
        KMeansResult(result.state, result.iterations, result.converged),
        result,
    )
