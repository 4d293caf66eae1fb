#!/usr/bin/env python
"""K-means: the e-commerce application benchmark (Section 4.6).

Generates sparse document vectors from the five amazon seed models
(genData_Kmeans), trains Mahout-style iterative K-means on all three
engines, verifies they converge to identical centroids, demonstrates
DataMPI's Iteration mode (kept-alive ranks + cross-iteration KV cache)
moving strictly fewer bytes per iteration than the one-job-per-iteration
Common mode, scores cluster purity against the hidden category labels,
and reproduces the Figure 6(a) first-iteration comparison on the
simulated testbed.

Run:  python examples/kmeans_clustering.py
"""

from repro.bigdatabench import generate_kmeans_vectors
from repro.common.units import GB
from repro.experiments import render_table
from repro.perfmodels import simulate
from repro.workloads import (
    RunParams,
    kmeans_iterative_job,
    kmeans_reference,
    run_workload,
)


def main() -> None:
    print("=== functional K-means on amazon1-amazon5 vectors ===")
    vectors, labels = generate_kmeans_vectors(150, seed=11)
    print(f"generated {len(vectors)} sparse vectors "
          f"(avg {sum(v.num_nonzero for v in vectors) / len(vectors):.0f} nonzeros)")

    reference = kmeans_reference(vectors, k=5, max_iterations=15, seed=2)
    print(f"reference converged after {reference.iterations} iterations")

    params = RunParams(k=5, max_iterations=15, seed=2)
    for engine in ("hadoop", "spark", "datampi"):
        result = run_workload("kmeans", engine, vectors, params).output
        drift = max(
            mine.squared_distance(ref) ** 0.5
            for mine, ref in zip(result.centroids, reference.centroids)
        )
        print(f"  {engine:<8} iterations={result.iterations} "
              f"max centroid drift vs reference={drift:.2e}")

    print("\n=== DataMPI Iteration mode vs one-job-per-iteration ===")
    iter_result, iter_stats = kmeans_iterative_job(
        vectors, k=5, max_iterations=15, seed=2, mode="iteration"
    )
    common_result, common_stats = kmeans_iterative_job(
        vectors, k=5, max_iterations=15, seed=2, mode="common"
    )
    identical = [c.weights for c in iter_result.centroids] == \
        [c.weights for c in common_result.centroids]
    print(f"iteration-mode centroids byte-identical to common mode: {identical}")
    rows = [
        [str(record["superstep"]),
         f"{common_stats.per_iteration[index]['mode.bytes_moved']:,}",
         f"{record['mode.bytes_moved']:,}",
         f"{record['cache.hit_bytes']:,}"]
        for index, record in enumerate(iter_stats.per_iteration)
    ]
    print(render_table(
        ["iteration", "common bytes", "iteration bytes", "cache-hit bytes"], rows
    ))
    saved = common_stats.counters["mode.bytes_moved"] - \
        iter_stats.counters["mode.bytes_moved"]
    print(f"cross-iteration cache saved {saved:,} bytes "
          f"({len(iter_stats.per_iteration)} iterations)")

    # Cluster purity against the hidden seed-model labels.
    assignments = [reference.assign(v) for v in vectors]
    purity = 0
    for cluster in range(5):
        members = [labels[i] for i, a in enumerate(assignments) if a == cluster]
        if members:
            purity += max(members.count(lbl) for lbl in set(members))
    print(f"cluster purity vs true categories: {purity / len(vectors):.0%}")

    print("\n=== simulated first-iteration times, Figure 6(a) "
          "(paper: DataMPI <=39% over Hadoop, <=33% over Spark) ===")
    rows = []
    for size_gb in (8, 16, 32, 64):
        row = [f"{size_gb}GB"]
        times = {}
        for framework in ("hadoop", "spark", "datampi"):
            run = simulate(framework, "kmeans", size_gb * GB, executions=3)
            times[framework] = run.elapsed_sec
            row.append(f"{run.elapsed_sec:.0f}s")
        row.append(f"{1 - times['datampi'] / times['hadoop']:.0%}")
        rows.append(row)
    print(render_table(["size", "hadoop", "spark", "datampi", "D vs H"], rows))


if __name__ == "__main__":
    main()
