"""The scaled-down paper matrix, end to end.

Runs the `quick` experiment spec — WordCount and Normal Sort (common),
K-means and Naive Bayes (common + iteration) × {datampi, hadoop-model,
spark-model} × {tiny, small} on the inline transport — end to end
through the MatrixRunner and asserts the paper's cross-engine shape:

* every engine produces identical outputs on every comparable cell
  (the matrix compares performance, not answers);
* the analytical models put DataMPI ahead of the Hadoop model on every
  modeled cell (Figures 3/6);
* on the iterative cells, DataMPI's Iteration mode moves strictly fewer
  bytes than the hadoop-model engine's one-job-per-iteration pattern on
  every warm iteration — the Section 4.5/4.6 redundant-I/O gap, measured
  rather than modeled.
"""

from repro.experiments import quick_spec, render_table, verify_cross_engine
from repro.experiments.matrix import MatrixRunner


def _run_quick_matrix(tmp_dir: str):
    return MatrixRunner(quick_spec(), tmp_dir).run(resume=False)


def test_quick_matrix_cross_engine(tmp_path):
    result = _run_quick_matrix(str(tmp_path))
    assert not result.failed_cells()

    # Outputs agree wherever two engines ran the same (workload, scale).
    agreement = verify_cross_engine(result)
    assert agreement and all(agreement.values())

    by_id = result.by_cell_id()
    print("\nQuick matrix: measured bytes and modeled seconds per cell")
    rows = [
        [r.spec.cell_id,
         f"{r.elapsed_sec:.3f}s",
         "-" if r.modeled_sec is None else f"{r.modeled_sec:.1f}s",
         "-" if r.bytes_moved is None else f"{r.bytes_moved:,}"]
        for r in result.results
    ]
    print(render_table(["cell", "measured", "modeled", "bytes"], rows))

    # Modeled cluster seconds: DataMPI < hadoop-model on every cell pair.
    for cell_result in result.results:
        cell = cell_result.spec
        if cell.engine != "datampi":
            continue
        partner_id = cell.cell_id.replace(
            ".datampi", ".hadoop-model").replace(".inline", "")
        partner = by_id[partner_id]
        assert cell_result.modeled_sec < partner.modeled_sec

    # Iterative cells: warm iterations move strictly fewer bytes on the
    # real DataMPI engine than on the one-job-per-iteration pattern.
    iterative_pairs = []
    for cell in result.spec.iterative_cells():
        if cell.engine != "datampi":
            continue
        datampi = by_id[cell.cell_id]
        hadoop = by_id[cell.cell_id.replace(
            ".datampi", ".hadoop-model").replace(".inline", "")]
        assert datampi.per_iteration_bytes[0] == hadoop.per_iteration_bytes[0]
        assert all(
            d < h for d, h in zip(datampi.per_iteration_bytes[1:],
                                  hadoop.per_iteration_bytes[1:])
        )
        assert datampi.bytes_moved < hadoop.bytes_moved
        iterative_pairs.append(
            (f"{cell.workload}.{cell.scale}", datampi, hadoop))

    assert iterative_pairs, "the quick spec must contain iterative cells"
    assert {pair[0].split(".")[0] for pair in iterative_pairs} == \
        {"kmeans", "naive_bayes"}

    # The expanded matrix instruments Spark's shuffles, so the bytes
    # comparison against the spark-model engine is populated wherever
    # Spark has an implementation (everywhere but Naive Bayes).
    spark_bytes = [r.bytes_moved for r in result.results
                   if r.spec.engine == "spark-model"]
    assert spark_bytes and all(b is not None and b > 0 for b in spark_bytes)
