#!/usr/bin/env python
"""Quickstart: the same WordCount on all three engines, then at cluster scale.

This is the 5-minute tour of the library:

1. generate BigDataBench-style text with the ``lda_wiki1w`` seed model;
2. run WordCount on the *functional* Hadoop, Spark, and DataMPI engines
   and check they agree;
3. run the same WordCount through DataMPI's Streaming execution mode
   (windowed, watermark-flushed) and check the window totals agree too;
4. replay the same workload at the paper's 32 GB scale on the simulated
   8-node testbed and reproduce the Figure 3(c) comparison.

Run:  python examples/quickstart.py
"""

from repro.bigdatabench import TextGenerator
from repro.common.units import GB
from repro.experiments import render_table
from repro.perfmodels import simulate
from repro.workloads import (
    merge_window_counts,
    run_workload,
    wordcount_reference,
    wordcount_streaming,
)


def main() -> None:
    # -- 1. generate data -----------------------------------------------------
    generator = TextGenerator(seed=42)
    lines = generator.lines(2_000)
    print(f"generated {len(lines)} lines of wiki-style text")
    print(f"  e.g. {lines[0][:60]!r}")

    # -- 2. functional engines ------------------------------------------------
    expected = wordcount_reference(lines)
    print(f"\ndistinct words: {len(expected)}")
    for engine in ("hadoop", "spark", "datampi"):
        counts = run_workload("wordcount", engine, lines).output
        status = "OK" if counts == expected else "MISMATCH"
        print(f"  {engine:<8} -> {len(counts)} words, result {status}")

    # -- 3. streaming execution mode ------------------------------------------
    stream = wordcount_streaming(iter(lines), parallelism=4, lines_per_split=250)
    status = "OK" if merge_window_counts(stream) == expected else "MISMATCH"
    print(f"\nstreaming mode: {len(stream.windows)} windows flushed, "
          f"totals {status}")

    # -- 4. simulated testbed at paper scale ----------------------------------
    print("\n32GB WordCount on the simulated 8-node testbed "
          "(paper: Hadoop 275s, Spark 130s, DataMPI 130s):")
    rows = []
    for framework in ("hadoop", "spark", "datampi"):
        run = simulate(framework, "wordcount", 32 * GB, executions=3)
        rows.append([framework, f"{run.elapsed_sec:.0f}s"])
    print(render_table(["framework", "job time"], rows))


if __name__ == "__main__":
    main()
