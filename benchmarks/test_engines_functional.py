"""Functional-engine micro-benchmarks: the three real engines on real data.

Not a paper figure — this benchmarks the *functional* implementations
(in-process Hadoop/Spark/DataMPI engines on generated BigDataBench text),
demonstrating that all three engines process identical workloads and
letting pytest-benchmark compare their in-process constant factors.
"""

import pytest

from repro.bigdatabench import TextGenerator
from repro.workloads import run_workload, wordcount_reference


@pytest.fixture(scope="module")
def lines():
    return TextGenerator(seed=99).lines(2000)


@pytest.mark.parametrize("engine", ["hadoop", "spark", "datampi"])
def test_functional_wordcount(benchmark, engine, lines):
    result = benchmark.pedantic(
        run_workload, args=("wordcount", engine, lines), rounds=3, iterations=1
    )
    assert result.output == wordcount_reference(lines)


@pytest.mark.parametrize("engine", ["hadoop", "spark", "datampi"])
def test_functional_text_sort(benchmark, engine, lines):
    result = benchmark.pedantic(
        run_workload, args=("text_sort", engine, lines), rounds=3, iterations=1
    )
    assert result.output == sorted(lines)
