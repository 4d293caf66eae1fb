"""Functional engines: the three real engines on real data.

Not a paper figure — this runs the *functional* implementations
(in-process Hadoop/Spark/DataMPI engines on generated BigDataBench text)
and checks that all three engines produce the reference answer on
identical workloads.
"""

import pytest

from repro.bigdatabench import TextGenerator
from repro.workloads import run_workload, wordcount_reference


@pytest.fixture(scope="module")
def lines():
    return TextGenerator(seed=99).lines(2000)


@pytest.mark.parametrize("engine", ["hadoop", "spark", "datampi"])
def test_functional_wordcount(engine, lines):
    result = run_workload("wordcount", engine, lines)
    assert result.output == wordcount_reference(lines)


@pytest.mark.parametrize("engine", ["hadoop", "spark", "datampi"])
def test_functional_text_sort(engine, lines):
    result = run_workload("text_sort", engine, lines)
    assert result.output == sorted(lines)
