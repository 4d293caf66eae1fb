"""Cross-engine correctness for the micro-benchmarks (Sort, WordCount, Grep).

The paper's premise is that all three frameworks compute the *same*
workloads; these tests pin that down — every engine must agree with the
reference implementation and therefore with each other.
"""

import pytest

from repro.bigdatabench import TextGenerator, to_sequence_file
from repro.common import WorkloadError
from repro.workloads import (
    RunParams,
    grep_reference,
    run_workload,
    sort_reference,
    wordcount_reference,
)

ENGINES = ["hadoop", "spark", "datampi"]


def run_wordcount(engine, lines, parallelism=4):
    return run_workload("wordcount", engine, lines,
                        RunParams(parallelism=parallelism)).output


def run_grep(engine, lines, pattern):
    return run_workload("grep", engine, lines, RunParams(pattern=pattern)).output


def run_text_sort(engine, lines):
    return run_workload("text_sort", engine, lines).output


@pytest.fixture(scope="module")
def wiki_lines():
    return TextGenerator(seed=11).lines(300)


class TestWordCount:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_matches_reference(self, engine, wiki_lines):
        assert run_wordcount(engine, wiki_lines) == wordcount_reference(wiki_lines)

    def test_engines_agree(self, wiki_lines):
        results = [run_wordcount(engine, wiki_lines) for engine in ENGINES]
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_input(self, engine):
        assert run_wordcount(engine, []) == {}

    def test_bad_engine_rejected(self, wiki_lines):
        with pytest.raises(WorkloadError):
            run_wordcount("flink", wiki_lines)

    @pytest.mark.parametrize("parallelism", [1, 2, 8])
    def test_parallelism_invariant(self, wiki_lines, parallelism):
        assert (
            run_wordcount("datampi", wiki_lines, parallelism)
            == wordcount_reference(wiki_lines)
        )


class TestGrep:
    PATTERN = r"ba[a-z]*"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_matches_reference(self, engine, wiki_lines):
        expected = grep_reference(wiki_lines, self.PATTERN)
        assert expected, "pattern should match generated text"
        assert run_grep(engine, wiki_lines, self.PATTERN) == expected

    @pytest.mark.parametrize("engine", ENGINES)
    def test_no_matches(self, engine, wiki_lines):
        assert run_grep(engine, wiki_lines, r"zzzzqqqq[0-9]+") == {}

    def test_literal_pattern(self, wiki_lines):
        word = wiki_lines[0].split()[0]
        counts = run_grep("datampi", wiki_lines, word)
        assert counts[word] >= 1


class TestTextSort:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_total_order(self, engine, wiki_lines):
        assert run_text_sort(engine, wiki_lines) == sort_reference(wiki_lines)

    def test_engines_agree(self, wiki_lines):
        results = [run_text_sort(engine, wiki_lines) for engine in ENGINES]
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_with_duplicates(self, engine):
        lines = ["b", "a", "b", "a", "c"] * 10
        assert run_text_sort(engine, lines) == sorted(lines)

    def test_single_line(self):
        assert run_text_sort("hadoop", ["only"]) == ["only"]


class TestNormalSort:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_sorts_decompressed_records(self, engine, wiki_lines):
        record = run_workload("normal_sort", engine, wiki_lines[:100])
        assert record.output == sorted(wiki_lines[:100])
        assert record.counters["seqfile.records"] == 100
        assert 0 < record.counters["seqfile.compressed_bytes"] \
            < record.counters["seqfile.raw_bytes"]

    def test_compression_was_real(self, wiki_lines):
        seqfile = to_sequence_file(wiki_lines)
        assert seqfile.compressed_bytes < seqfile.raw_bytes
