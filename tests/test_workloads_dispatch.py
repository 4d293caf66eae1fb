"""The workload table: every declared combination runs and verifies, every
undeclared one is refused, and the matrix presets enumerate from it."""

import json
import pathlib
from unittest import mock

import pytest
from test_common_kv import MARKER, _is_columnar

from repro.common import ConfigError, WorkloadError
from repro.common.kv import decode_stream
from repro.datampi.communicator import BipartiteComm
from repro.experiments.spec import SCALES, CellSpec, full_spec, quick_spec
from repro.workloads import (
    ENGINES,
    WORKLOADS,
    RunParams,
    run_workload,
    split_round_robin,
)
from repro.workloads.sort import _sample_keys

MODES = ("common", "iteration", "streaming")
DECLARED = [
    (name, engine, mode)
    for name, workload in WORKLOADS.items()
    for mode, by_engine in workload.runners.items()
    for engine in by_engine
]
UNDECLARED = [
    (name, engine, mode)
    for name in WORKLOADS for engine in ENGINES for mode in MODES
    if (name, engine, mode) not in DECLARED
]
SEED = 7


@pytest.fixture(scope="module")
def inputs():
    return {name: workload.make_input(SCALES["tiny"], SEED)
            for name, workload in WORKLOADS.items()}


class TestChunkLayoutSelection:
    """Which shipped jobs have the property the columnar layout needs —
    measured on the wire, chunk by chunk, not assumed."""

    #: (workload, mode) -> columnar share of the chunks the job ships.
    SHARE = {
        ("text_sort", "common"): "all",      # (line, None)
        ("wordcount", "common"): "all",      # (word, count)
        ("grep", "common"): "all",           # (match, count)
        ("wordcount", "streaming"): "all",
        ("kmeans", "iteration"): "none",     # (cluster id, (vector, count))
        ("naive_bayes", "common"): "some",   # str keys and (label, term) keys
    }

    @pytest.mark.parametrize("name, mode", sorted(SHARE))
    def test_share_of_columnar_chunks(self, name, mode, inputs):
        chunks = []
        send_chunk, send_eof = BipartiteComm.send_chunk, BipartiteComm.send_eof

        def spy(self, a_index, payload):
            chunks.append(payload)
            return send_chunk(self, a_index, payload)

        def eof_spy(self, last):  # each A task's last chunk rides its EOF
            chunks.extend(payload for payload in last if payload is not None)
            return send_eof(self, last)

        params = RunParams(mode=mode, parallelism=3, transport="inline",
                           seed=SEED, max_iterations=4)
        with (mock.patch.object(BipartiteComm, "send_chunk", spy),
              mock.patch.object(BipartiteComm, "send_eof", eof_spy)):
            run_workload(name, "datampi", inputs[name], params)
        assert chunks
        columnar = [chunk[0] == MARKER for chunk in chunks]
        # Nothing but the data selects: exactly the chunks of str keys
        # with all-None or all-int values went columnar.
        assert columnar == [_is_columnar(list(decode_stream(chunk)))
                            for chunk in chunks]
        assert {"all": all(columnar), "none": not any(columnar),
                "some": any(columnar) and not all(columnar)}[self.SHARE[name, mode]]


class TestConformance:
    """One case per (workload, engine, mode) the table declares."""

    @pytest.mark.parametrize("name,engine,mode", DECLARED)
    def test_declared_combination_matches_reference(self, name, engine, mode,
                                                    inputs):
        workload = WORKLOADS[name]
        params = RunParams(mode=mode, parallelism=3, transport="inline",
                           seed=SEED, max_iterations=4)
        record = run_workload(name, engine, inputs[name], params)
        reference = workload.reference(inputs[name], params)
        assert workload.verify(record.output, reference)
        if workload.agrees is None:
            assert workload.canonical(record.output) == \
                workload.canonical(reference)
        assert record.bytes_moved is not None and record.bytes_moved > 0
        assert (record.iterations is not None) == \
            (mode != "common" or name == "kmeans")
        supersteps = (name == "kmeans" and engine != "spark") or \
            (name == "naive_bayes" and mode == "iteration")
        assert (record.per_iteration_bytes is not None) == supersteps
        if supersteps:
            assert len(record.per_iteration_bytes) == record.iterations

    @pytest.mark.parametrize("name,engine,mode", UNDECLARED)
    def test_undeclared_combination_names_the_supported_set(self, name, engine,
                                                            mode, inputs):
        workload = WORKLOADS[name]
        with pytest.raises(WorkloadError) as refused:
            run_workload(name, engine, inputs[name], RunParams(mode=mode))
        if engine in workload.engines:
            supported = [m for m in workload.modes
                         if engine in workload.runners[m]]
        else:
            supported = workload.engines
        for key in supported:
            assert repr(key) in str(refused.value)

    def test_unknown_workload_names_the_table(self):
        with pytest.raises(WorkloadError, match="wordcount"):
            run_workload("join", "datampi", [])

    def test_table_order_and_modes(self):
        assert list(WORKLOADS) == ["wordcount", "grep", "text_sort",
                                   "normal_sort", "kmeans", "naive_bayes"]
        assert {name: w.modes for name, w in WORKLOADS.items()} == {
            "wordcount": ("common", "streaming"),
            "grep": ("common", "streaming"),
            "text_sort": ("common",),
            "normal_sort": ("common",),
            "kmeans": ("common", "iteration"),
            "naive_bayes": ("common", "iteration"),
        }
        assert [n for n, w in WORKLOADS.items() if w.job is not None] == \
            ["wordcount", "grep", "text_sort"]

    def test_datampi_runners_honour_the_storage_budget(self, inputs):
        """Every datampi runner receives ``storage=`` — K-means included."""
        from repro.storage import StorageConfig

        for name, workload in WORKLOADS.items():
            record = run_workload(
                name, "datampi", inputs[name],
                RunParams(parallelism=3, transport="inline", seed=SEED,
                          max_iterations=4,
                          storage=StorageConfig(spill_threshold=64)),
            )
            assert record.counters["a.bytes_spilled"] > 0, name


class TestMatrixEnumeration:
    """The presets are the table's declared cells, with the ids they have
    always had (``tests/data/matrix_cell_ids.json`` was recorded before the
    table existed)."""

    RECORDED = json.loads(
        (pathlib.Path(__file__).parent / "data" / "matrix_cell_ids.json")
        .read_text()
    )

    def test_quick_spec_cell_ids(self):
        ids = [cell.cell_id for cell in quick_spec().cells]
        assert len(ids) == 32
        assert ids == self.RECORDED["quick"]

    def test_full_spec_cell_ids(self):
        ids = [cell.cell_id for cell in full_spec().cells]
        assert len(ids) == 96
        assert ids == self.RECORDED["full"]

    @pytest.mark.parametrize("name,engine,mode", UNDECLARED)
    def test_undeclared_cells_are_refused(self, name, engine, mode):
        matrix_engine = "datampi" if engine == "datampi" else f"{engine}-model"
        with pytest.raises(ConfigError):
            CellSpec(name, mode, matrix_engine, "tiny")


class TestEngineDispatch:
    def test_known_engines(self):
        assert set(ENGINES) == {"hadoop", "spark", "datampi"}
        for workload in WORKLOADS.values():
            assert set(workload.engines) <= set(ENGINES)
            for by_engine in workload.runners.values():
                assert set(by_engine) <= set(workload.engines)

    def test_unknown_engine(self):
        with pytest.raises(WorkloadError, match="datampi"):
            run_workload("wordcount", "tez", [])


class TestSplitRoundRobin:
    def test_balanced(self):
        splits = split_round_robin(list(range(10)), 3)
        assert [len(s) for s in splits] == [4, 3, 3]
        assert sorted(x for s in splits for x in s) == list(range(10))

    def test_more_splits_than_items(self):
        splits = split_round_robin([1], 4)
        assert splits == [[1], [], [], []]

    def test_zero_splits_rejected(self):
        with pytest.raises(WorkloadError):
            split_round_robin([1], 0)

    @staticmethod
    def _dealt(items, num_splits):
        """The split as dealt one item at a time."""
        splits = [[] for _ in range(num_splits)]
        for index, item in enumerate(items):
            splits[index % num_splits].append(item)
        return splits

    @pytest.mark.parametrize("items", [
        list("abcdefghij"), tuple(range(11)), range(3, 40, 3), [], (), range(0),
        ["x", "y"]])
    @pytest.mark.parametrize("num_splits", [1, 2, 3, 4, 7])
    def test_slices_equal_dealing_one_by_one(self, items, num_splits):
        splits = split_round_robin(items, num_splits)
        assert splits == self._dealt(items, num_splits)
        assert all(type(split) is list for split in splits)


class TestSortSampling:
    def test_small_input_uses_all_keys(self):
        assert sorted(_sample_keys(["b", "a"], sample_size=10)) == ["a", "b"]

    def test_large_input_samples(self):
        lines = [f"line{i:04d}" for i in range(1000)]
        sample = _sample_keys(lines, sample_size=64)
        assert len(sample) == 64
        assert set(sample) <= set(lines)

    def test_deterministic(self):
        lines = [f"x{i}" for i in range(500)]
        assert _sample_keys(lines, seed=3) == _sample_keys(lines, seed=3)

    def test_empty_input_rejected(self):
        with pytest.raises(WorkloadError):
            _sample_keys([])
