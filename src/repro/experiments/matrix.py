"""MatrixRunner: execute every cell of an :class:`ExperimentSpec`.

Each cell runs the *functional* workload on its engine (real outputs,
real byte counters, CPU/RSS profiled) and pairs it with the *analytical*
model's cluster-scale seconds at the cell's paper-equivalent input size —
the same measured/modeled pairing the repository's figure benchmarks use.

Results checkpoint at cell granularity: every finished cell is written
atomically (the same tmp-file + rename primitive the iteration
checkpoints use, :func:`repro.datampi.checkpoint.atomic_write_bytes`),
so a killed matrix resumes from the first unfinished cell.  A cell
checkpoint records the spec hash it was produced under; editing the spec
invalidates stale cells instead of silently mixing matrices.

Cells are independent, so the runner can execute them on a **process
pool** (``MatrixRunner(..., workers=N)``; ``repro experiment run
--parallel N``).  Each worker runs exactly the serial per-cell pipeline —
profiled functional run (the profiler samples *inside* the worker
process) plus the analytical model — and streams the result back to the
parent, which writes the same spec-hash-guarded atomic checkpoint files.
A parallel run killed mid-flight therefore resumes exactly like a serial
one: surviving cell files are reused, missing and failed cells re-run.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.common.errors import ConfigError
from repro.datampi.checkpoint import atomic_write_json, read_json
from repro.experiments.profiler import ResourceProfiler
from repro.experiments.spec import MODEL_FRAMEWORKS, CellSpec, ExperimentSpec
from repro.perfmodels import iterative_kmeans, simulate
from repro.storage import StorageConfig
from repro.workloads.base import WORKLOADS, RunParams, run_workload

SPEC_FILE = "spec.json"
MANIFEST_FILE = "manifest.json"
CELLS_DIR = "cells"


def cell_path(out_dir: str, cell: CellSpec) -> str:
    """Where ``cell``'s checkpoint lives under the matrix directory ``out_dir``.

    Examples:
        >>> from repro.experiments.spec import CellSpec
        >>> cell_path("matrix", CellSpec("kmeans", "iteration", "datampi",
        ...                              "tiny", "inline"))
        'matrix/cells/kmeans.iteration.datampi.tiny.inline.json'
    """
    return os.path.join(out_dir, CELLS_DIR, f"{cell.cell_id}.json")


def checksum(obj: Any) -> str:
    """Stable digest of a JSON-serializable canonical output."""
    canonical = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass
class CellResult:
    """Everything one executed cell recorded."""

    spec: CellSpec
    status: str = "ok"  # "ok" | "failed"
    error: str | None = None
    #: Measured wall seconds of the functional run (this machine).
    elapsed_sec: float = 0.0
    #: Modeled seconds on the paper's 8-node testbed at the cell's
    #: ``paper_bytes`` scale (None where no model applies, e.g. streaming).
    modeled_sec: float | None = None
    #: Total bytes the engine moved (None where not instrumented).
    bytes_moved: int | None = None
    #: Per-iteration bytes for iterative cells.
    per_iteration_bytes: list[int] | None = None
    #: Iterations executed (iterative) or windows flushed (streaming).
    iterations: int | None = None
    #: Digest of the canonical output — must agree across engines.
    output_checksum: str | None = None
    #: Bytes the datampi receive stores evicted to segment files (None on
    #: engines without the spill store).
    bytes_spilled: int | None = None
    #: Reads the datampi receive stores served from segment files.
    spill_reads: int | None = None
    counters: dict[str, int] = field(default_factory=dict)
    resource: dict = field(default_factory=dict)
    #: True when this result was loaded from a checkpoint, not executed.
    resumed: bool = False

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "status": self.status,
            "error": self.error,
            "elapsed_sec": self.elapsed_sec,
            "modeled_sec": self.modeled_sec,
            "bytes_moved": self.bytes_moved,
            "per_iteration_bytes": self.per_iteration_bytes,
            "iterations": self.iterations,
            "output_checksum": self.output_checksum,
            "bytes_spilled": self.bytes_spilled,
            "spill_reads": self.spill_reads,
            "counters": self.counters,
            "resource": self.resource,
        }

    @classmethod
    def from_dict(cls, data: dict, resumed: bool = False) -> "CellResult":
        return cls(
            spec=CellSpec.from_dict(data["spec"]),
            status=data["status"],
            error=data.get("error"),
            elapsed_sec=data["elapsed_sec"],
            modeled_sec=data.get("modeled_sec"),
            bytes_moved=data.get("bytes_moved"),
            per_iteration_bytes=data.get("per_iteration_bytes"),
            iterations=data.get("iterations"),
            output_checksum=data.get("output_checksum"),
            bytes_spilled=data.get("bytes_spilled"),
            spill_reads=data.get("spill_reads"),
            counters=dict(data.get("counters", {})),
            resource=dict(data.get("resource", {})),
            resumed=resumed,
        )


@dataclass
class MatrixResult:
    """Outcome of one matrix run (or a load of a recorded one)."""

    spec: ExperimentSpec
    results: list[CellResult]
    out_dir: str
    executed: int = 0
    resumed: int = 0
    #: False when loaded from a run that never finished (no manifest, or
    #: fewer recorded cells than the spec declares) — reports built from
    #: an incomplete matrix must say so rather than render silent holes.
    complete: bool = True

    def by_cell_id(self) -> dict[str, CellResult]:
        return {result.spec.cell_id: result for result in self.results}

    def failed_cells(self) -> list[CellResult]:
        return [result for result in self.results if result.status != "ok"]


# -- per-cell execution ---------------------------------------------------------


#: Workloads with a calibrated *iterative* model.  Only K-means has one;
#: the Naive Bayes supersteps are the Mahout pipeline's chained passes,
#: so its iteration cells report the pipeline model's seconds.
_ITERATIVE_MODELS = ("kmeans",)

#: (engine, workload) cells left out of the exact-digest comparison.
#: Spark's K-means reduction order only guarantees centroids to 1e-9
#: (asserted by ``tests/test_workloads_apps.py``), not byte identity.
_INEXACT_CELLS = {("spark-model", "kmeans")}


def _modeled_sec(cell: CellSpec, iterations: int | None) -> float | None:
    """Analytical cluster-scale seconds for this cell, if a model applies."""
    if cell.mode == "streaming":
        return None  # the paper (and the models) have no streaming runs
    framework = MODEL_FRAMEWORKS[cell.engine]
    paper_bytes = cell.data_scale.paper_bytes
    if cell.mode == "iteration" and iterations \
            and cell.workload in _ITERATIVE_MODELS:
        cumulative = iterative_kmeans(paper_bytes, iterations).cumulative
        return cumulative[framework][-1]
    run = simulate(framework, cell.workload, paper_bytes, executions=1)
    return None if run.failed else run.elapsed_sec


def _cell_storage(cell: CellSpec, spec: ExperimentSpec) -> StorageConfig | None:
    """Receive-store budget for this cell's datampi runs.

    Only the ``datampi`` engine runs over the spill store; model engines
    ignore the budget (and their cells report no spill counters).
    """
    if cell.engine != "datampi" or spec.spill_budget_bytes is None:
        return None
    return StorageConfig(spill_threshold=spec.spill_budget_bytes)


def _fill_spill_counters(result: CellResult) -> None:
    """Surface the receive stores' spill activity as first-class fields."""
    if "a.bytes_spilled" in result.counters:
        result.bytes_spilled = result.counters["a.bytes_spilled"]
        result.spill_reads = result.counters.get("a.spill_reads", 0)


def execute_cell(cell: CellSpec, spec: ExperimentSpec) -> CellResult:
    """Run one cell's functional workload (no profiling, no modeling).

    The workload table supplies the input generator, the runner for the
    cell's engine and mode, and the canonical form the checksum digests;
    every engine of a (workload, scale) group sees the same input.
    """
    workload = WORKLOADS[cell.workload]
    record = run_workload(
        cell.workload, MODEL_FRAMEWORKS[cell.engine],
        workload.make_input(cell.data_scale, spec.seed),
        RunParams(mode=cell.mode, parallelism=spec.parallelism,
                  transport=cell.transport, storage=_cell_storage(cell, spec),
                  seed=spec.seed, max_iterations=spec.max_iterations),
    )
    result = CellResult(
        spec=cell,
        output_checksum=checksum(workload.canonical(record.output)),
        counters=record.counters,
        bytes_moved=record.bytes_moved,
        iterations=record.iterations,
        per_iteration_bytes=record.per_iteration_bytes,
    )
    _fill_spill_counters(result)
    return result


# -- the runner -----------------------------------------------------------------


def _recorded(run: Callable[..., CellResult], cell: CellSpec,
              *args: Any) -> CellResult:
    """``run(cell, *args)``, with a crashing workload recorded as a ``failed``
    result rather than raised: the matrix (or pool) continues."""
    try:
        return run(cell, *args)
    except Exception as exc:  # noqa: BLE001 - recorded, matrix continues
        return CellResult(spec=cell, status="failed",
                          error=f"{type(exc).__name__}: {exc}")


def _profiled_cell(cell: CellSpec, spec: ExperimentSpec,
                   interval_sec: float) -> CellResult:
    """The per-cell pipeline serial and pooled runs share: the functional
    run, profiled inside the executing process, plus the analytical model."""
    profiler = ResourceProfiler(interval_sec=interval_sec)
    result, usage = profiler.profile(execute_cell, cell, spec)
    result.elapsed_sec = usage.wall_sec
    result.resource = usage.to_dict()
    result.modeled_sec = _modeled_sec(cell, result.iterations)
    return result


def _run_cell_worker(payload: dict) -> dict:
    """Pool-worker entry point: one cell, profiled inside this process.

    Module-level (picklable) and dict-in/dict-out so the pool only ever
    moves JSON-serializable payloads.  The profiler samples *this*
    worker's CPU/RSS, so a parallel matrix attributes resources per cell
    exactly like a serial one.
    """
    cell = CellSpec.from_dict(payload["cell"])
    spec = ExperimentSpec.from_dict(payload["spec"])
    return _recorded(_profiled_cell, cell, spec,
                     payload["interval"]).to_dict()


class MatrixRunner:
    """Executes a spec cell by cell with profiling and resumable checkpoints.

    ``workers`` selects the execution strategy: ``None`` or ``1`` runs
    cells serially in this process; ``N > 1`` runs them on a process pool
    of ``N`` workers; ``0`` sizes the pool to ``os.cpu_count()``.  Both
    strategies write identical checkpoints and, because the
    :class:`~repro.experiments.reportbuilder.ReportBuilder` is
    order-independent and byte counters are exact, render byte-identical
    reports (``tests/test_parallel_matrix.py`` asserts this).
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        out_dir: str,
        profile_interval_sec: float = 0.02,
        progress: Callable[[CellResult], None] | None = None,
        workers: int | None = None,
    ):
        self.spec = spec
        self.out_dir = out_dir
        self.profile_interval_sec = profile_interval_sec
        self.progress = progress or (lambda result: None)
        if workers is None:
            workers = 1
        if isinstance(workers, bool) or not isinstance(workers, int):
            raise ConfigError(
                f"workers must be an integer >= 0 "
                f"(0 = one worker per CPU core), got {workers!r}"
            )
        if workers < 0:
            raise ConfigError(
                f"workers must be >= 0 (0 = one worker per CPU core), "
                f"got {workers}"
            )
        self.workers = workers if workers >= 1 else (os.cpu_count() or 1)

    def cell_path(self, cell: CellSpec) -> str:
        return cell_path(self.out_dir, cell)

    # -- execution ---------------------------------------------------------------

    def execute_cell(self, cell: CellSpec) -> CellResult:
        """Execute one cell: profiled functional run + analytical model.

        Public and monkeypatch-friendly: the resume tests replace this to
        observe (or interrupt) the per-cell execution order (serial runs
        only — pool workers run the module-level :func:`_run_cell_worker`).
        """
        return _profiled_cell(cell, self.spec, self.profile_interval_sec)

    def _checkpoint(self, cell: CellSpec, result: CellResult) -> None:
        atomic_write_json(self.cell_path(cell),
                          {"spec_hash": self.spec.spec_hash,
                           "result": result.to_dict()})

    def _run_in_process(self, pending: list[CellSpec],
                        by_id: dict[str, CellResult]) -> int:
        """Execute pending cells here, in spec order, checkpointing each."""
        for cell in pending:
            result = _recorded(self.execute_cell, cell)
            self._checkpoint(cell, result)
            by_id[cell.cell_id] = result
            self.progress(result)
        return len(pending)

    def _run_parallel(self, pending: list[CellSpec],
                      by_id: dict[str, CellResult]) -> int:
        """Fan pending cells out to a process pool, checkpointing as they
        stream back (completion order).  If the pool breaks (a worker
        SIGKILLed mid-cell), everything checkpointed so far is already on
        disk — the next run resumes from the surviving cells.
        """
        spec_doc = self.spec.to_dict()
        executed = 0
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(self.workers, len(pending))) as pool:
            futures = {
                pool.submit(_run_cell_worker, {
                    "cell": cell.to_dict(),
                    "spec": spec_doc,
                    "interval": self.profile_interval_sec,
                }): cell
                for cell in pending
            }
            for future in concurrent.futures.as_completed(futures):
                cell = futures[future]
                result = CellResult.from_dict(future.result())
                self._checkpoint(cell, result)
                by_id[cell.cell_id] = result
                executed += 1
                self.progress(result)
        return executed

    def run(self, resume: bool = True) -> MatrixResult:
        """Run every cell, checkpointing each; resume skips finished ones.

        A cell whose workload raises is recorded as ``failed`` and
        checkpointed (so the report can show the hole), but failed cells
        are always re-executed on resume.
        """
        os.makedirs(os.path.join(self.out_dir, CELLS_DIR), exist_ok=True)
        atomic_write_json(os.path.join(self.out_dir, SPEC_FILE),
                          {"spec_hash": self.spec.spec_hash,
                           **self.spec.to_dict()})
        if not resume:
            # Delete the stale checkpoints rather than merely ignoring
            # them: were this run interrupted, the next (resuming) one
            # would take a lingering "done" checkpoint for its own.
            for cell in self.spec.cells:
                try:
                    os.unlink(self.cell_path(cell))
                except FileNotFoundError:
                    pass
        by_id: dict[str, CellResult] = {}
        pending: list[CellSpec] = []
        resumed = 0
        for cell in self.spec.cells:
            loaded = self._load_cell(cell) if resume else None
            if loaded is not None:
                by_id[cell.cell_id] = loaded
                resumed += 1
                self.progress(loaded)
            else:
                pending.append(cell)
        if self.workers > 1 and len(pending) > 1:
            executed = self._run_parallel(pending, by_id)
        else:
            executed = self._run_in_process(pending, by_id)
        results = [by_id[cell.cell_id] for cell in self.spec.cells]
        atomic_write_json(os.path.join(self.out_dir, MANIFEST_FILE), {
            "complete": True,
            "spec_hash": self.spec.spec_hash,
            "num_cells": len(results),
            "executed": executed,
            "resumed": resumed,
            "failed": len([r for r in results if r.status != "ok"]),
        })
        return MatrixResult(spec=self.spec, results=results,
                            out_dir=self.out_dir, executed=executed,
                            resumed=resumed)

    def _load_cell(self, cell: CellSpec) -> CellResult | None:
        """A finished cell's checkpoint, if it is valid for this spec."""
        state, record = _classify_checkpoint(self.cell_path(cell),
                                             self.spec.spec_hash)
        if state != "done":
            return None  # pending/stale cells re-run; failed cells retry
        return CellResult.from_dict(record["result"], resumed=True)


def _classify_checkpoint(path: str, spec_hash: str) -> tuple[str, dict | None]:
    """The single source of truth for checkpoint validity.

    Returns ``(state, record)`` where state is one of:

    ``pending``   no checkpoint file (never ran, or killed before done)
    ``stale``     unreadable, or recorded under a different spec hash
    ``failed``    recorded under this spec but the workload raised
    ``done``      valid — a resumed run reuses it

    ``record`` is the parsed checkpoint for ``failed``/``done`` (so
    callers can read the result) and ``None`` otherwise.  Resume
    (:meth:`MatrixRunner._load_cell`), loading
    (:func:`load_matrix`) and inspection (:func:`checkpoint_status`)
    all classify through here, so ``repro experiment list`` can never
    disagree with what a resumed run will actually do.
    """
    if not os.path.exists(path):
        return "pending", None
    try:
        record = read_json(path)
    except Exception:  # noqa: BLE001 - damaged checkpoint
        return "stale", None
    if record.get("spec_hash") != spec_hash:
        return "stale", None  # spec changed since this cell ran
    if record.get("result", {}).get("status") != "ok":
        return "failed", record
    return "done", record


def load_matrix(out_dir: str) -> MatrixResult:
    """Load a recorded matrix (for ``repro experiment report``).

    A matrix whose run was killed mid-way (no manifest, or missing
    cells) loads fine but is flagged ``complete=False`` so reports can
    say they were built from a partial run.
    """
    spec_doc = read_json(os.path.join(out_dir, SPEC_FILE))
    spec = ExperimentSpec.from_dict(spec_doc)
    results: list[CellResult] = []
    for cell in spec.cells:
        state, record = _classify_checkpoint(cell_path(out_dir, cell),
                                             spec.spec_hash)
        if state in ("done", "failed"):  # reports show failed cells as holes
            results.append(CellResult.from_dict(record["result"], resumed=True))
    if not results:
        raise ConfigError(
            f"no recorded cells under {out_dir!r}; run the matrix first"
        )
    manifest_path = os.path.join(out_dir, MANIFEST_FILE)
    complete = (
        len(results) == len(spec.cells)
        and os.path.exists(manifest_path)
        and bool(read_json(manifest_path).get("complete"))
    )
    return MatrixResult(spec=spec, results=results, out_dir=out_dir,
                        resumed=len(results), complete=complete)


def checkpoint_status(spec: ExperimentSpec, out_dir: str) -> dict[str, str]:
    """Per-cell checkpoint state of a matrix directory, for inspection.

    ``done``
        A valid checkpoint recorded under this spec's hash — a resumed
        run will reuse it.
    ``failed``
        Recorded under this spec but the cell's workload raised — a
        resumed run will retry it.
    ``stale``
        A checkpoint exists but was produced under a different spec (or
        is unreadable) — a resumed run will re-execute it.
    ``pending``
        No checkpoint — never ran (or the run was killed before this
        cell finished).
    """
    status: dict[str, str] = {}
    for cell in spec.cells:
        state, _record = _classify_checkpoint(cell_path(out_dir, cell),
                                              spec.spec_hash)
        status[cell.cell_id] = state
    return status


def verify_cross_engine(result: MatrixResult) -> dict[str, bool]:
    """Per (workload, mode, scale) group: do all engines' checksums agree?

    Groups with a single contributing cell are dropped — one digest
    compared against nothing is not a verification and must not inflate
    the "agree on N/N" summary.  Streaming cells are compared against
    their common-mode counterparts — the windowed totals must reproduce
    the batch answer.  ``_INEXACT_CELLS`` are excluded.
    """
    groups: dict[str, list[str]] = {}
    for cell_result in result.results:
        if cell_result.status != "ok" or cell_result.output_checksum is None:
            continue
        cell = cell_result.spec
        if (cell.engine, cell.workload) in _INEXACT_CELLS:
            continue
        mode = "common" if cell.mode == "streaming" else cell.mode
        key = f"{cell.workload}.{mode}.{cell.scale}"
        groups.setdefault(key, []).append(cell_result.output_checksum)
    return {
        key: len(set(checksums)) == 1
        for key, checksums in sorted(groups.items())
        if len(checksums) >= 2
    }


__all__: Sequence[str] = (
    "CellResult",
    "MatrixResult",
    "MatrixRunner",
    "cell_path",
    "checkpoint_status",
    "checksum",
    "execute_cell",
    "load_matrix",
    "verify_cross_engine",
)
