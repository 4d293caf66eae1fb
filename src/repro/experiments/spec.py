"""Declarative experiment matrix: workload × engine × transport × mode × scale.

The paper's contribution is a *comparison matrix* — DataMPI vs Hadoop vs
Spark across BigDataBench workloads at several data scales — not any
single workload.  An :class:`ExperimentSpec` declares such a matrix; the
:class:`~repro.experiments.matrix.MatrixRunner` executes every cell and
the :class:`~repro.experiments.reportbuilder.ReportBuilder` renders the
paper's figures from the recorded results.

Engines
-------

``datampi``
    The real O/A superstep stack (``repro.datampi``): functional runs
    with exact byte counters, on any transport and execution mode.
``hadoop-model``
    Hadoop's execution pattern on the reproduction's engines: common
    cells run the functional MapReduce engine (``repro.hadoop``);
    iterative cells replay the one-job-per-iteration pattern (a fresh
    world per superstep, no cross-iteration cache — Mahout's structure).
    Modeled cluster-scale seconds come from ``perfmodels.HadoopModel``.
``spark-model``
    Common cells run the functional RDD engine (``repro.spark``);
    iterative cells iterate over a cached RDD.  Modeled seconds come
    from ``perfmodels.SparkModel``.  Byte counters are not instrumented
    on this engine, so bytes-moved cells report ``None``.

Every engine executes a cell on the *same generated input* (same seed,
same scale), so cross-engine output checksums must agree — the matrix is
a correctness check as much as a measurement.

Example::

    >>> from repro.experiments.spec import quick_spec
    >>> spec = quick_spec()
    >>> len(spec.cells) >= 8
    True
    >>> spec.cells[0].cell_id
    'wordcount.common.datampi.tiny.inline'
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.common.errors import ConfigError
from repro.common.units import GB
from repro.mpi.transport import available_transports
from repro.workloads.base import WORKLOADS

#: Engines a matrix cell can run on (see the module docstring).
MATRIX_ENGINES = ("datampi", "hadoop-model", "spark-model")

#: Execution modes each workload supports, read off the workload table.
WORKLOAD_MODES = {name: workload.modes for name, workload in WORKLOADS.items()}

#: The framework behind each matrix engine: its runners in the workload
#: table and its analytical model.
MODEL_FRAMEWORKS = {
    "datampi": "datampi",
    "hadoop-model": "hadoop",
    "spark-model": "spark",
}


def declared_modes(workload: str, engine: str) -> tuple[str, ...]:
    """Modes the workload table declares for ``workload`` on a matrix
    engine — empty where the engine has no implementation of it."""
    if workload not in WORKLOADS:
        raise ConfigError(
            f"unknown matrix workload {workload!r}; available: {sorted(WORKLOADS)}"
        )
    if engine not in MATRIX_ENGINES:
        raise ConfigError(
            f"unknown matrix engine {engine!r}; available: {MATRIX_ENGINES}"
        )
    framework = MODEL_FRAMEWORKS[engine]
    runners = WORKLOADS[workload].runners
    return tuple(mode for mode, by_engine in runners.items() if framework in by_engine)


@dataclass(frozen=True)
class DataScale:
    """One point on the matrix's data-scale axis.

    ``lines``/``vectors``/``docs`` size the *functional* input (what the
    real jobs process); ``paper_bytes`` is the cluster-scale input size
    fed to the analytical models so each cell also reports the
    paper-testbed seconds for its scale.
    """

    name: str
    lines: int
    vectors: int
    paper_bytes: int
    #: Labeled documents the Naive Bayes cells train on.
    docs: int = 30

    def __post_init__(self) -> None:
        if self.lines < 1 or self.vectors < 1 or self.paper_bytes < 1 \
                or self.docs < 1:
            raise ConfigError(f"degenerate data scale {self!r}")


#: The built-in scales.  ``tiny``/``small`` keep the quick matrix under a
#: few seconds; ``medium``/``large`` exist so full runs show more decades
#: (``large`` reaches the 128GB upper end of the paper's Figure 3 sweeps).
SCALES = {
    "tiny": DataScale("tiny", lines=240, vectors=60, paper_bytes=8 * GB,
                      docs=24),
    "small": DataScale("small", lines=720, vectors=120, paper_bytes=32 * GB,
                       docs=48),
    "medium": DataScale("medium", lines=2400, vectors=240, paper_bytes=64 * GB,
                        docs=96),
    "large": DataScale("large", lines=4800, vectors=480, paper_bytes=128 * GB,
                       docs=192),
}


@dataclass(frozen=True)
class CellSpec:
    """One cell of the matrix: a single (workload, mode, engine, scale,
    transport) execution."""

    workload: str
    mode: str
    engine: str
    scale: str
    #: IPC backend for the ``datampi`` engine; ``None`` on model engines
    #: (they do not run over the MPI substrate).
    transport: str | None = None

    def __post_init__(self) -> None:
        modes = declared_modes(self.workload, self.engine)
        if not modes:
            raise ConfigError(
                f"engine {self.engine!r} has no {self.workload!r} "
                f"implementation (the paper's BigDataBench release lacks it)"
            )
        if self.mode not in modes:
            raise ConfigError(
                f"workload {self.workload!r} supports modes {modes} on "
                f"engine {self.engine!r}, got {self.mode!r}"
            )
        if self.scale not in SCALES:
            raise ConfigError(
                f"unknown data scale {self.scale!r}; available: {sorted(SCALES)}"
            )
        if self.engine != "datampi":
            if self.transport is not None:
                raise ConfigError(
                    f"engine {self.engine!r} does not run over a transport"
                )
        elif self.transport is not None and \
                self.transport not in available_transports():
            raise ConfigError(
                f"unknown transport {self.transport!r}; "
                f"available: {available_transports()}"
            )

    @property
    def cell_id(self) -> str:
        """Stable identifier, also the checkpoint file stem."""
        parts = [self.workload, self.mode, self.engine, self.scale]
        if self.transport is not None:
            parts.append(self.transport)
        return ".".join(parts)

    @property
    def data_scale(self) -> DataScale:
        return SCALES[self.scale]

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "mode": self.mode,
            "engine": self.engine,
            "scale": self.scale,
            "transport": self.transport,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CellSpec":
        return cls(
            workload=data["workload"],
            mode=data["mode"],
            engine=data["engine"],
            scale=data["scale"],
            transport=data.get("transport"),
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """A named, ordered collection of matrix cells."""

    name: str
    cells: tuple[CellSpec, ...] = field(default_factory=tuple)
    #: Input-generation seed; identical across cells so every engine
    #: processes the same data and output checksums are comparable.
    seed: int = 7
    #: O/A (and map/reduce) parallelism of the functional runs.
    parallelism: int = 3
    #: Superstep budget for iterative cells.
    max_iterations: int = 4
    #: Per-rank receive-store memory budget for the ``datampi`` cells
    #: (``StorageConfig.spill_threshold``); chunks past it spill to
    #: segment files and the cells report ``bytes_spilled``/``spill_reads``.
    #: ``None`` keeps the default (effectively in-memory) budget.
    spill_budget_bytes: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("experiment spec needs a name")
        if not self.cells:
            raise ConfigError(f"experiment spec {self.name!r} has no cells")
        ids = [cell.cell_id for cell in self.cells]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ConfigError(f"duplicate matrix cells: {dupes}")
        if self.parallelism < 1 or self.max_iterations < 1:
            raise ConfigError("parallelism and max_iterations must be >= 1")
        if self.spill_budget_bytes is not None and self.spill_budget_bytes < 1:
            raise ConfigError("spill_budget_bytes must be positive or None")

    @classmethod
    def matrix(
        cls,
        name: str,
        workloads: Sequence[str],
        engines: Sequence[str],
        modes: Sequence[str],
        scales: Sequence[str],
        transport: str | None = "inline",
        **kwargs,
    ) -> "ExperimentSpec":
        """Build the filtered product of the axes.

        Combinations the workload table does not declare (streaming on a
        model engine, a mode a workload does not support, Spark Naive
        Bayes) are silently skipped, so callers can pass the full axes
        and get only the runnable cells.
        """
        cells: list[CellSpec] = []
        for workload in workloads:
            for mode in modes:
                for engine in engines:
                    if mode not in declared_modes(workload, engine):
                        continue
                    for scale in scales:
                        cells.append(CellSpec(
                            workload=workload, mode=mode, engine=engine,
                            scale=scale,
                            transport=transport if engine == "datampi" else None,
                        ))
        return cls(name=name, cells=tuple(cells), **kwargs)

    def to_dict(self) -> dict:
        data = {
            "name": self.name,
            "seed": self.seed,
            "parallelism": self.parallelism,
            "max_iterations": self.max_iterations,
            "cells": [cell.to_dict() for cell in self.cells],
        }
        # Only recorded when set, so pre-existing specs (and their
        # checkpoint-guarding spec_hash) are unchanged by the field.
        if self.spill_budget_bytes is not None:
            data["spill_budget_bytes"] = self.spill_budget_bytes
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        return cls(
            name=data["name"],
            seed=data.get("seed", 7),
            parallelism=data.get("parallelism", 3),
            max_iterations=data.get("max_iterations", 4),
            spill_budget_bytes=data.get("spill_budget_bytes"),
            cells=tuple(CellSpec.from_dict(c) for c in data["cells"]),
        )

    @property
    def spec_hash(self) -> str:
        """Content hash guarding checkpoint resume against spec edits."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def iterative_cells(self) -> list[CellSpec]:
        return [cell for cell in self.cells if cell.mode == "iteration"]


# -- presets -------------------------------------------------------------------


def quick_spec(transport: str | None = "inline") -> ExperimentSpec:
    """The acceptance matrix: 4 workloads × 3 engines × 2 scales.

    WordCount and Normal Sort (common), K-means and Naive Bayes
    (common + iteration) across all three engines at two data scales —
    the smallest matrix that still exhibits the paper's headline effects
    (communication efficiency, the iterative input-reuse gap, and the
    populated bytes-vs-spark comparison) while staying a few seconds of
    wall clock.
    """
    return ExperimentSpec.matrix(
        "quick",
        workloads=("wordcount", "kmeans", "naive_bayes", "normal_sort"),
        engines=MATRIX_ENGINES,
        modes=("common", "iteration"),
        scales=("tiny", "small"),
        transport=transport,
    )


def full_spec(transport: str | None = "inline") -> ExperimentSpec:
    """Every workload × engine × mode × scale combination that runs."""
    return ExperimentSpec.matrix(
        "full",
        workloads=tuple(WORKLOADS),
        engines=MATRIX_ENGINES,
        modes=("common", "iteration", "streaming"),
        scales=("tiny", "small", "medium", "large"),
        transport=transport,
    )


PRESET_SPECS = {
    "quick": quick_spec,
    "full": full_spec,
}


def get_spec(name: str, transport: str | None = "inline") -> ExperimentSpec:
    """Resolve a preset spec by name."""
    try:
        factory = PRESET_SPECS[name]
    except KeyError:
        raise ConfigError(
            f"unknown experiment spec {name!r}; available: {sorted(PRESET_SPECS)}"
        ) from None
    return factory(transport=transport)


def cells_table(
    spec: ExperimentSpec, status: dict[str, str] | None = None
) -> Iterable[list[str]]:
    """Rows for ``repro experiment list``: one per cell.

    ``status`` (cell_id → ``done``/``failed``/``stale``/``pending``, as
    computed by :func:`repro.experiments.matrix.checkpoint_status`)
    appends a checkpoint-state column so a resumed run is inspectable
    without reading ``cells/`` by hand.
    """
    for cell in spec.cells:
        row = [
            cell.cell_id, cell.workload, cell.mode, cell.engine, cell.scale,
            cell.transport or "-",
        ]
        if status is not None:
            row.append(status.get(cell.cell_id, "pending"))
        yield row
