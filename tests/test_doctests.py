"""Run the public API's docstring examples as tests (tier-1).

Every module listed here carries runnable ``Examples:`` sections on its
public entry points — the same snippets ``docs/architecture.md`` and the
README teach from — so a drifting API breaks the build, not the reader.
"""

import doctest

import pytest

import repro.datampi.checkpoint
import repro.datampi.job
import repro.datampi.modes
import repro.datampi.world
import repro.experiments.matrix
import repro.experiments.spec
import repro.mpi.launcher
import repro.mpi.transport.base
import repro.mpi.transport.channel
import repro.serving.pool
import repro.storage.config
import repro.storage.kvcache
import repro.storage.spill
import repro.workloads.base

DOCTESTED_MODULES = [
    repro.datampi.checkpoint,
    repro.datampi.job,
    repro.datampi.modes,
    repro.datampi.world,
    repro.experiments.matrix,
    repro.experiments.spec,
    repro.mpi.launcher,
    repro.mpi.transport.base,
    repro.mpi.transport.channel,
    repro.serving.pool,
    repro.storage.config,
    repro.storage.kvcache,
    repro.storage.spill,
    repro.workloads.base,
]


@pytest.mark.parametrize(
    "module", DOCTESTED_MODULES, ids=lambda module: module.__name__
)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, \
        f"{results.failed} doctest failure(s) in {module.__name__}"


def test_public_api_examples_are_present():
    """The docstring pass must not silently regress to example-free docs."""
    expectations = {
        repro.datampi.job: ("DataMPIConf", "DataMPIJob"),
        repro.datampi.modes: ("IterativeJob", "StreamingJob"),
        repro.datampi.world: ("superstep_loop",),
        repro.storage.kvcache: ("KVCache",),
        repro.storage.spill: ("SpillStore",),
        repro.storage.config: ("StorageConfig",),
        repro.serving.pool: ("WorldPool",),
        repro.workloads.base: ("run_workload",),
    }
    for module, names in expectations.items():
        for name in names:
            docstring = getattr(module, name).__doc__ or ""
            assert ">>>" in docstring, \
                f"{module.__name__}.{name} lost its runnable example"
    assert ">>>" in (repro.mpi.transport.base.get_transport.__doc__ or "")
    assert ">>>" in (repro.mpi.launcher.mpi_run.__doc__ or "")
