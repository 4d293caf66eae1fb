"""Parallel vs serial matrix execution.

The cells of an :class:`~repro.experiments.spec.ExperimentSpec` are
independent, so ``MatrixRunner(workers=N)`` fans them out to a process
pool.  This test runs the quick spec both ways and prints the
wall-clock pair and their ratio.

Assertions:

* both runs finish every cell;
* the deterministic per-cell record (bytes moved, output digests,
  iteration counts) is identical between the serial and parallel run —
  the property that makes the byte-identical-reports guarantee possible;
* on machines with >= 4 cores (the CI runners), the 4-worker run is
  faster than the serial run.  On smaller machines the timing pair is
  printed but not asserted — a 1-core box legitimately gains nothing.
"""

import os
import time

from repro.experiments.matrix import MatrixRunner
from repro.experiments.spec import quick_spec

WORKERS = 4


def _deterministic_record(result):
    return {
        r.spec.cell_id: (r.status, r.bytes_moved, r.output_checksum,
                         r.iterations, tuple(r.per_iteration_bytes or ()))
        for r in result.results
    }


def test_parallel_matrix_speedup(tmp_path):
    spec = quick_spec()

    start = time.perf_counter()
    serial = MatrixRunner(spec, str(tmp_path / "serial")).run(resume=False)
    serial_sec = time.perf_counter() - start

    start = time.perf_counter()
    parallel = MatrixRunner(spec, str(tmp_path / "parallel"),
                            workers=WORKERS).run(resume=False)
    parallel_sec = time.perf_counter() - start

    assert not serial.failed_cells() and not parallel.failed_cells()
    assert parallel.executed == len(spec.cells)
    assert _deterministic_record(serial) == _deterministic_record(parallel)

    cpu_count = os.cpu_count() or 1
    speedup = serial_sec / parallel_sec
    print(f"\nquick matrix ({len(spec.cells)} cells): "
          f"serial {serial_sec:.2f}s, {WORKERS} workers {parallel_sec:.2f}s "
          f"(speedup {speedup:.2f}x on {cpu_count} cores)")

    if cpu_count >= WORKERS:
        # Measurably faster, with a margin so a noisy-neighbor stall on a
        # shared runner doesn't flake the suite: >= 4 cores should beat
        # serial by far more than 10% on 32 independent cells.
        assert parallel_sec < serial_sec * 0.9, (
            f"{WORKERS}-worker run ({parallel_sec:.2f}s) not measurably "
            f"faster than serial ({serial_sec:.2f}s) on {cpu_count} cores"
        )
