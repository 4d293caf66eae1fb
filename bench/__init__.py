"""The repo's benchmark: whole-job workloads plus a layer ladder.

Run one workload for one seed from the checkout root::

    python3 -m bench run --workload sort_shm --seed 1 --seconds 12 --trace 0

``bench/README.md`` has the metric and workload tables, how a run is
structured, and which end-to-end number each layer number should move.
The benchmark measures the ``repro`` package of *this checkout*, so the
checkout's ``src/`` goes first on ``sys.path`` — no ``PYTHONPATH`` needed.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
