"""Input splitting shared by every engine's workload jobs."""

from __future__ import annotations

from typing import Any, Sequence

from repro.common.errors import WorkloadError


def split_round_robin(items: Sequence[Any], num_splits: int) -> list[list[Any]]:
    """Round-robin split used to feed Hadoop/DataMPI input splits: item
    ``i`` goes to split ``i % num_splits``, one extended slice per split."""
    if num_splits < 1:
        raise WorkloadError(f"num_splits must be >= 1, got {num_splits}")
    return [list(items[start::num_splits]) for start in range(num_splits)]
