"""Input splitting shared by every engine's workload jobs."""

from __future__ import annotations

from typing import Any, Sequence

from repro.common.errors import WorkloadError


def split_round_robin(items: Sequence[Any], num_splits: int) -> list[list[Any]]:
    """Round-robin split used to feed Hadoop/DataMPI input splits."""
    if num_splits < 1:
        raise WorkloadError(f"num_splits must be >= 1, got {num_splits}")
    splits: list[list[Any]] = [[] for _ in range(num_splits)]
    for index, item in enumerate(items):
        splits[index % num_splits].append(item)
    return splits
