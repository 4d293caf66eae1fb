"""Serving layer: warm rank pools for small-job request latency.

The experiment matrix measures jobs as batch wall-time; this package
measures them the way BigDataBench frames its service workloads — as
requests against a warm system.  :class:`WorldPool` keeps one O/A world
alive and recycles it between submissions, so after warm-up no job pays
fork/rendezvous/socket construction.
"""

from repro.serving.pool import (
    DEFAULT_WORLD_TIMEOUT,
    JobFuture,
    WorldPool,
)

__all__ = [
    "DEFAULT_WORLD_TIMEOUT",
    "JobFuture",
    "WorldPool",
]
