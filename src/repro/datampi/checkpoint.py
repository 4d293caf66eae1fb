"""Key-value checkpoint/restart.

Section 2.3: "DataMPI also supports fault tolerance by key-value pair
based checkpoint/restart."  A checkpoint captures the intermediate data
each A task received (its chunk store) after the O phase; ``restart``
rebuilds the stores so the A phase can re-run without re-executing O
tasks.  Checkpoints are plain files — one per A rank plus a manifest — so
they survive process death.
"""

from __future__ import annotations

import json
import os
import pickle
from typing import Any

from repro.common.errors import CheckpointError
from repro.mpi.transport.codec import PICKLE_PROTOCOL
from repro.storage import ChunkStore

MANIFEST_NAME = "manifest.json"
ITERATION_STATE_NAME = "iteration-state.ckpt"
_MAGIC = b"DMPICKPT"
_ITER_MAGIC = b"DMPIITER"


def atomic_write_bytes(path: str, payload: bytes) -> int:
    """Write ``payload`` to ``path`` atomically (tmp file + rename).

    A kill mid-write leaves either the old file or no file — never a
    truncated one.  This is the durability primitive every checkpoint in
    the repository builds on (iteration state, matrix cells, reports).
    Returns the bytes written.
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    temporary = path + ".tmp"
    with open(temporary, "wb") as handle:
        handle.write(payload)
    os.replace(temporary, path)  # rename is atomic: a kill keeps the old file
    return len(payload)


def atomic_write_text(path: str, text: str) -> int:
    """Atomically write UTF-8 ``text`` to ``path``; returns bytes written."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: str, obj: Any) -> int:
    """Atomically serialize ``obj`` as JSON to ``path``; returns bytes."""
    return atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path: str) -> Any:
    """Load one JSON document; raises :class:`CheckpointError` on damage."""
    if not os.path.exists(path):
        raise CheckpointError(f"no checkpoint file at {path}")
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except ValueError as exc:
            raise CheckpointError(f"corrupt checkpoint JSON {path}: {exc}") from exc


def checkpoint_path(directory: str, a_rank: int) -> str:
    return os.path.join(directory, f"a{a_rank:05d}.ckpt")


def write_checkpoint(directory: str, a_rank: int, store: ChunkStore) -> int:
    """Persist one A rank's chunks; returns bytes written."""
    os.makedirs(directory, exist_ok=True)
    path = checkpoint_path(directory, a_rank)
    written = 0
    with open(path, "wb") as handle:
        handle.write(_MAGIC)
        for chunk in store.raw_chunks():
            handle.write(len(chunk).to_bytes(8, "big"))
            handle.write(chunk)
            written += len(chunk)
    return written


def write_manifest(directory: str, num_a: int, sort: bool, job_name: str) -> None:
    """Record job-level metadata once all rank checkpoints are written."""
    manifest = {"num_a": num_a, "sort": sort, "job_name": job_name, "complete": True}
    atomic_write_json(os.path.join(directory, MANIFEST_NAME), manifest)


def read_manifest(directory: str) -> dict:
    manifest = read_json(os.path.join(directory, MANIFEST_NAME))
    if not manifest.get("complete"):
        raise CheckpointError(f"incomplete checkpoint in {directory}")
    return manifest


# -- iteration-mode superstep checkpoints -------------------------------------
#
# Iteration mode (see :mod:`repro.datampi.modes`) checkpoints the driver
# state after every *completed* superstep: the iteration number plus the
# user's per-iteration state (e.g. the current centroids).  A killed
# superstep therefore resumes from the last iteration that finished — the
# partially-executed one re-runs from its input, which the O-side cache or
# re-scatter reproduces exactly.


def iteration_state_path(directory: str) -> str:
    return os.path.join(directory, ITERATION_STATE_NAME)


def write_iteration_state(directory: str, iteration: int, state: Any) -> int:
    """Atomically persist the state completed at ``iteration``; returns bytes."""
    if iteration < 1:
        raise CheckpointError(f"iteration must be >= 1, got {iteration}")
    payload = _ITER_MAGIC + pickle.dumps(
        {"iteration": iteration, "state": state}, protocol=PICKLE_PROTOCOL
    )
    return atomic_write_bytes(iteration_state_path(directory), payload)


def clear_iteration_state(directory: str) -> None:
    """Delete any saved iteration state (a fresh run must not resume).

    ``IterativeJob.run(resume=False)`` calls this up front: an elastic
    restart *within* the run re-reads the iteration checkpoint, so a
    stale file from a previous run in the same directory would silently
    change where a replayed superstep resumes from.
    """
    try:
        os.remove(iteration_state_path(directory))
    except FileNotFoundError:
        pass


def read_iteration_state(directory: str) -> dict | None:
    """Load the last completed iteration's state, or None if no checkpoint."""
    path = iteration_state_path(directory)
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        payload = handle.read()
    if not payload.startswith(_ITER_MAGIC):
        raise CheckpointError(f"corrupt iteration checkpoint (bad magic) in {path}")
    try:
        saved = pickle.loads(payload[len(_ITER_MAGIC):])
    except Exception as exc:
        raise CheckpointError(f"unreadable iteration checkpoint {path}: {exc}") from exc
    if not isinstance(saved, dict) or "iteration" not in saved or "state" not in saved:
        raise CheckpointError(f"malformed iteration checkpoint {path}")
    return saved


def load_checkpoint(
    directory: str,
    a_rank: int,
    spill_threshold: int,
    spill_dir: str | None = None,
) -> ChunkStore:
    """Rebuild one A rank's chunk store from its checkpoint file."""
    path = checkpoint_path(directory, a_rank)
    if not os.path.exists(path):
        raise CheckpointError(f"missing checkpoint file for A rank {a_rank}: {path}")
    store = ChunkStore(spill_threshold=spill_threshold, spill_dir=spill_dir)
    with open(path, "rb") as handle:
        magic = handle.read(len(_MAGIC))
        if magic != _MAGIC:
            raise CheckpointError(f"corrupt checkpoint (bad magic) in {path}")
        while True:
            header = handle.read(8)
            if not header:
                break
            if len(header) != 8:
                raise CheckpointError(f"truncated checkpoint {path}")
            length = int.from_bytes(header, "big")
            chunk = handle.read(length)
            if len(chunk) != length:
                raise CheckpointError(f"truncated checkpoint {path}")
            store.add(chunk)
    return store
