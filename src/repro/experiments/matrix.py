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

Cells can also be executed by **distributed workers** on other processes
or machines (``MatrixRunner(..., serve="host:port")`` plus
``repro experiment worker --join host:port``).  Coordination reuses the
checkpoint directory: a worker takes a cell by atomically linking a
**claim file** into place next to its checkpoint
(``cells/<cell_id>.claim`` — first link wins, everyone else skips, and
the file is never visible without its owner record), runs the exact
per-cell pipeline :func:`_run_cell_worker` runs on the process pool, and
streams the result to the parent over a length-prefixed TCP frame
channel (the tcp transport's wire format).  Workers authenticate with an
HMAC challenge before any frame crosses the wire (frames unpickle) — both
ends take their socket from :mod:`repro.mpi.transport.channel`; the
shared key rides the printed join token or ``REPRO_MATRIX_AUTHKEY``.
The parent is the only writer of checkpoints and reports, so serial,
pooled, and distributed runs are byte-identical; a worker that dies
mid-cell simply forfeits its claim and the parent re-runs the cell.
"""

from __future__ import annotations

import concurrent.futures
import glob
import hashlib
import json
import os
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.common.errors import ConfigError, JobError, MPIError, ReproError
from repro.datampi.checkpoint import atomic_write_json, read_json
from repro.mpi.transport import channel
from repro.mpi.transport.codec import recv_frame, send_frame
from repro.experiments.profiler import ResourceProfiler
from repro.experiments.spec import MODEL_FRAMEWORKS, CellSpec, ExperimentSpec
from repro.perfmodels import iterative_kmeans, simulate
from repro.storage import StorageConfig
from repro.workloads.base import WORKLOADS, RunParams, run_workload
SPEC_FILE = "spec.json"
MANIFEST_FILE = "manifest.json"
CELLS_DIR = "cells"


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
    result rather than raised: the matrix (or pool, or worker) continues."""
    try:
        return run(cell, *args)
    except Exception as exc:  # noqa: BLE001 - recorded, matrix continues
        return CellResult(spec=cell, status="failed",
                          error=f"{type(exc).__name__}: {exc}")


def _profiled_cell(cell: CellSpec, spec: ExperimentSpec,
                   interval_sec: float) -> CellResult:
    """The per-cell pipeline every strategy runs: the functional run,
    profiled inside the executing process, plus the analytical model."""
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


# -- distributed workers ---------------------------------------------------------
#
# Frame kinds for the worker protocol (the tcp transport reserves 16+ for
# higher-level protocols reusing its framing).

_WK_HELLO = 16    #: worker -> parent: {"proto": 1}
_WK_WELCOME = 17  #: parent -> worker: {"worker_id", "spec", "out_dir", "interval"}
_WK_RESULT = 18   #: worker -> parent: {"cell_id", "result"}
_WK_BYE = 19      #: worker -> parent: no more claimable cells

_WORKER_PROTO = 1

#: Seconds the acceptor waits for a connection's handshake + hello before
#: dropping it (strays are handled serially, so this bounds admission
#: latency too).
_WK_HELLO_TIMEOUT = 5.0

#: Environment variable supplying the worker protocol's shared secret
#: when the join token does not carry one (e.g. CI pinning a fixed
#: address for both sides); without it the parent generates a key and
#: embeds it in the printed join token (``HOST:PORT/KEY``).
MATRIX_AUTHKEY_ENV_VAR = "REPRO_MATRIX_AUTHKEY"

CLAIM_SUFFIX = ".claim"

#: How long a serving parent leaves a claim from a worker it never admitted
#: alone before reclaiming it.  Long enough for a predecessor's surviving
#: worker to reconnect and re-stamp its claims; short enough that a truly
#: departed owner (on a host where liveness cannot be probed) does not
#: stall the run.
RECLAIM_GRACE_SEC = 5.0


def claim_path(out_dir: str, cell_id: str) -> str:
    return os.path.join(out_dir, CELLS_DIR, cell_id + CLAIM_SUFFIX)


def _write_claim_record(path: str, spec_hash: str, owner: str) -> str:
    """Write an owner record to a private temp file; the caller links or
    renames the returned name onto ``path``."""
    # The temp name must be unique across *hosts* too — workers on a
    # shared mount can collide on pid + thread ident alone.
    tmp = (f"{path}.{socket.gethostname()}.{os.getpid()}"
           f".{threading.get_ident()}.tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump({"owner": owner, "spec_hash": spec_hash,
                   "pid": os.getpid(), "host": socket.gethostname()}, handle)
    return tmp


def try_claim_cell(out_dir: str, cell_id: str, spec_hash: str,
                   owner: str) -> bool:
    """Atomically claim one cell; False when someone already holds it.

    The owner record is written to a private temp file first and
    ``os.link``-ed into place, so the filesystem stays the arbiter
    (exactly one link wins, on a local disk or a shared mount) *and* a
    claim file is never observable without its owner — a coordinator
    reading a claim mid-creation must not mistake it for a dead one.
    """
    path = claim_path(out_dir, cell_id)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = _write_claim_record(path, spec_hash, owner)
    try:
        os.link(tmp, path)
    except FileExistsError:
        return False
    finally:
        os.unlink(tmp)
    return True


def release_claim(out_dir: str, cell_id: str) -> None:
    try:
        os.unlink(claim_path(out_dir, cell_id))
    except FileNotFoundError:
        pass


def sweep_claim_debris(out_dir: str) -> None:
    """Remove orphaned claim temp files (a claimant killed between
    writing its record and the link/unlink leaves one behind); the
    stale-claim sweep only covers ``.claim`` files themselves."""
    pattern = os.path.join(out_dir, CELLS_DIR, f"*{CLAIM_SUFFIX}.*.tmp")
    for leftover in glob.glob(pattern):
        try:
            os.unlink(leftover)
        except OSError:
            pass  # another sweeper got it, or the mount refuses: not fatal


def claim_owner(out_dir: str, cell_id: str) -> str | None:
    """The recorded owner of a cell's claim, or None when unclaimed."""
    record = claim_record(out_dir, cell_id)
    return record.get("owner") if record else None


def claim_record(out_dir: str, cell_id: str) -> dict | None:
    """A cell's full claim record (owner/pid/host), or None when unclaimed."""
    try:
        record = read_json(claim_path(out_dir, cell_id))
    except Exception:  # noqa: BLE001 - missing or mid-write claim
        return None
    return record if isinstance(record, dict) else {}


def claim_age_seconds(out_dir: str, cell_id: str) -> float:
    """Seconds since the claim file appeared (inf when it is gone)."""
    try:
        return max(0.0, time.time() - os.path.getmtime(claim_path(out_dir, cell_id)))
    except OSError:
        return float("inf")


def refresh_claim(out_dir: str, cell_id: str, spec_hash: str, owner: str) -> None:
    """Atomically re-stamp an already-held claim with a new owner record.

    Used by a worker that reconnected after losing its parent (the parent
    may have restarted): its claims carry the *old* worker id, which the
    new parent would reap as a departed owner.  The replace keeps the
    cell continuously claimed — there is no window where another claimant
    can link in.
    """
    path = claim_path(out_dir, cell_id)
    os.replace(_write_claim_record(path, spec_hash, owner), path)


def _pid_is_live(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        pass  # EPERM and friends: the pid exists
    return True


def claim_is_stale(record: dict | None) -> bool:
    """Is a claim provably dead — its recorded owner process gone?

    Only claims from *this* host can be checked; a malformed record, a
    dead local pid, or a claim written by this very process (workers are
    always separate processes, so our own pid can only be a leftover of a
    previous incarnation of this run) count as stale.  Remote-host claims
    are never provably dead here — the serving reaper ages them out
    instead.
    """
    if not record:
        return True
    pid, host = record.get("pid"), record.get("host")
    if host != socket.gethostname():
        return False  # remote: not provably dead from here
    if not isinstance(pid, int):
        return True  # local but malformed
    return pid == os.getpid() or not _pid_is_live(pid)


def run_matrix_worker(
    address: str,
    progress: Callable[[CellResult], None] | None = None,
    connect_timeout: float = 30.0,
) -> int:
    """Join a serving matrix run and execute claimable cells until dry.

    The ``repro experiment worker --join`` entry point.  Connects to the
    parent, clears its HMAC challenge (the key rides the join token's
    ``/KEY`` segment or ``REPRO_MATRIX_AUTHKEY``), receives the spec and
    checkpoint directory, then sweeps the cells: checkpointed cells are
    skipped, claimable ones are claimed, executed with the exact
    process-pool pipeline, and streamed back.  The *parent* writes every
    checkpoint and releases the claim — this process only computes.
    Returns the number of cells it executed.
    """
    progress = progress or (lambda result: None)
    connected = _worker_connect(address, connect_timeout)
    if connected is None:
        # The parent accepted then hung up: its run finished (or it
        # died) before this worker was admitted.  Nothing to do.
        return 0
    sock, welcome = connected
    spec = ExperimentSpec.from_dict(welcome["spec"])
    out_dir = welcome["out_dir"]
    owner = welcome["worker_id"]
    executed = 0
    try:
        for cell in spec.cells:
            state, _record = _classify_checkpoint(
                os.path.join(out_dir, CELLS_DIR, f"{cell.cell_id}.json"),
                spec.spec_hash,
            )
            if state == "done":
                continue
            if not try_claim_cell(out_dir, cell.cell_id, spec.spec_hash,
                                  owner):
                continue
            result_doc = _run_cell_worker({
                "cell": cell.to_dict(),
                "spec": welcome["spec"],
                "interval": welcome["interval"],
            })
            frame_obj = {"cell_id": cell.cell_id, "result": result_doc}
            try:
                send_frame(sock, _WK_RESULT, obj=frame_obj)
            except OSError as exc:
                # The parent vanished with our result in hand.  It may
                # have *restarted* on the same address: reconnect, stamp
                # the claim with the identity the new parent gave us (so
                # its reaper knows the owner is alive), and resend.
                sock.close()
                sock, owner = _worker_reconnect(
                    address, connect_timeout, spec, executed, exc
                )
                refresh_claim(out_dir, cell.cell_id, spec.spec_hash, owner)
                try:
                    send_frame(sock, _WK_RESULT, obj=frame_obj)
                except OSError as exc2:
                    raise JobError(
                        f"lost connection to the matrix parent at "
                        f"{address} after {executed} cell(s): {exc2}"
                    ) from exc2
            executed += 1
            progress(CellResult.from_dict(result_doc))
        channel.try_send_frame(sock, _WK_BYE)  # the run is over either way
    finally:
        sock.close()
    return executed


def _worker_reconnect(
    address: str,
    connect_timeout: float,
    spec: ExperimentSpec,
    executed: int,
    cause: OSError,
) -> tuple[socket.socket, str]:
    """Re-join a (possibly restarted) parent after a torn connection."""
    try:
        reconnected = _worker_connect(address, connect_timeout)
    except JobError:
        reconnected = None
    if reconnected is None:
        raise JobError(
            f"lost connection to the matrix parent at {address} after "
            f"{executed} cell(s): {cause}"
        ) from cause
    sock, welcome = reconnected
    if ExperimentSpec.from_dict(welcome["spec"]).spec_hash != spec.spec_hash:
        sock.close()
        raise JobError(
            f"the matrix parent now serving at {address} runs a different "
            f"spec; abandoning this worker's run"
        )
    return sock, welcome["worker_id"]


def _worker_connect(
    address: str, connect_timeout: float
) -> tuple[socket.socket, dict] | None:
    """Dial and handshake a matrix parent.

    Returns ``(socket, welcome)`` once admitted, or ``None`` when a parent
    accepted and hung up cleanly (its run already finished).  Raises
    :class:`JobError` when nothing is serving or the handshake misbehaves.
    """
    host, port = channel.parse_address(address)
    authkey = channel.supplied_authkey(None, address, MATRIX_AUTHKEY_ENV_VAR)
    # Bound the handshake: a wrong-but-listening port (or a wedged parent)
    # accepts the connect but never answers the challenge, and an
    # unbounded read would hang the worker CLI forever.
    handshake_timeout = max(connect_timeout, 10.0)
    mute = JobError(
        f"{address} accepted the connection but never answered the "
        f"worker handshake (not a serving matrix parent?)"
    )
    deadline = time.monotonic() + connect_timeout
    while True:  # the parent may still be binding its listener
        try:
            # A keyless worker dials with an empty key: a parent that
            # challenges rejects it, which proves this is an
            # authenticating parent we cannot answer.
            sock = channel.connect_authenticated(
                (host, port), authkey or b"", handshake_timeout)
            break
        except socket.timeout:
            raise mute from None
        except MPIError:
            if authkey is not None:
                raise
            raise JobError(
                f"matrix parent at {address} requires an authkey: "
                f"join with the full token printed by --serve "
                f"(HOST:PORT/KEY) or set {MATRIX_AUTHKEY_ENV_VAR}"
            ) from None
        except OSError:
            if time.monotonic() >= deadline:
                raise JobError(
                    f"no matrix parent serving at {address} after "
                    f"{connect_timeout}s"
                ) from None
            # Connect-retry backoff inside a deadline-bounded loop: the
            # enclosing while re-raises once `deadline` passes.
            time.sleep(0.1)  # repro: allow[RPL004]
    if sock is None:
        return None  # the parent hung up before admitting us
    try:
        sock.settimeout(handshake_timeout)
        try:
            send_frame(sock, _WK_HELLO, obj={"proto": _WORKER_PROTO})
            frame = recv_frame(sock)
        except socket.timeout:
            raise mute from None
        except (OSError, ReproError):  # torn mid-handshake
            frame = None
        sock.settimeout(None)
        if frame is not None and frame[0] != _WK_WELCOME:
            raise JobError(f"matrix parent at {address} rejected the worker")
    except BaseException:
        sock.close()
        raise
    if frame is None:
        sock.close()
        return None
    return sock, frame[2]


#: Per-process sequence distinguishing server incarnations (worker ids
#: embed pid + this, so ids never repeat across parent restarts).
_SERVER_EPOCH = iter(range(1, 1 << 62))


class _MatrixServer:
    """Parent-side listener: admits workers, drains their streamed results.

    One acceptor thread plus one reader thread per worker; results land
    in a queue the runner's coordination loop drains.  Worker liveness is
    tracked so the coordinator can reclaim cells whose owner died.
    """

    def __init__(self, spec: ExperimentSpec, out_dir: str, address: str,
                 interval: float, authkey: str | bytes | None = None):
        self._spec_doc = spec.to_dict()
        self._out_dir = out_dir
        self._interval = interval
        host, port = channel.parse_address(address)
        # Workers must authenticate before any frame is exchanged (frames
        # unpickle).  A generated key is embedded in the advertised join
        # token; a supplied one (argument or env) stays out of it.
        self._authkey, token = channel.resolve_authkey(
            authkey or channel.parse_authkey(address), MATRIX_AUTHKEY_ENV_VAR
        )
        try:
            self._listener = channel.listen_on(host, port, 16)
        except OSError as exc:
            raise ConfigError(
                f"cannot serve matrix workers on {address}: {exc}"
            ) from exc
        self._listener.settimeout(0.2)  # the acceptor's _stop poll interval
        self.address = channel.format_address(
            self._listener.getsockname()[:2], token)
        self._lock = threading.Lock()
        self._results: list[tuple[str, CellResult]] = []
        self._live: set[str] = set()
        self._seen: set[str] = set()  # every worker id this server admitted
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._conns: list[socket.socket] = []
        self._next_id = 0
        self._epoch = f"{os.getpid():x}.{next(_SERVER_EPOCH)}"

    def __enter__(self) -> "_MatrixServer":
        acceptor = threading.Thread(target=self._accept_loop,
                                    name="matrix-accept", daemon=True)
        acceptor.start()
        self._threads.append(acceptor)
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._listener.close()
        with self._lock:
            conns = list(self._conns)
        channel.close_quietly(*conns)  # unblock readers parked in recv_frame
        for thread in self._threads:
            thread.join(2.0)

    # -- coordinator interface -------------------------------------------------

    def drain_results(self) -> list[tuple[str, CellResult]]:
        with self._lock:
            drained, self._results = self._results, []
            return drained

    def owner_is_live(self, owner: str | None) -> bool:
        """Is ``owner`` a currently-connected worker of this server?"""
        with self._lock:
            return owner is not None and owner in self._live

    def owner_was_admitted(self, owner: str | None) -> bool:
        """Did this server ever admit ``owner`` (live or since departed)?

        Distinguishes "admitted, then died" (reap its claims immediately)
        from "never met" (a worker of a previous parent that may still
        reconnect — only age its claims out)."""
        with self._lock:
            return owner is not None and owner in self._seen

    # -- threads ---------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                # Bounded: one silent connection (port scan, health check)
                # must not wedge the single acceptor thread — and with it
                # all future worker admission — forever.
                conn = channel.accept_authenticated(
                    self._listener, self._authkey, _WK_HELLO_TIMEOUT)
            except socket.timeout:
                continue  # the listener's poll interval: re-check _stop
            except OSError:
                return  # listener closed
            if conn is None:
                continue  # a stray: dropped, nothing deserialised
            try:
                try:
                    frame = recv_frame(conn)
                except Exception:  # noqa: BLE001 - timeout, torn, garbage
                    frame = None
                # The whole validation stays inside this thread's guard:
                # a malformed hello (e.g. a non-dict payload) must drop
                # the connection, never kill the single acceptor.
                if frame is None or frame[0] != _WK_HELLO or \
                        not isinstance(frame[2], dict) or \
                        frame[2].get("proto") != _WORKER_PROTO:
                    conn.close()
                    continue
                conn.settimeout(None)
                with self._lock:
                    self._next_id += 1
                    # Unique across parent incarnations: a restarted
                    # parent must never mint an id that collides with a
                    # claim stamped by its predecessor's workers.
                    worker_id = f"worker-{self._epoch}-{self._next_id}"
                    self._live.add(worker_id)
                    self._seen.add(worker_id)
                    self._conns.append(conn)
                send_frame(conn, _WK_WELCOME, obj={
                    "worker_id": worker_id,
                    "spec": self._spec_doc,
                    "out_dir": self._out_dir,
                    "interval": self._interval,
                })
            except OSError:
                conn.close()
                continue
            reader = threading.Thread(
                target=self._read_loop, args=(conn, worker_id),
                name=f"matrix-{worker_id}", daemon=True,
            )
            reader.start()
            self._threads.append(reader)

    def _read_loop(self, conn: socket.socket, worker_id: str) -> None:
        try:
            while not self._stop.is_set():
                try:
                    frame = recv_frame(conn)
                except Exception:  # noqa: BLE001 - torn connection
                    frame = None
                if frame is None or frame[0] == _WK_BYE:
                    return
                if frame[0] != _WK_RESULT:
                    continue
                payload = frame[2]
                result = CellResult.from_dict(payload["result"])
                with self._lock:
                    self._results.append((payload["cell_id"], result))
        finally:
            conn.close()
            with self._lock:
                self._live.discard(worker_id)


class MatrixRunner:
    """Executes a spec cell by cell with profiling and resumable checkpoints.

    ``workers`` selects the execution strategy: ``None`` or ``1`` runs
    cells serially in this process; ``N > 1`` runs them on a process pool
    of ``N`` workers; ``0`` sizes the pool to ``os.cpu_count()``.  Both
    strategies write identical checkpoints and, because the
    :class:`~repro.experiments.reportbuilder.ReportBuilder` is
    order-independent and byte counters are exact, render byte-identical
    reports (``tests/test_parallel_matrix.py`` asserts this).

    ``serve="host:port"`` instead runs the *distributed* strategy: the
    runner executes cells itself while also admitting remote workers
    (:func:`run_matrix_worker`) that claim cells via claim files and
    stream results back; the parent stays the only checkpoint writer, so
    reports remain byte-identical to a serial run.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        out_dir: str,
        profile_interval_sec: float = 0.02,
        progress: Callable[[CellResult], None] | None = None,
        workers: int | None = None,
        serve: str | None = None,
        worker_timeout: float = 600.0,
    ):
        self.spec = spec
        self.out_dir = out_dir
        self.profile_interval_sec = profile_interval_sec
        self.progress = progress or (lambda result: None)
        self.serve = serve
        self.worker_timeout = worker_timeout
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
        if serve is not None and self.workers > 1:
            raise ConfigError(
                "serve (distributed workers) and workers (process pool) "
                "are mutually exclusive; pick one parallelism strategy"
            )
        self._server: _MatrixServer | None = None
        if serve is not None:
            # Bind eagerly so the resolved address (an ephemeral port is
            # legal) is known before run() — workers need it to join.
            self._server = _MatrixServer(spec, out_dir, serve,
                                         profile_interval_sec)
            self.serve = self._server.address

    def cell_path(self, cell: CellSpec) -> str:
        return os.path.join(self.out_dir, CELLS_DIR, f"{cell.cell_id}.json")

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

    def _run_serial(self, pending: list[CellSpec],
                    by_id: dict[str, CellResult]) -> int:
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

    def _run_distributed(self, pending: list[CellSpec],
                         by_id: dict[str, CellResult]) -> int:
        """Coordinate this process plus any joined workers over claim files.

        The parent claims and executes cells like any worker, drains
        streamed worker results between cells, and is the only process
        that writes checkpoints.  Claims whose owner has disconnected (or
        predates this run) are released and re-executed, so a dying
        worker costs its in-flight cell, nothing more.
        """
        remaining = {cell.cell_id: cell for cell in pending}
        # Sweep *every* cell's claim, not just the pending ones: a parent
        # killed between checkpointing a cell and releasing its claim
        # leaves a claim beside a done checkpoint, which no longer shows
        # up as pending but must not survive into this run.  The sweep is
        # liveness-aware: claims whose recorded owner process is provably
        # dead (or is this very process, reincarnated) go; claims held by
        # a live worker of a previous parent stay, so a restarted parent
        # does not steal a cell that worker is still computing — it can
        # reconnect and stream the result here instead.
        for cell in self.spec.cells:
            if claim_is_stale(claim_record(self.out_dir, cell.cell_id)):
                release_claim(self.out_dir, cell.cell_id)
        sweep_claim_debris(self.out_dir)
        executed = 0

        def record(cell: CellSpec, result: CellResult) -> None:
            nonlocal executed
            self._checkpoint(cell, result)
            by_id[cell.cell_id] = result
            release_claim(self.out_dir, cell.cell_id)
            del remaining[cell.cell_id]
            executed += 1
            self.progress(result)

        assert self._server is not None
        try:
            with self._server as server:
                self._serve_cells(server, remaining, record)
        finally:
            # Closing sweep, after the server (and its workers) are
            # gone: a worker can win a claim in the window between the
            # parent checkpointing that cell and releasing it (the
            # duplicate result is dropped above); no claim file may
            # outlive the run.  In a ``finally`` on purpose — a
            # KeyboardInterrupt mid-run must release this parent's
            # claims too, or the leftover files would pin every
            # unfinished cell against the resumed run.
            for cell in self.spec.cells:
                release_claim(self.out_dir, cell.cell_id)
            sweep_claim_debris(self.out_dir)
        return executed

    def _serve_cells(self, server: "_MatrixServer",
                     remaining: dict[str, CellSpec], record) -> None:
        """The distributed claim/execute/drain loop, until no cell remains."""
        last_progress = time.monotonic()
        while remaining:
            progressed = False
            for cell_id, result in server.drain_results():
                if cell_id in remaining:
                    record(remaining[cell_id], result)
                    progressed = True
            claimed = None
            for cell in list(remaining.values()):
                if try_claim_cell(self.out_dir, cell.cell_id,
                                  self.spec.spec_hash, "parent"):
                    claimed = cell
                    break
            if claimed is not None:
                record(claimed, _recorded(self.execute_cell, claimed))
                progressed = True
            else:
                # Everything left is claimed by workers: reap claims
                # whose owner is gone, then wait for live streams.
                # A missing claim (owner None) is *claimable*, not
                # orphaned — releasing it would race a worker linking
                # its claim right now; the next sweep picks it up.
                for cell_id in list(remaining):
                    claim = claim_record(self.out_dir, cell_id)
                    owner = claim.get("owner") if claim else None
                    if owner is None or owner == "parent":
                        continue
                    if server.owner_was_admitted(owner):
                        # Admitted then departed: provably gone, reap now.
                        if not server.owner_is_live(owner):
                            release_claim(self.out_dir, cell_id)
                            progressed = True
                    elif claim_is_stale(claim) or (
                        claim_age_seconds(self.out_dir, cell_id)
                        > RECLAIM_GRACE_SEC
                    ):
                        # A predecessor's worker: reap once its process
                        # is provably dead, or after a grace window long
                        # enough for a surviving one to reconnect here
                        # and re-stamp the claim as its own.
                        release_claim(self.out_dir, cell_id)
                        progressed = True
                if not progressed and remaining:
                    # Reaper backoff, bounded by the stall deadline below
                    # (worker_timeout without progress raises JobError).
                    time.sleep(0.05)  # repro: allow[RPL004]
            if progressed:
                last_progress = time.monotonic()
            elif time.monotonic() - last_progress > self.worker_timeout:
                raise JobError(
                    f"distributed matrix stalled: cells "
                    f"{sorted(remaining)} still claimed after "
                    f"{self.worker_timeout}s without progress"
                )

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
            # them: distributed workers decide what to execute from the
            # files on disk, so a lingering "done" checkpoint would make
            # every worker skip every cell and the run degrade to serial.
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
        if self.serve is not None:
            executed = self._run_distributed(pending, by_id)
        elif self.workers > 1 and len(pending) > 1:
            executed = self._run_parallel(pending, by_id)
        else:
            executed = self._run_serial(pending, by_id)
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
        path = os.path.join(out_dir, CELLS_DIR, f"{cell.cell_id}.json")
        state, record = _classify_checkpoint(path, spec.spec_hash)
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
        path = os.path.join(out_dir, CELLS_DIR, f"{cell.cell_id}.json")
        state, _record = _classify_checkpoint(path, spec.spec_hash)
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
    "checkpoint_status",
    "checksum",
    "claim_owner",
    "claim_path",
    "execute_cell",
    "load_matrix",
    "release_claim",
    "run_matrix_worker",
    "try_claim_cell",
    "verify_cross_engine",
)
