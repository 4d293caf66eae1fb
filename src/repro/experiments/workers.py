"""Distributed matrix workers: everything of the matrix that touches a socket.

A serving :class:`~repro.experiments.matrix.MatrixRunner` owns the queue
of cells; workers on other processes or machines
(``repro experiment worker --join TOKEN``) are handed cells over the
connection they already hold.  Nothing is coordinated through the
filesystem: a worker receives no path, opens no file and needs no mount
in common with the parent, and "who has this cell, and is it still
alive?" is answered by the parent's socket to that worker.

Both ends take their socket from :mod:`repro.mpi.transport.channel`, so a
connection clears the HMAC challenge before any frame is read (frames
unpickle); the shared key rides the printed join token
(``HOST:PORT/KEY``) or ``REPRO_MATRIX_AUTHKEY``.  The protocol after
that is four frames and a goodbye, in the tcp transport's wire format:

``HELLO``    worker -> parent  ``{"proto": 2}``
``WELCOME``  parent -> worker  ``{"spec", "interval"}``
``RESULT``   worker -> parent  ``{"result"}`` — what the worker computed
             since it last asked (``None`` when it has just joined), and
             its request for the next cell
``CELL``     parent -> worker  ``{"cell"}`` — execute this one
``BYE``      parent -> worker  the run is over; no ``CELL`` will follow

After the welcome the connection is strict request/response: every
``RESULT`` is answered by one ``CELL`` or by ``BYE``.  A worker that goes
silent mid-cell (EOF, torn frame, malformed result) is dropped and its
cell goes back to the front of the queue.  This module knows nothing
about checkpoint files: results are handed to the runner, which stays
the only writer.
"""

from __future__ import annotations

import collections
import socket
import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.common.errors import ConfigError, JobError, MPIError, ReproError
from repro.experiments.spec import CellSpec, ExperimentSpec
from repro.mpi.transport import channel
from repro.mpi.transport.codec import recv_frame, send_frame

if TYPE_CHECKING:
    # matrix.py imports this module, so the cell pipeline it defines
    # (`_run_cell_worker`, `CellResult`) is imported where it is first
    # used, not here.
    from repro.experiments.matrix import CellResult

# Frame kinds (the tcp transport reserves 16+ for higher-level protocols
# reusing its framing).
_WK_HELLO = 16
_WK_WELCOME = 17
_WK_RESULT = 18
_WK_BYE = 19
_WK_CELL = 20

#: Bumped to 2 when cells started to travel over the wire: a proto-1
#: worker would wait for a checkpoint directory that no longer comes.
_WORKER_PROTO = 2

#: Seconds the acceptor waits for a connection's handshake + hello before
#: dropping it (strays are handled serially, so this bounds admission
#: latency too).
_WK_HELLO_TIMEOUT = 5.0

#: Environment variable supplying the worker protocol's shared secret
#: when the join token does not carry one (e.g. CI pinning a fixed
#: address for both sides); without it the parent generates a key and
#: embeds it in the printed join token (``HOST:PORT/KEY``).
MATRIX_AUTHKEY_ENV_VAR = "REPRO_MATRIX_AUTHKEY"


# -- the worker ------------------------------------------------------------------


def run_matrix_worker(
    address: str,
    progress: Callable[[CellResult], None] | None = None,
    connect_timeout: float = 30.0,
) -> int:
    """Join a serving matrix run and execute the cells it hands out.

    The ``repro experiment worker --join`` entry point.  Connects to the
    parent, clears its HMAC challenge (the key rides the join token's
    ``/KEY`` segment or ``REPRO_MATRIX_AUTHKEY``), receives the spec, then
    asks for cells — each request carrying the previous cell's result —
    and runs the exact process-pool pipeline on every one until the
    parent says ``BYE``.  This process only computes — it writes nothing.
    Returns the number of cells it executed.
    """
    from repro.experiments import matrix

    progress = progress or (lambda result: None)
    connected = _worker_connect(address, connect_timeout)
    if connected is None:
        # The parent accepted then hung up: its run finished (or it
        # died) before this worker was admitted.  Nothing to do.
        return 0
    sock, welcome = connected
    spec_hash = ExperimentSpec.from_dict(welcome["spec"]).spec_hash
    executed = 0
    result_doc: dict[str, Any] | None = None
    try:
        while True:
            request = {"result": result_doc}
            try:
                send_frame(sock, _WK_RESULT, obj=request)
            except OSError as exc:
                # The parent vanished with our result in hand.  It may
                # have *restarted* on the same address: reconnect and
                # resend — the new parent records the result unless it
                # has that cell already.
                sock.close()
                sock = _worker_reconnect(
                    address, connect_timeout, spec_hash, executed, exc
                )
                try:
                    send_frame(sock, _WK_RESULT, obj=request)
                except OSError as exc2:
                    raise JobError(
                        f"lost connection to the matrix parent at "
                        f"{address} after {executed} cell(s): {exc2}"
                    ) from exc2
            if result_doc is not None:
                executed += 1
                progress(matrix.CellResult.from_dict(result_doc))
            try:
                frame = recv_frame(sock)
            except (OSError, ReproError):  # torn: same story as an EOF
                frame = None
            if frame is not None and frame[0] == _WK_BYE:
                return executed
            if frame is None or frame[0] != _WK_CELL:
                raise JobError(
                    f"lost connection to the matrix parent at {address} "
                    f"after {executed} cell(s): no goodbye, no next cell"
                )
            result_doc = matrix._run_cell_worker({
                "cell": frame[2]["cell"],
                "spec": welcome["spec"],
                "interval": welcome["interval"],
            })
    finally:
        sock.close()


def _worker_reconnect(
    address: str,
    connect_timeout: float,
    spec_hash: str,
    executed: int,
    cause: OSError,
) -> socket.socket:
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
    if ExperimentSpec.from_dict(welcome["spec"]).spec_hash != spec_hash:
        sock.close()
        raise JobError(
            f"the matrix parent now serving at {address} runs a different "
            f"spec; abandoning this worker's run"
        )
    return sock


def _worker_connect(
    address: str, connect_timeout: float
) -> tuple[socket.socket, dict[str, Any]] | None:
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


# -- the parent ------------------------------------------------------------------


class _MatrixServer:
    """Parent-side owner of "who has this cell".

    The cells nobody has started wait in one deque; ``in_flight`` maps
    each admitted worker's connection to the cell it was handed.  One
    acceptor thread admits workers; one thread per worker does
    request/response on its connection — read the worker's ``RESULT``,
    take the next pending cell, send ``CELL`` — and puts the cell back at
    the front of the queue when the worker dies first, so a dying worker
    costs its in-flight cell, nothing more, on any host.  The runner
    executes cells too (:meth:`take`) and collects what the workers
    streamed back (:meth:`wait`, :meth:`drain`).
    """

    def __init__(self, spec: ExperimentSpec, address: str, interval: float,
                 authkey: str | bytes | None = None):
        self._welcome = {"spec": spec.to_dict(), "interval": interval}
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
        self._listener.settimeout(0.2)  # the acceptor's poll for closure
        self.address = channel.format_address(
            self._listener.getsockname()[:2], token)
        self._cond = threading.Condition()
        self._pending: collections.deque[CellSpec] = collections.deque()  #: guarded-by _cond
        #: Every live admitted connection -> its cell (None while it has none).
        self._in_flight: dict[socket.socket, CellSpec | None] = {}  #: guarded-by _cond
        self._results: list[tuple[str, CellResult]] = []  #: guarded-by _cond
        self._stopped = False  #: guarded-by _cond
        self._threads: list[threading.Thread] = []

    def __enter__(self) -> "_MatrixServer":
        self._start(self._accept_loop, "matrix-accept")
        return self

    def __exit__(self, *exc_info: object) -> None:
        with self._cond:
            self._stopped = True
            self._cond.notify_all()  # threads waiting for a cell
            conns = list(self._in_flight)
        self._listener.close()
        for conn in conns:  # threads parked in recv_frame read an EOF
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        for thread in self._threads:
            thread.join(2.0)

    def _start(self, target: Callable[..., None], name: str,
               *args: object) -> None:
        thread = threading.Thread(target=target, args=args, name=name,
                                  daemon=True)
        thread.start()
        self._threads.append(thread)

    # -- runner interface --------------------------------------------------------

    def offer(self, cells: Iterable[CellSpec]) -> None:
        """Queue the run's pending cells (workers admitted earlier wait)."""
        with self._cond:
            self._pending.extend(cells)
            self._cond.notify_all()

    def take(self) -> CellSpec | None:
        """The next pending cell, for the runner to execute itself."""
        with self._cond:
            return self._pending.popleft() if self._pending else None

    def wait(self, timeout: float) -> bool:
        """Block until a result arrived or a cell is back in the queue;
        ``False`` when neither happened within ``timeout`` seconds."""
        with self._cond:
            return self._cond.wait_for(
                lambda: bool(self._results or self._pending), timeout)

    def drain(self) -> list[tuple[str, CellResult]]:
        """The ``(cell_id, result)`` pairs streamed back since last asked."""
        with self._cond:
            drained, self._results = self._results, []
            return drained

    # -- threads -----------------------------------------------------------------

    def _accept_loop(self) -> None:
        workers = 0
        while True:
            try:
                # Bounded: one silent connection (port scan, health check)
                # must not wedge the single acceptor thread — and with it
                # all future worker admission — forever.
                conn = channel.accept_authenticated(
                    self._listener, self._authkey, _WK_HELLO_TIMEOUT)
            except socket.timeout:
                continue  # the listener's poll interval: closed yet?
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
                send_frame(conn, _WK_WELCOME, obj=self._welcome)
            except OSError:
                conn.close()
                continue
            workers += 1
            self._start(self._serve_worker, f"matrix-worker-{workers}", conn)

    def _serve_worker(self, conn: socket.socket) -> None:
        """One admitted worker's connection, until the run or the worker ends."""
        from repro.experiments import matrix

        try:
            with self._cond:
                self._in_flight[conn] = None
            while True:
                frame = recv_frame(conn)
                if frame is None or frame[0] != _WK_RESULT:
                    return
                doc = frame[2]["result"]
                self._settle(
                    conn, None if doc is None else matrix.CellResult.from_dict(doc))
                cell = self._assign(conn)
                if cell is None:
                    return
                send_frame(conn, _WK_CELL, obj={"cell": cell.to_dict()})
        except Exception:  # noqa: BLE001 - torn connection, malformed result
            pass  # either way the worker is dropped and its cell requeued
        finally:
            self._settle(conn)
            with self._cond:
                del self._in_flight[conn]
                stopped = self._stopped
            if stopped:
                channel.try_send_frame(conn, _WK_BYE)
            conn.close()

    def _assign(self, conn: socket.socket) -> CellSpec | None:
        """Wait for a pending cell and mark it in flight at ``conn``;
        ``None`` once the run is over."""
        with self._cond:
            self._cond.wait_for(lambda: bool(self._pending or self._stopped))
            if self._stopped:
                return None
            cell = self._in_flight[conn] = self._pending.popleft()
            return cell

    def _settle(self, conn: socket.socket,
                result: CellResult | None = None) -> None:
        """The worker at ``conn`` is done with its cell: it answered, or died.

        Its cell goes back to the front of the queue; ``result`` — usually
        that very cell's — then takes the cell it belongs to off the queue
        (or off whichever worker holds it) and goes to the runner.  A
        result whose cell is neither queued nor in flight is a duplicate of
        one already recorded, or of a cell the runner is executing itself:
        dropped, first result wins.  That rule is also what records the
        result a restarted parent never asked for.
        """
        with self._cond:
            forfeited = self._in_flight.get(conn)
            if forfeited is not None:
                self._in_flight[conn] = None
                self._pending.appendleft(forfeited)
            if result is not None:
                cell_id = result.spec.cell_id
                queued = [c for c in self._pending if c.cell_id == cell_id]
                holders = [w for w, c in self._in_flight.items()
                           if c is not None and c.cell_id == cell_id]
                for cell in queued:
                    self._pending.remove(cell)
                for worker in holders:
                    self._in_flight[worker] = None
                if queued or holders:
                    self._results.append((cell_id, result))
            self._cond.notify_all()
