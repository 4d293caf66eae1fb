"""TCP transport: ranks as separate processes — or separate machines —
joined by one socket pair per rank pair.

The paper's DataMPI moves key-value chunks *between cluster nodes* over
MVAPICH2; every other backend here (``thread``, ``shm``, ``inline``) is
single-machine.  This backend keeps the exact :class:`Endpoint` /
:class:`Transport` contract but carries :class:`Message` frames over TCP,
so ranks can live in separate processes on one host (the CI path) or in
separate processes on separate hosts (the paper's cluster shape).

Wire design
-----------

* **Rendezvous** — every rank opens its own peer-listener socket, then
  connects to one well-known rendezvous address and registers
  ``(rank, host, port)``.  Once the whole world has registered, the
  rendezvous broadcasts the address map and each pair ``(i, j)`` with
  ``j > i`` establishes one socket: ``j`` connects to ``i``'s listener.
  The rendezvous connection stays open as the rank's *control* channel
  (outcome reporting, abort broadcast, shutdown).
* **Framing** — every message is one length-prefixed frame using the
  typed binary codec (:mod:`repro.mpi.transport.codec`): a
  ``kind / fmt / source / tag / length`` header followed by the payload
  bytes, written as one vectored ``sendmsg`` (no header+payload concat
  copy), so a reader never depends on TCP segment boundaries.  ``bytes``
  chunk payloads travel verbatim (``FMT_RAW``) and never pass through
  pickle; only control-plane objects (collectives, outcomes, the
  rendezvous protocol) use the pickle-5 out-of-band format.
* **Receive** — a rank receives on its own thread: ``recv``
  ``select``s over its peer sockets plus the control channel and stashes
  frames until one matches.  A send is buffered up to the socket
  buffers; past them it waits for the peer to receive or to finish.
  :class:`TcpEndpoint` is also the ``shm`` transport's endpoint, over
  socket pairs made before the fork (:mod:`repro.mpi.transport.shm`).
* **Fail-fast abort** — a failing rank sends poison (``ABORT``) frames to
  every peer before reporting its error, and a hard-killed rank's
  sockets EOF, which poisons its peers locally: blocked receives raise
  at once instead of waiting out their timeout.

:class:`TcpTransport` forks its ranks on this host; for ranks on *other*
machines the serving side runs :class:`TcpWorldServer` and each remote
process calls :func:`join_world` — the same wire protocol (the local
spawn is ``join_world`` with fork instead of ssh).  Outcome collection,
survivor poisoning, the deadline rule and reaping are the shared rank
supervisor's (:mod:`repro.mpi.transport.ranks`).

Security
--------

Control-plane frames unpickle, so every socket here (rendezvous, peer
pair) comes from :mod:`repro.mpi.transport.channel` — the single place a
connection is authenticated before a frame byte is read; its docstring
has the handshake and where the per-world secret comes from.
:class:`TcpTransport` generates a random key per run; forked ranks
inherit it.
"""

from __future__ import annotations

import secrets
import selectors
import socket
import struct
import time
from typing import Any, Callable, Sequence

from repro.common.errors import MPIError
from repro.mpi import faultinject
from repro.mpi.transport.base import (
    JOIN_TIMEOUT,
    Endpoint,
    Message,
    PoisonedError,
    Transport,
    match,
    raise_rank_errors,
    register_transport,
)
from repro.mpi.transport import channel
from repro.mpi.transport.codec import recv_exact, recv_frame, send_frame
from repro.mpi.transport.ranks import (
    KEEP_WAITING,
    ForkedRanks,
    collect_outcomes,
    fork_context,
    report_outcome,
)

#: Peer-connection preamble: the connecting rank announces itself.
_HELLO = struct.Struct(">I")

# -- frame kinds (one byte; 16+ is reserved for higher-level protocols
#    that reuse this framing, e.g. the distributed matrix workers) -------------
KIND_DATA = 1      #: point-to-point payload (tag = message tag)
KIND_ABORT = 2     #: poison: a peer rank failed, blocked receives must raise
KIND_REGISTER = 3  #: rank -> rendezvous: (rank | None, host, port)
KIND_ADDRS = 4     #: rendezvous -> rank: {"rank": r, "addrs": [(host, port)]}
KIND_OUTCOME = 5   #: rank -> launcher: (rank, "ok" | "err", value)
KIND_SHUTDOWN = 6  #: launcher -> rank: world complete, tear down
KIND_RESTART = 7   #: launcher -> rank: world restarting, re-register

#: Seconds a finished rank waits for the launcher's shutdown frame before
#: tearing down unilaterally.
SHUTDOWN_GRACE = 30.0

#: Seconds the rendezvous waits for an accepted connection's handshake and
#: registration frame.  Real ranks register immediately after connecting;
#: this bounds how long one silent stray connection can stall the (serial)
#: accept loop without letting it eat the whole world-formation deadline.
_REGISTER_TIMEOUT = 2.0

_CONTROL = -1  # an endpoint's selector key for the control channel


class _WorldFormationError(PoisonedError):
    """World formation failed because a peer (or the launcher) vanished.

    A symptom of another rank's death, like mailbox poison: the
    supervisor may elect to rebuild the world instead of aborting it, and
    error reporting prefers the real failure over this echo.
    """


class _PeerLostError(PoisonedError):
    """A send hit a torn peer socket: that rank is gone.

    Classified as poison so the dead rank's death — not this echo of it —
    is what the launcher reports, and so the supervisor can tell
    recoverable rank loss from a genuine task failure.
    """


# -- address specs -------------------------------------------------------------


def parse_hosts(hosts: str | Sequence[str] | None) -> list[str]:
    """Normalise a hosts spec: ``None`` (localhost), a comma-separated
    string, or a sequence of host names/addresses.  Ranks are assigned
    round-robin over the list."""
    if hosts is None:
        return ["127.0.0.1"]
    entries = [h.strip() for h in hosts.split(",")] if isinstance(hosts, str) \
        else [str(h).strip() for h in hosts]
    entries = [h for h in entries if h]
    if not entries:
        raise MPIError(f"empty hosts spec {hosts!r}")
    return entries


# -- the endpoint --------------------------------------------------------------


class TcpEndpoint(Endpoint):
    """One rank's handle on the socket fabric, under both process
    transports (``tcp`` forms the fabric by rendezvous, ``shm`` by
    pre-forked socket pairs).

    Everything happens on the rank's own thread: sends write the peer's
    socket (one writer per socket — no locking needed), and ``recv``
    returns the first stashed message that matches, ``select``-ing over
    every peer socket plus the control channel until one does.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        peers: list[socket.socket | None],
        control: socket.socket,
        generation: int = 0,
    ):
        self.rank = rank
        self.size = size
        self.generation = generation
        self._stash: list[Message] = []
        self._aborted = False
        self._peers = peers
        self._control = control
        #: The launcher's last word: KIND_SHUTDOWN or KIND_RESTART.
        self._verdict: int | None = None
        self._selector = selectors.DefaultSelector()
        for peer_rank, sock in enumerate(peers):
            if sock is not None:
                self._selector.register(sock, selectors.EVENT_READ, peer_rank)
        self._selector.register(control, selectors.EVENT_READ, _CONTROL)

    # -- Endpoint contract -----------------------------------------------------

    def send(self, dest: int, message: Message) -> None:
        if dest == self.rank:
            self._stash.append(message)  # loopback: no wire to cross
            return
        sock = self._peers[dest]
        assert sock is not None
        try:
            # bytes-like payloads go out verbatim (FMT_RAW, no pickle);
            # objects ride the pickle-5 out-of-band control format.
            send_frame(sock, KIND_DATA, tag=message.tag,
                       obj=message.payload, source=self.rank)
        except OSError as exc:
            raise _PeerLostError(
                f"send to rank {dest} failed: peer unreachable ({exc})"
            ) from exc

    def recv(self, source: int, tag: int, timeout: float) -> Message:
        deadline = time.monotonic() + timeout
        while True:
            for index, message in enumerate(self._stash):
                if match(message, source, tag):
                    return self._stash.pop(index)
            if self._aborted:
                # A poison *symptom*, not a cause: the dedicated class
                # lets the run report the original rank error instead.
                raise PoisonedError(
                    f"rank {self.rank} aborted: a peer rank failed"
                )
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise MPIError(
                    f"recv timed out after {timeout}s waiting for "
                    f"source={source} tag={tag}"
                )
            self._poll(remaining)

    def _poll(self, timeout: float) -> None:
        """Wait up to ``timeout`` seconds, then stash every frame that
        arrived (and note a peer's death or poison in ``_aborted``)."""
        for key, _events in self._selector.select(timeout):
            who = key.data
            try:
                frame = recv_frame(key.fileobj)
            except (MPIError, OSError):
                frame = None  # a torn connection is a peer death
            if frame is None:
                # EOF.  A healthy world tears sockets down only after the
                # launcher's shutdown, so an early EOF means the other side
                # died without a word (hard kill) — fail blocked receives now.
                self._selector.unregister(key.fileobj)
                if self._verdict is None:
                    self._aborted = True
                if who == _CONTROL:
                    self._verdict = KIND_SHUTDOWN  # launcher is gone
                continue
            kind, tag, obj = frame
            if kind == KIND_DATA:
                self._stash.append(Message(who, tag, obj))
            elif kind == KIND_ABORT:
                self._aborted = True
            elif kind in (KIND_SHUTDOWN, KIND_RESTART):
                self._verdict = kind

    # -- lifecycle -------------------------------------------------------------

    def await_verdict(self, wait: float) -> bool:
        """Wait up to ``wait`` s for the launcher's verdict; ``True`` for a
        restart.  Peer sockets are read meanwhile, so a peer still sending
        to this finished rank never blocks on a full socket buffer."""
        deadline = time.monotonic() + wait
        while self._verdict is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            self._poll(remaining)
        return self._verdict == KIND_RESTART

    def poison_peers(self) -> None:
        """Best-effort ABORT frame to every peer (dead peers are skipped)."""
        for sock in self._peers:
            if sock is not None:
                channel.try_send_frame(sock, KIND_ABORT)

    def sever(self) -> None:
        """Tear every live connection down mid-protocol (fault injection).

        Registered as this rank's fault dropper: a ``drop`` rule calls it
        so peers and the launcher observe abrupt EOFs exactly where a
        yanked cable would produce them.
        """
        for sock in (self._control, *self._peers):
            if sock is None:
                continue
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def close(self) -> None:
        self._selector.close()
        channel.close_quietly(*self._peers)


# -- rendezvous ----------------------------------------------------------------


class _Rendezvous:
    """Listener that forms each generation of one world: registrations
    in, address map out.

    The accepted connections double as per-rank control channels and are
    returned to the launcher for outcome collection.
    """

    def __init__(self, world_size: int, bind_host: str, port: int,
                 authkey: str | bytes):
        self.world_size = world_size
        self._authkey = authkey
        try:
            self._listener = channel.listen_on(bind_host, port, world_size)
        except OSError as exc:
            raise MPIError(
                f"cannot bind tcp rendezvous on {bind_host}:{port}: {exc}"
            ) from exc
        self.address: tuple[str, int] = self._listener.getsockname()[:2]

    def form(
        self,
        survivors: dict[int, socket.socket],
        deadline: float,
    ) -> list[socket.socket]:
        """Fill every slot of the next generation, broadcast the address
        map, and return the per-rank control sockets.

        ``survivors`` (empty at generation 0) re-register over their live
        control sockets; every other slot is offered to new connections
        at the rendezvous address.  A joiner that died before it could
        register its listener fails the world at once with its real
        error, whichever generation it was joining.
        """
        controls: list[socket.socket | None] = [None] * self.world_size
        addrs: list[tuple[str, int] | None] = [None] * self.world_size
        failures: list[tuple[int, BaseException]] = []
        selector = selectors.DefaultSelector()
        for rank, conn in survivors.items():
            selector.register(conn, selectors.EVENT_READ, rank)
        selector.register(self._listener, selectors.EVENT_READ, None)
        with selector:
            while any(c is None for c in controls) and not failures:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    missing = [r for r, c in enumerate(controls) if c is None]
                    raise MPIError(
                        f"tcp rendezvous incomplete: ranks {missing} never "
                        f"registered"
                    )
                for key, _events in selector.select(remaining):
                    if key.data is None:  # a new connection for an open slot
                        conn = channel.accept_authenticated(
                            self._listener, self._authkey,
                            max(0.1, min(_REGISTER_TIMEOUT,
                                         deadline - time.monotonic())),
                        )
                        if conn is None:
                            continue  # a stray; the deadline still governs
                        try:
                            frame = recv_frame(conn)
                        except Exception:  # noqa: BLE001 - silent, torn, undecodable
                            conn.close()
                            continue
                        conn.settimeout(None)
                        if frame is None:
                            conn.close()
                            raise MPIError("a rank died during tcp rendezvous")
                        kind, _tag, obj = frame
                        if kind == KIND_OUTCOME:  # died before registering
                            rank, _status, value = obj
                            failures.append((rank, value))
                            conn.close()
                            continue
                        if kind != KIND_REGISTER:
                            conn.close()
                            raise MPIError(
                                f"unexpected frame kind {kind} during rendezvous"
                            )
                        rank = obj["rank"]
                        if rank is None:  # joiner without a pinned rank
                            rank = next(
                                (r for r, c in enumerate(controls)
                                 if c is None and r not in survivors), None)
                            if rank is None:  # every open slot is a survivor's
                                conn.close()
                                continue
                        if (not 0 <= rank < self.world_size
                                or rank in survivors
                                or controls[rank] is not None):
                            conn.close()
                            raise MPIError(
                                f"bad or duplicate rank {rank} at rendezvous"
                            )
                    else:  # a survivor re-registering on its control socket
                        rank, conn = key.data, key.fileobj
                        try:
                            frame = recv_frame(conn)
                        except (MPIError, OSError):
                            frame = None
                        if frame is None:
                            raise MPIError(
                                f"rank {rank} died during world restart"
                            )
                        kind, _tag, obj = frame
                        if kind == KIND_OUTCOME:
                            continue  # stale outcome from the old generation
                        if kind != KIND_REGISTER:
                            raise MPIError(
                                f"unexpected frame kind {kind} from rank "
                                f"{rank} during world restart"
                            )
                        selector.unregister(conn)
                    controls[rank] = conn
                    addrs[rank] = (obj["host"], obj["port"])
        if failures:
            live = {*survivors.values(),
                    *(c for c in controls if c is not None)}
            for conn in live:
                channel.try_send_frame(conn, KIND_ABORT)
                channel.try_send_frame(conn, KIND_SHUTDOWN)
            channel.close_quietly(*live)
            raise_rank_errors(failures)
        for rank, conn in enumerate(controls):
            # A rank that registered then died is not an error here:
            # outcome collection sees the EOF and decides (abort or
            # elastic restart); peers that fail to reach the dead
            # listener poison themselves.
            channel.try_send_frame(conn, KIND_ADDRS,
                                   obj={"rank": rank, "addrs": addrs})
        return controls  # type: ignore[return-value]

    def close(self) -> None:
        self._listener.close()


# -- rank side -----------------------------------------------------------------


def _build_endpoint(
    control: socket.socket,
    bind_host: str,
    rank: int | None,
    deadline: float,
    authkey: str | bytes,
    generation: int = 0,
) -> TcpEndpoint:
    """Register with the rendezvous and wire up the pair sockets.

    Pair direction is deterministic: rank ``j`` *connects* to every
    ``i < j`` and *accepts* from every ``j' > j``.  Connects complete
    through the listen backlog, so no ordering between ranks can deadlock.
    """
    # Listen *before* registering: the moment the address map goes out,
    # higher ranks may connect, and a bound-but-not-listening socket
    # refuses them.  The world size is not known yet, so use a generous
    # fixed backlog (connects complete through it without an accept).
    try:
        listener = channel.listen_on(bind_host, 0, 128)
    except OSError as exc:
        raise MPIError(
            f"rank cannot bind its peer listener on {bind_host!r}: {exc} "
            f"(hosts entries must be addresses of this machine)"
        ) from exc
    with listener:
        host, port = listener.getsockname()[:2]
        send_frame(control, KIND_REGISTER,
                   obj={"rank": rank, "host": host, "port": port})
        frame = recv_frame(control)
        if frame is None:
            raise _WorldFormationError(
                "tcp rendezvous closed before the world formed"
            )
        kind, _tag, obj = frame
        if kind != KIND_ADDRS:
            raise _WorldFormationError(
                "tcp world formation aborted (a peer rank failed)"
            )
        rank = obj["rank"]
        addrs = obj["addrs"]
        world_size = len(addrs)
        # The deterministic "die during world formation" hook: the rank is
        # assigned and registered, so its death is visible as a control EOF
        # (and a refused listener) rather than a rendezvous that never fills.
        faultinject.fire("rendezvous", rank=rank)
        peers: list[socket.socket | None] = [None] * world_size
        try:
            for lower in range(rank):
                sock = channel.connect_authenticated(
                    addrs[lower], authkey,
                    max(0.1, deadline - time.monotonic()),
                )
                if sock is None:
                    raise MPIError("peer hung up during tcp pair handshake")
                peers[lower] = sock
                sock.sendall(_HELLO.pack(rank))
            waiting = world_size - 1 - rank
            # Watch the control channel alongside the listener: if a peer
            # dies before connecting, its connect never comes — only the
            # launcher's ABORT (or its own EOF) can release this rank
            # before the world deadline, which matters enormously for
            # recovery time.
            selector = selectors.DefaultSelector()
            selector.register(listener, selectors.EVENT_READ, "listener")
            selector.register(control, selectors.EVENT_READ, "control")
            with selector:
                while waiting:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise socket.timeout("tcp pair accept timed out")
                    for key, _ev in selector.select(remaining):
                        if key.data == "control":
                            verdict = recv_frame(control)
                            if verdict is None:
                                raise _WorldFormationError(
                                    "launcher vanished during tcp world "
                                    "formation"
                                )
                            if verdict[0] in (KIND_ABORT, KIND_SHUTDOWN):
                                raise _WorldFormationError(
                                    "tcp world formation aborted (a peer "
                                    "rank failed)"
                                )
                            continue  # stray control frame; keep accepting
                        # The peer listener is just as reachable by strays
                        # as the rendezvous is: dropped, deadline governs.
                        conn = channel.accept_authenticated(
                            listener, authkey,
                            max(0.1, deadline - time.monotonic()),
                        )
                        if conn is None:
                            continue
                        try:
                            hello = recv_exact(conn, _HELLO.size)
                        except (MPIError, OSError):
                            hello = None
                        if hello is None:
                            # Past the challenge this is provably a keyed
                            # peer, so a torn read is a rank death — fail
                            # fast, don't accept-loop until the deadline.
                            conn.close()
                            raise MPIError(
                                "peer hung up during tcp pair handshake"
                            )
                        peer_rank = _HELLO.unpack(hello)[0]
                        if (not rank < peer_rank < world_size
                                or peers[peer_rank] is not None):
                            conn.close()
                            continue
                        conn.settimeout(None)
                        peers[peer_rank] = conn
                        waiting -= 1
        except (OSError, MPIError) as exc:
            channel.close_quietly(*peers)
            if isinstance(exc, _WorldFormationError):
                raise
            raise _WorldFormationError(
                f"tcp pair handshake failed: {exc}"
            ) from exc
    return TcpEndpoint(rank, world_size, peers, control, generation)


def _run_rank(
    address: tuple[str, int],
    bind_host: str,
    rank: int | None,
    main: Callable[..., Any],
    args: tuple,
    timeout: float,
    authkey: str | bytes,
) -> tuple[str, Any] | None:
    """One rank's full lifecycle: control connection, fabric, ``main``,
    outcome, shutdown.  ``None`` when the rendezvous at ``address`` hung
    up before the handshake.

    When the launcher answers an outcome with ``KIND_RESTART`` (elastic
    recovery after a peer died), the rank loops: it re-registers over the
    same control socket, rebuilds its fabric at the next generation, and
    runs ``main`` again — deterministic mains resume from whatever
    checkpoints they wrote, replaying the interrupted work.
    """
    from repro.mpi.comm import Comm  # local import: comm builds on this module

    control = channel.connect_authenticated(address, authkey, timeout)
    if control is None:
        return None
    deadline = time.monotonic() + timeout
    generation = 0
    with control:
        while True:
            endpoint = None
            undrop = None
            try:
                endpoint = _build_endpoint(control, bind_host, rank, deadline,
                                           authkey, generation)
                rank = endpoint.rank
                # A drop rule severs precisely this generation's sockets.
                undrop = faultinject.register_dropper(endpoint.sever)
                outcome = ("ok", main(Comm(endpoint), *args))
            except BaseException as exc:  # noqa: BLE001 - reported to the launcher
                if endpoint is not None:
                    endpoint.poison_peers()
                outcome = ("err", exc)
            finally:
                if undrop is not None:
                    undrop()
            reporter = rank if rank is not None else -1
            report_outcome(lambda sent: channel.try_send_frame(
                control, KIND_OUTCOME, obj=(reporter, *sent)), reporter, outcome)
            if endpoint is None:
                # Formation failed, but the launcher may still restart the
                # world: a peerless endpoint reads its verdict off the
                # control channel exactly as a formed one would.
                endpoint = TcpEndpoint(-1, 0, [], control, generation)
            # Keep the fabric alive until the launcher says the whole world is
            # done: peers may still be receiving, and an early close would
            # read as a death.
            restart = endpoint.await_verdict(
                min(SHUTDOWN_GRACE, max(0.1, deadline - time.monotonic()))
            )
            endpoint.close()
            if not restart:
                return outcome
            generation += 1


# -- launcher side -------------------------------------------------------------


def _collect_outcomes(
    controls: list[socket.socket], timeout: float, deadline: float
) -> tuple[list[Any], list[tuple[int, BaseException]], set[int]]:
    """One generation's outcomes off the control sockets.  A control EOF
    before an outcome is a hard death (the kernel closes a killed
    process's sockets); those ranks come back as ``dead`` so the server
    can tell a recoverable rank loss (respawn its slot) from a rank that
    failed and said so (a real error — abort)."""

    def read(rank: int) -> Any:
        try:
            frame = recv_frame(controls[rank])
        except (MPIError, OSError):
            return None  # a torn connection is a death
        if frame is None:
            return None
        kind, _tag, obj = frame
        return obj[1:] if kind == KIND_OUTCOME else KEEP_WAITING

    def poison(still_running: list[int]) -> None:
        for rank in still_running:
            channel.try_send_frame(controls[rank], KIND_ABORT)

    return collect_outcomes(controls, read, poison, timeout, deadline=deadline)


@register_transport
class TcpTransport(Transport):
    """Fork one process per rank; move every message over TCP sockets.

    ``hosts`` is a comma-separated spec (or sequence) naming the address
    each rank binds — ranks are assigned round-robin over the list, so
    ``hosts="10.0.0.1,10.0.0.2"`` alternates ranks across two interfaces.
    :meth:`run` spawns every rank locally (fork), which is the CI path;
    for ranks on other machines use :class:`TcpWorldServer` +
    :func:`join_world`, which speak the same wire protocol.  ``port`` is
    the rendezvous port (0 = ephemeral).
    """

    name = "tcp"

    def __init__(
        self,
        hosts: str | Sequence[str] | None = None,
        port: int = 0,
        authkey: str | bytes | None = None,
        respawns: int = 0,
        fault_plan: "faultinject.FaultPlan | str | None" = None,
    ):
        self._ctx = fork_context("tcp transport spawn",
                                 "launch ranks externally with join_world instead")
        self.hosts = parse_hosts(hosts)
        self.port = channel.parse_address((self.hosts[0], port))[1]
        # A fresh random secret per transport unless pinned: forked ranks
        # inherit it, and nothing else may speak to this world's ports.
        self.authkey = (authkey if authkey is not None
                        else secrets.token_bytes(16))
        if respawns < 0:
            raise MPIError(f"respawns must be >= 0, got {respawns}")
        #: World restarts this transport may perform after rank deaths
        #: (0 = classic fail-fast).  Each restart re-offers every dead
        #: slot and forks a clean replacement into it.
        self.respawns = int(respawns)
        self.fault_plan = faultinject.parse_fault_plan(fault_plan)
        #: Observers called with ``(generation, dead_ranks)`` on every
        #: elastic restart (e.g. a WorldPool failing in-flight futures).
        self.restart_listeners: list[Callable[[int, list[int]], None]] = []

    def host_for_rank(self, rank: int) -> str:
        return self.hosts[rank % len(self.hosts)]

    def run(
        self,
        world_size: int,
        main: Callable[..., Any],
        args: tuple = (),
        timeout: float = JOIN_TIMEOUT,
    ) -> list[Any]:
        """A :class:`TcpWorldServer` whose joiners are forked from here
        (``join_world`` with fork instead of ssh)."""
        ranks = ForkedRanks(self._ctx)

        def fork(rank: int, plan: "faultinject.FaultPlan | None" = None) -> None:
            # Replacement ranks (the server's respawn hook passes no plan)
            # model fresh hardware, so a one-shot injected fault stays
            # one-shot.
            ranks.spawn(
                f"tcp-rank-{rank}",
                lambda: _run_rank(address, self.host_for_rank(rank), rank,
                                  main, args, timeout, self.authkey),
                plan,
            )

        server = TcpWorldServer(world_size, self.hosts[0], self.port,
                                self.authkey, self.respawns, respawn=fork)
        server.restart_listeners = self.restart_listeners
        address = channel.parse_address(server.address)
        try:
            for rank in range(world_size):
                fork(rank, self.fault_plan)
            return server.run(timeout)
        finally:
            server._rendezvous.close()
            ranks.reap()


class TcpWorldServer:
    """Rendezvous + outcome collection for externally launched ranks.

    The multi-machine entry point: run this where results should land,
    hand its ``address`` to ``world_size`` processes (any mix of hosts)
    that each call :func:`join_world`, then :meth:`run` blocks until the
    world completes and returns results by rank — raising the lowest
    failing rank's error exactly like every other backend.

        server = TcpWorldServer(world_size=2, bind="0.0.0.0", port=9997)
        # on each node:  join_world(server.address, main)
        results = server.run()

    Joiners must present the world's shared secret before any payload is
    exchanged (see the module's Security section).  When no ``authkey``
    is supplied — neither the argument nor ``REPRO_TCP_AUTHKEY`` — the
    server generates one and embeds it in ``address``
    (``HOST:PORT/KEY``), so the address token is the credential: share
    it only with the machines that should join.
    """

    def __init__(
        self,
        world_size: int,
        bind: str = "127.0.0.1",
        port: int = 0,
        authkey: str | bytes | None = None,
        restarts: int = 0,
        respawn: Callable[[int], None] | None = None,
    ):
        if world_size < 1:
            raise MPIError(f"world size must be >= 1, got {world_size}")
        if restarts < 0:
            raise MPIError(f"restarts must be >= 0, got {restarts}")
        port = channel.parse_address((bind, port))[1]
        self.world_size = world_size
        self.authkey, token = channel.resolve_authkey(authkey)
        #: World restarts the server may perform after rank deaths
        #: (0 = fail-fast).  On restart every dead slot is re-offered at
        #: ``address``: ``respawn(rank)`` is invoked per lost slot when
        #: provided (spawn a replacement however the deployment likes);
        #: otherwise any process calling :func:`join_world` — even with
        #: ``rank=None`` — fills it.
        self.restarts = int(restarts)
        self._respawn = respawn
        #: Observers called with ``(generation, dead_ranks)`` per restart.
        self.restart_listeners: list[Callable[[int, list[int]], None]] = []
        self._rendezvous = _Rendezvous(world_size, bind, port, self.authkey)
        self.address = channel.format_address(self._rendezvous.address, token)

    def run(self, timeout: float = JOIN_TIMEOUT) -> list[Any]:
        """Form the world and collect its outcomes, electing to rebuild
        it after rank deaths; everything is closed on the way out.

        A generation starts with one formation loop
        (:meth:`_Rendezvous.form`) and ends when every control socket has
        produced an outcome or an EOF.  The world restarts — rather than
        aborting — only when ranks actually died *and* every error a
        surviving rank did report is a poison symptom (mailbox poison,
        torn sends, failed world formation): a rank that raised a real
        error gets fail-fast semantics, because replaying a deterministic
        failure would only fail again.

        On restart the survivors get ``KIND_RESTART`` and re-register
        over their live control sockets; each dead rank's slot is
        re-offered at the rendezvous.  ``restart_listeners`` are told
        ``(generation, dead_ranks)`` before the rebuild — a serving pool
        uses this to fail in-flight futures whose requests died with the
        old world.
        """
        deadline = time.monotonic() + timeout
        budget = self.restarts
        generation = 0
        survivors: dict[int, socket.socket] = {}
        controls: list[socket.socket] = []
        try:
            while True:
                controls = self._rendezvous.form(survivors, deadline)
                results, errors, dead = _collect_outcomes(
                    controls, timeout, deadline)
                reported = [exc for rank, exc in errors if rank not in dead]
                recoverable = (
                    bool(dead)
                    and budget > 0
                    and all(isinstance(exc, PoisonedError) for exc in reported)
                )
                if not recoverable:
                    for sock in controls:
                        channel.try_send_frame(sock, KIND_SHUTDOWN)
                    raise_rank_errors(errors)
                    return results
                budget -= 1
                generation += 1
                # A rank that died between its outcome and the restart
                # frame has its slot re-offered along with the others.
                survivors = {
                    rank: sock for rank, sock in enumerate(controls)
                    if rank not in dead
                    and channel.try_send_frame(sock, KIND_RESTART)
                }
                dead = set(range(self.world_size)) - set(survivors)
                channel.close_quietly(*(controls[rank] for rank in dead))
                for listener in self.restart_listeners:
                    try:
                        listener(generation, sorted(dead))
                    except Exception:  # noqa: BLE001 - observers must not kill recovery
                        pass
                if self._respawn is not None:
                    for rank in sorted(dead):
                        self._respawn(rank)
        finally:
            self._rendezvous.close()
            channel.close_quietly(*controls)


def join_world(
    address: str | tuple[str, int],
    main: Callable[..., Any],
    args: tuple = (),
    rank: int | None = None,
    bind_host: str = "127.0.0.1",
    timeout: float = JOIN_TIMEOUT,
    authkey: str | bytes | None = None,
) -> Any:
    """Join a :class:`TcpWorldServer` world as one rank and run ``main``.

    ``rank=None`` lets the rendezvous assign the next free rank;
    ``bind_host`` is the address this process's peer listener binds (it
    must be reachable by the other ranks).  The world's shared secret
    comes from ``authkey``, the address token's ``/KEY`` segment, or
    ``REPRO_TCP_AUTHKEY`` — one of them is required, because every world
    is authenticated.  Returns this rank's result; raises the local
    failure if ``main`` raised here.
    """
    host, port = channel.parse_address(address)
    # A joiner is a dedicated rank process: a fault plan (usually from
    # REPRO_FAULT_PLAN in its environment) may hard-kill it.
    faultinject.mark_killable()
    key = channel.supplied_authkey(authkey, address, channel.AUTHKEY_ENV_VAR)
    if key is None:
        raise MPIError(
            "joining a tcp world requires its authkey: use the full "
            "address token the server printed (HOST:PORT/KEY), pass "
            f"authkey=, or set {channel.AUTHKEY_ENV_VAR}"
        )
    outcome = _run_rank((host, port), bind_host, rank, main, args, timeout,
                        key)
    if outcome is None:
        raise MPIError(
            f"tcp world at {channel.format_address((host, port))} hung up "
            f"before the handshake (server gone?)"
        )
    status, value = outcome
    if status == "err":
        if isinstance(value, MPIError) or not isinstance(value, Exception):
            raise value
        raise MPIError(f"joined rank failed: {value!r}") from value
    return value
