"""Authenticated framed channel: the one route from "a TCP socket
exists" to "the first frame may be read".

Control-plane frames unpickle (:mod:`repro.mpi.transport.codec`), and
unpickling attacker-controlled bytes is arbitrary code execution — so
**no socket reaches the frame layer unauthenticated**.  This module
enforces that by being the only place a listener is opened, a connection
accepted or dialled, and the challenge spoken: the tcp rendezvous and
the rank-pair fabric get their sockets from :func:`accept_authenticated` /
:func:`connect_authenticated` and from nowhere else.  (The shm
transport's ``socket.socketpair()`` fabric needs no handshake: it is made
before the fork and has no address, so only the run's own processes hold
its ends.)

The handshake is the ``multiprocessing.connection`` scheme with mutual
proof: nonce out, ``HMAC-SHA256(key, "client:" + nonce)`` back, then
``HMAC-SHA256(key, "server:" + nonce)`` out.  It authenticates, but the
wire is not encrypted — treat an address token as a credential and run
on networks where eavesdropping is acceptable.  The secret comes from (in
priority order) an explicit ``authkey=`` argument, the key segment of an
address token (``HOST:PORT/KEY`` — what a server prints when it generated
the key itself), or the ``REPRO_TCP_AUTHKEY`` environment variable.

Both birth functions also switch Nagle's algorithm off (the tcp
no-delay option) before the first byte of the challenge.  Every frame is
already one vectored ``sendmsg`` (:func:`codec.send_frame`), so Nagle
has nothing to coalesce — and left on, it holds a rank's second small
frame to one peer (an EOF after a chunk, an outcome after a control)
behind the peer's delayed-ACK timer, ~40 ms per round on Linux.
"""

from __future__ import annotations

import hmac
import os
import secrets
import socket
from typing import Any

from repro.common.errors import MPIError
from repro.mpi.transport import codec

#: Environment variable supplying a tcp world's shared secret when the
#: address token does not carry one (e.g. CI pinning a fixed port).
AUTHKEY_ENV_VAR = "REPRO_TCP_AUTHKEY"

#: Size of the handshake nonce and of each HMAC-SHA256 digest.
AUTH_NONCE_BYTES = 32


# -- address tokens ------------------------------------------------------------


def parse_address(address: str | tuple[str, int]) -> tuple[str, int]:
    """``"host:port"`` or ``"host:port/key"`` (or an already-split tuple)
    -> ``(host, port)``.  The key segment, if any, is read separately by
    :func:`parse_authkey`.

    Examples:
        >>> parse_address("10.0.0.1:9997/s3cret")
        ('10.0.0.1', 9997)
        >>> parse_authkey("10.0.0.1:9997/s3cret")
        's3cret'
        >>> format_address(("10.0.0.1", 9997), "s3cret")
        '10.0.0.1:9997/s3cret'
    """
    host: str
    raw_port: Any
    if isinstance(address, (tuple, list)):
        host, raw_port = address
    else:
        hostport, _sep, _key = str(address).partition("/")
        host, sep, raw_port = hostport.rpartition(":")
        if not sep or not host:
            raise MPIError(f"address must be HOST:PORT, got {address!r}")
    try:
        port = int(raw_port)
    except (TypeError, ValueError):
        raise MPIError(f"bad port in address {address!r}") from None
    if not 0 <= port <= 65535:
        raise MPIError(f"port out of range in address {address!r}")
    return host, port


def parse_authkey(address: str | tuple[str, int]) -> str | None:
    """The key segment of a ``HOST:PORT/KEY`` address token, or None."""
    if isinstance(address, (tuple, list)):
        return None
    _hostport, sep, key = str(address).partition("/")
    return key if sep and key else None


def format_address(address: tuple[str, int], token: str | None = None) -> str:
    base = f"{address[0]}:{address[1]}"
    return f"{base}/{token}" if token else base


# -- the shared secret ---------------------------------------------------------


def _coerce_authkey(authkey: str | bytes) -> bytes:
    if isinstance(authkey, str):
        return authkey.encode("utf-8")
    return bytes(authkey)


def supplied_authkey(
    explicit: str | bytes | None, address: str | tuple[str, int]
) -> bytes | None:
    """The secret this process was *given*: the explicit argument, then
    the ``/KEY`` segment of ``address``, then the environment.  ``None``
    when none supplies one — a joiner must then refuse to dial."""
    key = explicit if explicit is not None else (
        parse_authkey(address) or os.environ.get(AUTHKEY_ENV_VAR) or None
    )
    return None if key is None else _coerce_authkey(key)


def resolve_authkey(explicit: str | bytes | None) -> tuple[bytes, str | None]:
    """Pick a serving side's shared secret: explicit argument, then the
    environment, then a fresh random key.

    Returns ``(key_bytes, token)`` where ``token`` is the printable form
    to embed in address tokens — set only for *generated* keys, so a
    secret the operator supplied out-of-band is never echoed back into
    printed addresses or logs.
    """
    key = supplied_authkey(explicit, "")
    if key is not None:
        return key, None
    token = secrets.token_hex(16)
    return token.encode("utf-8"), token


# -- the challenge pair --------------------------------------------------------


def _auth_digest(authkey: bytes, role: bytes, nonce: bytes) -> bytes:
    return hmac.new(authkey, role + nonce, "sha256").digest()


def deliver_challenge(sock: socket.socket, authkey: str | bytes) -> None:
    """Server half of the pre-pickle handshake: nonce out, client digest
    in, server proof out.  Raises :class:`MPIError` when the peer cannot
    authenticate — the caller must drop the connection *before* any
    frame is read, because frames unpickle."""
    authkey = _coerce_authkey(authkey)
    nonce = secrets.token_bytes(AUTH_NONCE_BYTES)
    sock.sendall(nonce)
    digest = codec.recv_exact(sock, AUTH_NONCE_BYTES)
    if digest is None or not hmac.compare_digest(
        digest, _auth_digest(authkey, b"client:", nonce)
    ):
        raise MPIError(
            "tcp handshake failed: peer could not authenticate "
            "(wrong or missing authkey)"
        )
    sock.sendall(_auth_digest(authkey, b"server:", nonce))


def answer_challenge(sock: socket.socket, authkey: str | bytes) -> bool:
    """Client half of the handshake.  ``False`` when the server hung up
    before issuing a challenge (it is gone, not hostile); raises
    :class:`MPIError` when the server rejects the key — the mutual proof
    also stops this side from unpickling frames from an impostor."""
    authkey = _coerce_authkey(authkey)
    try:
        nonce = codec.recv_exact(sock, AUTH_NONCE_BYTES)
        if nonce is None:
            return False
        sock.sendall(_auth_digest(authkey, b"client:", nonce))
    except socket.timeout:
        raise  # a bounded handshake electing to give up, not a dead server
    except (MPIError, OSError):
        return False  # reset mid-challenge: the server is gone
    try:
        proof = codec.recv_exact(sock, AUTH_NONCE_BYTES)
    except socket.timeout:
        raise
    except (MPIError, OSError):
        # A server that rejected the digest closes without a word; the
        # client sees EOF or a reset exactly here.
        proof = None
    if proof is None or not hmac.compare_digest(
        proof, _auth_digest(authkey, b"server:", nonce)
    ):
        raise MPIError(
            "handshake rejected: authkey mismatch — the two sides are "
            "not sharing the same secret (join with the exact address "
            "token the server printed, or align the authkey environment "
            "variable on both sides)"
        )
    return True


# -- sockets: the only callers of the challenge pair ---------------------------


def listen_on(host: str, port: int, backlog: int) -> socket.socket:
    """A listening TCP socket on ``host:port`` (0 = ephemeral).  Bind
    failures propagate with nothing left open."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(backlog)
    except BaseException:
        listener.close()
        raise
    return listener


def accept_authenticated(
    listener: socket.socket, authkey: str | bytes, timeout: float
) -> socket.socket | None:
    """Accept one connection and challenge it before anything is read.

    Returns the trusted socket (Nagle off), or ``None`` for a peer that
    could not clear the challenge within ``timeout`` seconds (silent,
    wrong key, garbage, torn) — dropped with nothing deserialised; the
    bound is what stops one silent connection pinning a serial accept
    loop.  The returned socket still carries ``timeout`` so the peer's
    first message is bounded too; the caller goes ``settimeout(None)``
    after it.
    Failures of ``accept`` itself (listener timeout, closure) propagate,
    as does anything unexpected from the challenge — with the accepted
    connection closed first.
    """
    conn, _peer = listener.accept()
    try:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.settimeout(timeout)
        deliver_challenge(conn, authkey)
    except (MPIError, OSError):
        conn.close()
        return None
    except BaseException:
        conn.close()
        raise
    return conn


def connect_authenticated(
    address: tuple[str, int], authkey: str | bytes, timeout: float
) -> socket.socket | None:
    """Dial ``address`` and answer its challenge within ``timeout``.

    Returns the trusted socket in blocking mode with Nagle off (like its
    accepted peer), or ``None`` when the server hung up before
    challenging (it is gone, not hostile).  Raises a non-timeout
    :class:`OSError` when nothing accepted the connection,
    :class:`socket.timeout` when something accepted but never finished
    the handshake, and :class:`MPIError` on a key mismatch.
    """
    try:
        sock = socket.create_connection(address, timeout=timeout)
    except socket.timeout as exc:
        raise ConnectionError(
            f"connect to {format_address(address)} timed out"
        ) from exc
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if not answer_challenge(sock, authkey):
            sock.close()
            return None
        sock.settimeout(None)
    except BaseException:
        sock.close()
        raise
    return sock


# -- best-effort teardown ------------------------------------------------------


def close_quietly(*socks: socket.socket | None) -> None:
    """Close every socket given (``None`` slots skipped), ignoring what
    an already-torn connection raises on close."""
    for sock in socks:
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass


def try_send_frame(sock: socket.socket, kind: int, obj: Any = None) -> bool:
    """Send one frame to a peer that may already be gone; ``False`` when
    the socket is torn (whoever reads its EOF tells that story)."""
    try:
        codec.send_frame(sock, kind, obj=obj)
    except OSError:
        return False
    return True
