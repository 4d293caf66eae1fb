"""The authenticated channel (:mod:`repro.mpi.transport.channel`): one
hostile-peer suite over every listener that hands out readable sockets.

Frames unpickle, so the property each listener must hold is the same:
a peer that cannot clear the HMAC challenge is dropped within the
listener's bound with nothing deserialised, and the listener then still
admits a correctly keyed peer.  The suite crosses every hostile
behaviour with every listener — ``accept_authenticated`` itself, the
tcp rendezvous at generation 0 and during an elastic restart, and a
rank's pair listener that its higher-numbered peers dial.
"""

import hmac
import os
import secrets
import socket
import threading

import pytest

import repro.mpi.transport.channel as channel_module
import repro.mpi.transport.tcp as tcp_module
from repro.common.errors import MPIError
from repro.mpi.transport import TcpWorldServer, join_world, parse_address
from repro.mpi.transport.channel import (
    AUTH_NONCE_BYTES,
    AUTHKEY_ENV_VAR,
    accept_authenticated,
    close_quietly,
    connect_authenticated,
    format_address,
    listen_on,
    parse_authkey,
    resolve_authkey,
    supplied_authkey,
    try_send_frame,
)
from repro.mpi.transport.codec import (
    WIRE_HEADER,
    decode_payload,
    encode_payload,
    recv_exact,
    recv_frame,
    send_frame,
)
from repro.mpi.transport.tcp import KIND_REGISTER

KEY = b"the-shared-secret"

#: Every listener's stray bound is shrunk to this for the suite, so the
#: silent peer costs a fraction of a second per case.
STRAY_BOUND = 0.3

#: A hostile socket must see the listener hang up well inside this.
DROP_DEADLINE = 10.0


@pytest.fixture(autouse=True)
def _short_stray_bounds(monkeypatch):
    monkeypatch.delenv("REPRO_TCP_AUTHKEY", raising=False)
    monkeypatch.setattr(tcp_module, "_REGISTER_TIMEOUT", STRAY_BOUND)


class _EvilPayload:
    """Pickle whose deserialisation has a visible side effect — if the
    flag directory ever appears, unauthenticated bytes were unpickled."""

    def __init__(self, path: str):
        self.path = path

    def __reduce__(self):
        return (os.mkdir, (self.path,))


def _crafted_frame(kind: int, flag: str) -> bytes:
    """A complete, well-formed control frame carrying the canary."""
    fmt, parts, total = encode_payload(_EvilPayload(flag))
    return WIRE_HEADER.pack(kind, fmt, -1, 0, total) + b"".join(
        bytes(part) for part in parts
    )


# -- the hostile peers: what each does with its freshly dialled socket ---------
#    (``key`` is the listener's real secret, which only a replay may use)


def _silent(sock, kind, flag, key):
    pass  # port scan / health check: connects and says nothing


def _wrong_key(sock, kind, flag, key):
    nonce = recv_exact(sock, AUTH_NONCE_BYTES)
    sock.sendall(hmac.new(b"not-the-key", b"client:" + nonce, "sha256").digest())


def _garbage(sock, kind, flag, key):
    sock.sendall(b"GET / HTTP/1.1\r\nHost: probe\r\n\r\n" + bytes(range(64)))


def _eof_mid_challenge(sock, kind, flag, key):
    sock.sendall(b"half-a-digest")
    sock.shutdown(socket.SHUT_WR)


def _crafted_pickle(sock, kind, flag, key):
    sock.sendall(_crafted_frame(kind, flag))


def _digest_then_canary(sock, digest, kind, flag):
    """Answer the challenge with ``digest`` and follow it straight up
    with the crafted frame, as a peer expecting to be let in would."""
    try:
        sock.sendall(digest + _crafted_frame(kind, flag))
    except OSError:
        pass  # already hung up on: the outcome the suite asserts


def _reflected_nonce(sock, kind, flag, key):
    """Hands the listener its own nonce back as the digest."""
    _digest_then_canary(sock, recv_exact(sock, AUTH_NONCE_BYTES), kind, flag)


def _replayed_digest(sock, kind, flag, key):
    """A digest captured from an earlier, genuine handshake: right key,
    another nonce.  Only a fresh nonce per accept stops the replay."""
    recv_exact(sock, AUTH_NONCE_BYTES)
    captured = secrets.token_bytes(AUTH_NONCE_BYTES)
    _digest_then_canary(
        sock, hmac.new(key, b"client:" + captured, "sha256").digest(),
        kind, flag)


ATTACKS = {
    "silent": _silent,
    "wrong-key": _wrong_key,
    "garbage": _garbage,
    "eof-mid-challenge": _eof_mid_challenge,
    "crafted-pickle": _crafted_pickle,
    "reflected-nonce": _reflected_nonce,
    "replayed-digest": _replayed_digest,
}


def _was_dropped(sock: socket.socket) -> bool:
    """Did the listener hang up on ``sock``?  (Its nonce may still be
    queued ahead of the EOF.)"""
    sock.settimeout(DROP_DEADLINE)
    try:
        while sock.recv(4096):
            pass
    except socket.timeout:
        return False
    except OSError:
        pass  # a reset is a drop too
    return True


# -- the listeners: each lets `attack(address, kind, key)` strike, then proves
#    a correctly keyed peer is still admitted -----------------------------------


def _direct(attack, tmp_path, spawn_doomed_rank):
    listener = listen_on("127.0.0.1", 0, 8)
    try:
        address = listener.getsockname()[:2]
        hostile = attack(address, KIND_REGISTER, KEY)
        dialled: list[socket.socket | None] = []
        dialler = threading.Thread(target=lambda: dialled.append(
            connect_authenticated(address, KEY, DROP_DEADLINE)))
        dialler.start()
        assert accept_authenticated(listener, KEY, STRAY_BOUND) is None
        trusted = accept_authenticated(listener, KEY, DROP_DEADLINE)
        dialler.join(DROP_DEADLINE)
        try:
            assert trusted is not None and dialled[0] is not None
            send_frame(dialled[0], KIND_REGISTER, obj={"hello": "world"})
            assert recv_frame(trusted) == (KIND_REGISTER, 0, {"hello": "world"})
        finally:
            for sock in (trusted, *dialled):
                if sock is not None:
                    sock.close()
    finally:
        listener.close()
    return hostile


def _rendezvous(attack, tmp_path, spawn_doomed_rank):
    server = TcpWorldServer(world_size=1)
    hostile = attack(parse_address(server.address), KIND_REGISTER,
                     supplied_authkey(None, server.address))
    joiner = threading.Thread(
        target=join_world, args=(server.address, lambda comm: comm.rank),
        kwargs={"timeout": 30.0},
    )
    joiner.start()
    try:
        assert server.run(timeout=30.0) == [0]
    finally:
        joiner.join(10.0)
    return hostile


def _rendezvous_restart(attack, tmp_path, spawn_doomed_rank):
    """Rank 1 hard-exits in generation 0; the hostile peer strikes while
    the rendezvous is re-offering its slot, ahead of the replacement."""
    struck: list[socket.socket] = []
    threads: list[threading.Thread] = []

    def join(rank: int) -> None:
        threads.append(threading.Thread(
            target=join_world,
            args=(server.address, lambda comm: comm.gather(1)),
            kwargs={"rank": rank, "timeout": 30.0},
        ))
        threads[-1].start()

    def respawn(rank: int) -> None:
        struck.append(attack(parse_address(server.address), KIND_REGISTER,
                             supplied_authkey(None, server.address)))
        join(rank)

    server = TcpWorldServer(world_size=2, restarts=1, respawn=respawn)
    join(0)
    spawn_doomed_rank(server.address, rank=1)
    try:
        assert server.run(timeout=30.0) == [[1, 1], None]
    finally:
        for thread in threads:
            thread.join(10.0)
    assert len(struck) == 1
    return struck[0]


def _pair_fabric(attack, tmp_path, spawn_doomed_rank):
    """Rank 0's pair listener: the hostile peer is queued on it the moment
    it is bound, ahead of rank 1, which can only dial once rank 0 has
    registered and the address map is out."""
    server = TcpWorldServer(world_size=2)
    key = supplied_authkey(None, server.address)
    struck: list[socket.socket] = []
    ranks = [threading.Thread(
        target=join_world,
        args=(server.address, lambda comm: comm.gather(1)),
        kwargs={"rank": rank, "timeout": 30.0},
    ) for rank in (0, 1)]
    listen = channel_module.listen_on

    def listen_then_strike(host, port, backlog):
        listener = listen(host, port, backlog)
        if threading.current_thread() is ranks[0]:
            struck.append(attack(listener.getsockname()[:2], KIND_REGISTER,
                                 key))
        return listener

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(channel_module, "listen_on", listen_then_strike)
        for thread in ranks:
            thread.start()
        try:
            assert server.run(timeout=30.0) == [[1, 1], None]
        finally:
            for thread in ranks:
                thread.join(10.0)
    assert len(struck) == 1
    return struck[0]


LISTENERS = {
    "accept_authenticated": _direct,
    "rendezvous-generation-0": _rendezvous,
    "rendezvous-restart": _rendezvous_restart,
    "pair-fabric": _pair_fabric,
}


class TestHostilePeers:
    @pytest.mark.parametrize("listener", LISTENERS)
    @pytest.mark.parametrize("attack", ATTACKS)
    def test_dropped_unread_and_a_keyed_peer_is_still_admitted(
        self, attack, listener, tmp_path, spawn_doomed_rank
    ):
        flag = str(tmp_path / "pwned")
        misbehaving: list[threading.Thread] = []

        def strike(address, kind, key):
            # The connect completes through the backlog; the misbehaviour
            # runs beside the listener (a challenge only arrives once the
            # listener gets round to accepting).
            sock = socket.create_connection(address, timeout=DROP_DEADLINE)
            misbehaving.append(threading.Thread(
                target=ATTACKS[attack], args=(sock, kind, flag, key)))
            misbehaving[-1].start()
            return sock

        hostile = LISTENERS[listener](strike, tmp_path, spawn_doomed_rank)
        try:
            for thread in misbehaving:
                thread.join(DROP_DEADLINE)
            assert _was_dropped(hostile)
        finally:
            hostile.close()
        assert not os.path.exists(flag)

    def test_the_canary_fires_when_a_crafted_frame_is_decoded(self, tmp_path):
        """The suite's negative result means something only if the
        crafted frame *would* execute once it reached the frame layer."""
        flag = str(tmp_path / "pwned")
        frame = _crafted_frame(KIND_REGISTER, flag)
        _kind, fmt, _source, _tag, length = WIRE_HEADER.unpack(
            frame[:WIRE_HEADER.size])
        decode_payload(fmt, frame[WIRE_HEADER.size:])
        assert length == len(frame) - WIRE_HEADER.size
        assert os.path.isdir(flag)


class TestChannelContract:
    def test_authkey_precedence_is_explicit_then_token_then_env(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TCP_AUTHKEY", "from-env")
        token = "10.0.0.1:9997/from-token"
        assert supplied_authkey("explicit", token) == b"explicit"
        assert supplied_authkey(None, token) == b"from-token"
        assert supplied_authkey(None, "10.0.0.1:9997") == b"from-env"
        monkeypatch.delenv("REPRO_TCP_AUTHKEY")
        assert supplied_authkey(None, "10.0.0.1:9997") is None

    def test_an_empty_env_var_supplies_no_key(self, monkeypatch):
        """``REPRO_TCP_AUTHKEY=`` (set but empty) must not become the
        empty-string secret every keyless peer also holds."""
        monkeypatch.setenv(AUTHKEY_ENV_VAR, "")
        assert supplied_authkey(None, "10.0.0.1:9997") is None
        key, token = resolve_authkey(None)
        assert token is not None and key == token.encode()

    @pytest.mark.parametrize("explicit, env, printed", [
        ("explicit", None, False),
        (None, "from-env", False),
        (None, None, True),
    ], ids=["explicit", "env", "generated"])
    def test_a_served_key_is_printed_only_when_generated(
        self, monkeypatch, explicit, env, printed
    ):
        """A secret the operator supplied never comes back as a token to
        embed in printed addresses; a generated one must, or nobody could
        join."""
        if env is not None:
            monkeypatch.setenv(AUTHKEY_ENV_VAR, env)
        key, token = resolve_authkey(explicit)
        if printed:
            assert token is not None and len(token) == 32
            assert key == token.encode()
            assert resolve_authkey(None)[1] != token  # fresh per server
        else:
            assert token is None
            assert key == (explicit or env).encode()

    @pytest.mark.parametrize("token, address, key", [
        ("10.0.0.1:9997", ("10.0.0.1", 9997), None),
        ("10.0.0.1:9997/s3cret", ("10.0.0.1", 9997), "s3cret"),
        ("10.0.0.1:9997/", ("10.0.0.1", 9997), None),
        (("10.0.0.1", 9997), ("10.0.0.1", 9997), None),
    ], ids=["bare", "keyed", "empty-key", "tuple"])
    def test_address_tokens_split_into_address_and_key(
        self, token, address, key
    ):
        assert parse_address(token) == address
        assert parse_authkey(token) == key
        assert parse_address(format_address(address, key)) == address
        assert parse_authkey(format_address(address, key)) == key

    def test_accepted_socket_keeps_its_bound_and_dialled_one_blocks(self):
        """The accepted side still carries the handshake bound, so the
        peer's first message is bounded too; the dialled side is handed
        back blocking."""
        listener = listen_on("127.0.0.1", 0, 1)
        dialled: list[socket.socket | None] = []
        try:
            address = listener.getsockname()[:2]
            dialler = threading.Thread(target=lambda: dialled.append(
                connect_authenticated(address, KEY, DROP_DEADLINE)))
            dialler.start()
            accepted = accept_authenticated(listener, KEY, 1.5)
            dialler.join(DROP_DEADLINE)
            try:
                assert accepted is not None and dialled[0] is not None
                assert accepted.gettimeout() == 1.5
                assert dialled[0].gettimeout() is None
            finally:
                close_quietly(accepted, *dialled)
        finally:
            listener.close()

    def test_teardown_helpers_tolerate_torn_and_missing_sockets(self):
        left, right = socket.socketpair()
        right.close()
        sent = [try_send_frame(left, KIND_REGISTER, obj=bytes(1 << 20))
                for _ in range(2)]
        assert sent[-1] is False  # the peer is gone: no exception
        close_quietly(None, left, left)
        assert left.fileno() == -1

    def test_connect_reports_a_vanished_server_as_none(self):
        """A server that accepts and hangs up before challenging is gone,
        not hostile: ``None``, no exception."""
        listener = listen_on("127.0.0.1", 0, 1)
        try:
            address = listener.getsockname()[:2]
            closer = threading.Thread(
                target=lambda: listener.accept()[0].close())
            closer.start()
            assert connect_authenticated(address, KEY, DROP_DEADLINE) is None
            closer.join(DROP_DEADLINE)
        finally:
            listener.close()

    def test_connect_rejects_an_impostor_server(self):
        """The proof is mutual: a listener with the wrong key cannot get a
        client to treat its socket as trusted."""
        listener = listen_on("127.0.0.1", 0, 1)
        try:
            address = listener.getsockname()[:2]
            impostor = threading.Thread(
                target=accept_authenticated,
                args=(listener, b"some-other-key", DROP_DEADLINE))
            impostor.start()
            with pytest.raises(MPIError, match="mismatch"):
                connect_authenticated(address, KEY, DROP_DEADLINE)
            impostor.join(DROP_DEADLINE)
        finally:
            listener.close()

    def test_bind_failure_propagates_as_oserror(self):
        with pytest.raises(OSError):
            listen_on("203.0.113.7", 0, 1)

    def test_both_ends_of_a_pair_are_born_with_nagle_off(self):
        """Frames are one ``sendmsg`` each, so Nagle only ever costs: a
        second small frame waits out the peer's delayed-ACK timer."""
        listener = listen_on("127.0.0.1", 0, 1)
        dialled: list[socket.socket | None] = []
        try:
            address = listener.getsockname()[:2]
            dialler = threading.Thread(target=lambda: dialled.append(
                connect_authenticated(address, KEY, DROP_DEADLINE)))
            dialler.start()
            accepted = accept_authenticated(listener, KEY, DROP_DEADLINE)
            dialler.join(DROP_DEADLINE)
            try:
                assert accepted is not None and dialled[0] is not None
                for sock in (accepted, dialled[0]):
                    assert sock.getsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
            finally:
                for sock in (accepted, *dialled):
                    if sock is not None:
                        sock.close()
        finally:
            listener.close()

    def test_a_wrong_key_peer_leaves_no_open_fd_on_either_side(self):
        listener = listen_on("127.0.0.1", 0, 1)
        try:
            address = listener.getsockname()[:2]
            open_fds = len(os.listdir("/proc/self/fd"))
            rejected: list[BaseException] = []

            def dial() -> None:
                try:
                    connect_authenticated(address, b"not-the-key", DROP_DEADLINE)
                except MPIError as exc:
                    rejected.append(exc)

            dialler = threading.Thread(target=dial)
            dialler.start()
            assert accept_authenticated(listener, KEY, DROP_DEADLINE) is None
            dialler.join(DROP_DEADLINE)
            assert len(rejected) == 1
            assert len(os.listdir("/proc/self/fd")) == open_fds
        finally:
            listener.close()

    def test_accept_closes_the_connection_on_an_unexpected_error(
        self, monkeypatch
    ):
        """Only the two expected failure classes turn into ``None``, but
        nothing — a bug in the challenge, an interrupt — may leave the
        accepted fd open behind the exception."""
        def broken_challenge(sock, authkey):
            raise RuntimeError("challenge blew up")

        monkeypatch.setattr(
            "repro.mpi.transport.channel.deliver_challenge", broken_challenge)
        listener = listen_on("127.0.0.1", 0, 1)
        try:
            peer = socket.create_connection(
                listener.getsockname()[:2], timeout=DROP_DEADLINE)
            try:
                # Holding the traceback keeps the failed frame's locals
                # alive: only an explicit close can hang up on the peer.
                with pytest.raises(RuntimeError, match="blew up") as raised:
                    accept_authenticated(listener, KEY, DROP_DEADLINE)
                assert _was_dropped(peer)
                assert raised.type is RuntimeError
            finally:
                peer.close()
        finally:
            listener.close()
