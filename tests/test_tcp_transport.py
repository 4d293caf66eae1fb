"""TCP-transport specifics: framing, address specs, multi-process worlds,
and externally joined ranks (the separate-machines code path).

The shared-semantics and equivalence guarantees are covered by
``test_mpi_transports.py`` / ``test_transport_equivalence.py`` (tcp is in
their transport lists); this file pins what only this backend has: the
hosts/port options, the rendezvous, and the wire protocol.
"""

import os
import pickle
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.common.errors import MPIError
from repro.mpi import mpi_run
from repro.mpi.transport import (
    MAX_FRAME_BYTES,
    TcpTransport,
    TcpWorldServer,
    join_world,
    parse_address,
    parse_authkey,
    parse_hosts,
)
from repro.mpi.transport.codec import FMT_PICKLE, WIRE_HEADER, recv_frame, \
    send_frame
from repro.mpi.transport.tcp import KIND_REGISTER
from test_transport_failures import LONG_RECV, fail_fast

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Named test tags (RPL003: no literal ints at send/recv call sites).
TAG_BULK = 5
TAG_LATE = 9
TAG_CHUNK = 11
TAG_REPLY = 12


@pytest.fixture(autouse=True)
def _no_ambient_authkeys(monkeypatch):
    """An operator's exported authkey must not leak into the key
    generation / token-embedding assertions."""
    monkeypatch.delenv("REPRO_TCP_AUTHKEY", raising=False)


class TestSpecs:
    def test_parse_hosts_default_is_localhost(self):
        assert parse_hosts(None) == ["127.0.0.1"]

    def test_parse_hosts_comma_separated(self):
        assert parse_hosts("node-a, node-b,node-c") == \
            ["node-a", "node-b", "node-c"]

    def test_parse_hosts_sequence(self):
        assert parse_hosts(["x", "y"]) == ["x", "y"]

    def test_parse_hosts_empty_rejected(self):
        with pytest.raises(MPIError, match="empty hosts"):
            parse_hosts(" , ,")

    def test_ranks_assigned_round_robin(self):
        transport = TcpTransport(hosts="a,b")
        assert [transport.host_for_rank(r) for r in range(4)] == \
            ["a", "b", "a", "b"]

    def test_parse_address(self):
        assert parse_address("10.0.0.1:9997") == ("10.0.0.1", 9997)
        assert parse_address(("h", 80)) == ("h", 80)

    def test_parse_address_rejects_garbage(self):
        with pytest.raises(MPIError, match="HOST:PORT"):
            parse_address("no-port-here")
        with pytest.raises(MPIError, match="bad port"):
            parse_address("host:nan")
        with pytest.raises(MPIError, match="out of range"):
            parse_address("host:70000")

    def test_bad_port_rejected_at_construction(self):
        with pytest.raises(MPIError, match="port out of range"):
            TcpTransport(port=-1)

    @pytest.mark.parametrize("port", [-1, 65536])
    def test_world_server_rejects_a_bad_port_at_construction(self, port):
        with pytest.raises(MPIError, match="port out of range"):
            TcpWorldServer(world_size=2, port=port)

    def test_unreachable_bind_host_fails_loudly(self):
        """A hosts entry that is not an address of this machine must
        surface as an MPIError, not a hang."""
        with pytest.raises(MPIError, match="cannot bind|rendezvous"):
            TcpTransport(hosts="203.0.113.7").run(
                2, lambda comm: None, timeout=5.0
            )


class TestFraming:
    def test_frame_roundtrip(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, 1, tag=42, obj={"payload": b"x" * 100_000})
            kind, tag, obj = recv_frame(right)
            assert (kind, tag) == (1, 42)
            assert obj == {"payload": b"x" * 100_000}
        finally:
            left.close()
            right.close()

    def test_clean_eof_is_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert recv_frame(right) is None
        finally:
            right.close()

    def test_truncated_frame_raises(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, 1, tag=0, obj=b"y" * 4096)
            # Steal only half the frame, then cut the connection.
            right.recv(10)
            left.close()
            # A desynced stream surfaces either as a torn read or as a
            # garbage length field tripping the frame cap.
            with pytest.raises(MPIError, match="mid-frame|exceeds the"):
                while recv_frame(right) is not None:
                    pass
        finally:
            right.close()


class _EvilPayload:
    """Pickle whose deserialisation has a visible side effect — if the
    flag directory ever appears, unauthenticated bytes were unpickled."""

    def __init__(self, path: str):
        self.path = path

    def __reduce__(self):
        return (os.mkdir, (self.path,))


class TestAuthentication:
    """Frames carry pickle, so no connection may reach the frame layer
    without clearing the HMAC handshake, and hostile length fields must
    not demand unbounded buffers."""

    def test_address_token_carries_the_authkey(self):
        assert parse_address("10.0.0.1:9997/s3cret") == ("10.0.0.1", 9997)
        assert parse_authkey("10.0.0.1:9997/s3cret") == "s3cret"
        assert parse_authkey("10.0.0.1:9997") is None

    def test_generated_key_is_embedded_in_the_server_address(self):
        server = TcpWorldServer(world_size=1)
        try:
            assert parse_authkey(server.address) is not None
        finally:
            server._rendezvous.close()

    def test_supplied_key_is_not_echoed_into_the_address(self, monkeypatch):
        monkeypatch.setenv("REPRO_TCP_AUTHKEY", "shared-env-secret")
        server = TcpWorldServer(world_size=1)
        try:
            assert parse_authkey(server.address) is None
        finally:
            server._rendezvous.close()

    def test_join_requires_an_authkey(self):
        with pytest.raises(MPIError, match="requires its authkey"):
            join_world("127.0.0.1:9997", lambda comm: None)

    def test_env_var_supplies_the_key(self, monkeypatch):
        monkeypatch.setenv("REPRO_TCP_AUTHKEY", "shared-env-secret")
        server = TcpWorldServer(world_size=1)
        joiner = threading.Thread(
            target=join_world,
            args=(server.address, lambda comm: comm.gather(7)),
            kwargs={"timeout": 30.0},
        )
        joiner.start()
        assert server.run(timeout=30.0) == [[7]]
        joiner.join(10.0)

    def test_wrong_authkey_is_rejected(self):
        """A wrong-key joiner gets a loud mismatch error, and the world
        still forms once a correctly keyed rank arrives.  The bad join
        runs to completion *before* the good one starts, so the
        rendezvous is guaranteed to still be accepting when it
        challenges the wrong key."""
        server = TcpWorldServer(world_size=1)
        results: list[list] = []
        runner = threading.Thread(
            target=lambda: results.append(server.run(timeout=30.0))
        )
        runner.start()
        with pytest.raises(MPIError, match="mismatch"):
            join_world(parse_address(server.address), lambda comm: None,
                       authkey="not-the-key", timeout=10.0)
        assert join_world(server.address, lambda comm: comm.rank,
                          timeout=30.0) == 0
        runner.join(15.0)
        assert results == [[0]]

    def test_crafted_pickle_frame_is_never_unpickled(self, tmp_path):
        """A well-formed REGISTER frame with a code-executing payload,
        sent without answering the challenge, must be dropped before any
        byte of it is unpickled — and must not stop the world forming."""
        flag = str(tmp_path / "pwned")
        payload = pickle.dumps(_EvilPayload(flag))
        server = TcpWorldServer(world_size=1)
        attacker = socket.create_connection(parse_address(server.address))
        attacker.sendall(
            WIRE_HEADER.pack(KIND_REGISTER, FMT_PICKLE, 0, 0, len(payload))
            + payload
        )
        joiner = threading.Thread(
            target=join_world,
            args=(server.address, lambda comm: comm.rank),
            kwargs={"timeout": 30.0},
        )
        joiner.start()
        try:
            assert server.run(timeout=15.0) == [0]
        finally:
            attacker.close()
            joiner.join(10.0)
        assert not os.path.exists(flag)

    def test_oversized_frame_length_is_capped(self):
        left, right = socket.socketpair()
        try:
            left.sendall(
                WIRE_HEADER.pack(1, FMT_PICKLE, 0, 0, MAX_FRAME_BYTES + 1)
            )
            with pytest.raises(MPIError, match="exceeds the"):
                recv_frame(right)
        finally:
            left.close()
            right.close()


class TestProcessWorld:
    def test_ranks_are_distinct_processes(self):
        def main(comm):
            return comm.gather(os.getpid())

        pids = mpi_run(4, main, transport="tcp")[0]
        assert len(set(pids)) == 4
        assert os.getpid() not in pids

    def test_rank_pair_sockets_carry_bulk_payloads(self):
        blob = bytes(range(256)) * 2048  # 512 KiB

        def main(comm):
            if comm.rank == 0:
                for dest in range(1, comm.size):
                    comm.send(dest, blob, tag=TAG_BULK)
                return None
            return comm.recv(source=0, tag=TAG_BULK).payload == blob

        assert mpi_run(3, main, transport="tcp")[1:] == [True, True]

    def test_two_small_sends_then_a_reply_never_wait_on_a_timer(self):
        """A chunk, then its EOF, then the peer's answer — the shape of
        every small job.  With Nagle on, the second send sits behind the
        peer's delayed ACK (~40 ms a round, 2 s for these 50); a socket
        born anywhere but ``channel.py`` would bring that back."""
        rounds = 50

        def main(comm):
            started = time.perf_counter()
            for number in range(rounds):
                if comm.rank == 0:
                    comm.send(1, b"chunk", tag=TAG_CHUNK)
                    comm.send(1, b"", tag=TAG_CHUNK)
                    assert comm.recv(source=1, tag=TAG_REPLY).payload == number
                else:
                    comm.recv(source=0, tag=TAG_CHUNK)
                    comm.recv(source=0, tag=TAG_CHUNK)
                    comm.send(0, number, tag=TAG_REPLY)
            return time.perf_counter() - started

        assert max(mpi_run(2, main, transport="tcp")) < 1.0

    def test_finished_rank_keeps_fabric_alive_for_peers(self):
        """A rank returning early must not tear down its sockets while
        peers still exchange messages (teardown waits for the launcher's
        shutdown broadcast)."""

        def main(comm):
            if comm.rank == 0:
                return "early"  # finishes immediately
            if comm.rank == 1:
                comm.send(2, "late-message", tag=TAG_LATE)
                return None
            return comm.recv(source=1, tag=TAG_LATE, timeout=30.0).payload

        assert mpi_run(3, main, transport="tcp") == \
            ["early", None, "late-message"]

    def test_rank_receives_on_its_own_thread(self):
        """No helper thread reads a rank's sockets: ``recv`` does."""

        def main(comm):
            count = threading.active_count()
            comm.barrier()
            return count

        assert mpi_run(2, main, transport="tcp") == [1, 1]

    def test_explicit_rendezvous_port(self, bind_retry):
        # Probing cannot reserve the port, so the probe/bind window is
        # retried with a fresh port if another process steals it.
        def attempt(port: int):
            transport = TcpTransport(port=port)
            return mpi_run(2, lambda comm: comm.rank, transport=transport)

        assert bind_retry(attempt) == [0, 1]


_JOIN_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.mpi.transport import join_world

def main(comm, base):
    return comm.gather(base + comm.rank)

print("result", join_world({address!r}, main, args=(10,)))
"""


class TestExternalJoin:
    """Ranks in *separately launched* processes — no fork inheritance, so
    this exercises exactly the wire protocol separate machines would."""

    def _spawn_joiner(self, address: str) -> subprocess.Popen:
        script = _JOIN_SCRIPT.format(
            src=os.path.join(REPO_ROOT, "src"), address=address
        )
        return subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )

    def test_world_of_external_processes(self):
        world_size = 3
        server = TcpWorldServer(world_size=world_size)
        joiners = [self._spawn_joiner(server.address)
                   for _ in range(world_size)]
        results = server.run(timeout=60.0)
        expected = [10 + rank for rank in range(world_size)]
        assert results == [expected] + [None] * (world_size - 1)
        printed = []
        for process in joiners:
            output, _ = process.communicate(timeout=30)
            assert process.returncode == 0, output
            printed.append(output.split("result ", 1)[1].strip())
        assert sorted(printed) == ["None", "None", repr(expected)]

    def test_mixed_local_thread_and_external_rank(self):
        """join_world from a plain thread of this process (what a worker
        embedded in another program would do)."""
        server = TcpWorldServer(world_size=2)
        joined: dict[int, int] = {}

        def joiner(slot: int) -> None:
            joined[slot] = join_world(
                server.address, lambda comm: comm.gather(1), timeout=30.0
            )

        threads = [threading.Thread(target=joiner, args=(slot,))
                   for slot in range(2)]
        for thread in threads:
            thread.start()
        assert server.run(timeout=30.0) == [[1, 1], None]
        for thread in threads:
            thread.join(10.0)
        assert sorted(joined.values(), key=repr) == [None, [1, 1]]

    def test_joined_rank_failure_propagates_to_server(self):
        server = TcpWorldServer(world_size=2)

        def joiner(fail: bool) -> None:
            def main(comm):
                if fail:
                    raise ValueError("joined rank exploded")
                comm.recv(source=1 - comm.rank, timeout=30.0)

            try:
                join_world(server.address, main, rank=0 if fail else 1,
                           timeout=30.0)
            except Exception:
                pass  # asserted via the server below

        threads = [threading.Thread(target=joiner, args=(fail,))
                   for fail in (True, False)]
        for thread in threads:
            thread.start()
        with pytest.raises(MPIError, match="joined rank exploded"):
            server.run(timeout=30.0)
        for thread in threads:
            thread.join(10.0)

    def test_failing_replacement_rank_fails_the_restart_at_once(
        self, spawn_doomed_rank
    ):
        """A replacement that cannot even bind its peer listener reports
        its error *before* registering.  The restart must fail right then
        with that error — as generation 0 always did — not wait out the
        world deadline and report slots that "never re-filled"."""
        replacements: list[threading.Thread] = []

        def quiet_join(**kwargs) -> None:
            try:
                join_world(server.address, lambda comm: comm.gather(1),
                           timeout=LONG_RECV, **kwargs)
            except MPIError:
                pass  # asserted via the server below

        def respawn(rank: int) -> None:
            replacements.append(threading.Thread(
                target=quiet_join,
                kwargs={"rank": rank, "bind_host": "203.0.113.7"},
            ))
            replacements[-1].start()

        server = TcpWorldServer(world_size=2, restarts=1, respawn=respawn)
        survivor = threading.Thread(target=quiet_join, kwargs={"rank": 0})
        survivor.start()
        spawn_doomed_rank(server.address, rank=1)
        try:
            with fail_fast(), pytest.raises(MPIError, match="cannot bind"):
                server.run(timeout=LONG_RECV)
        finally:
            for thread in (survivor, *replacements):
                thread.join(30.0)
        assert len(replacements) == 1

    def test_join_without_a_server_fails_at_once(self):
        """Nothing listening: the refused connect surfaces right away,
        not after the join deadline."""
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        started = time.monotonic()
        with pytest.raises(OSError):
            join_world(f"127.0.0.1:{port}/key", lambda comm: comm.rank,
                       timeout=30.0)
        assert time.monotonic() - started < 10.0

    def test_join_against_a_mute_listener_times_out_instead_of_hanging(self):
        """A listener that completes the connect (through its backlog) but
        never challenges holds the joiner for its timeout, no longer."""
        mute = socket.create_server(("127.0.0.1", 0))
        try:
            host, port = mute.getsockname()[:2]
            started = time.monotonic()
            with pytest.raises(socket.timeout):
                join_world(f"{host}:{port}/key", lambda comm: comm.rank,
                           timeout=0.5)
            assert time.monotonic() - started < 10.0
        finally:
            mute.close()

    def test_server_hanging_up_before_the_challenge_is_one_error(self):
        listener = socket.create_server(("127.0.0.1", 0))
        try:
            host, port = listener.getsockname()[:2]
            closer = threading.Thread(
                target=lambda: listener.accept()[0].close())
            closer.start()
            with pytest.raises(MPIError, match="hung up before the handshake"):
                join_world(f"{host}:{port}/key", lambda comm: comm.rank,
                           timeout=10.0)
            closer.join(10.0)
        finally:
            listener.close()

    def test_rendezvous_times_out_when_ranks_never_join(self):
        server = TcpWorldServer(world_size=2)
        with pytest.raises(MPIError, match="rendezvous incomplete"):
            server.run(timeout=1.0)

    def test_silent_stray_connection_does_not_wedge_rendezvous(self):
        """A connection that never sends a registration (port scan,
        health check) must not block the world from forming, nor pin
        the rendezvous past its deadline."""
        server = TcpWorldServer(world_size=1)
        host, port = parse_address(server.address)
        stray = socket.create_connection((host, port))
        try:
            joiner = threading.Thread(
                target=join_world,
                args=(server.address, lambda comm: comm.rank),
                kwargs={"timeout": 30.0},
            )
            joiner.start()
            assert server.run(timeout=10.0) == [0]
            joiner.join(10.0)
        finally:
            stray.close()
