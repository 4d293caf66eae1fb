"""Shared fixtures for the test suite."""

import os
import socket
import subprocess
import sys
import time

import pytest

from repro.mpi import faultinject


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: a test that takes seconds, not milliseconds"
    )


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan():
    """Fault plans are per-process state installed by transports; a test
    that dies mid-run must not poison the next test's process."""
    faultinject.clear()
    yield
    faultinject.clear()


@pytest.fixture
def wait_until():
    """Deadline-bounded polling: ``wait_until(lambda: pred())``.

    Polls ``predicate`` until it returns truthy or ``timeout`` seconds
    pass, then fails the test with ``message``.  Returns the predicate's
    final (truthy) value.  This is the RPL004-sanctioned replacement for
    bare ``time.sleep`` polling loops: the wait is bounded, fails loudly,
    and wakes as soon as the condition holds.
    """

    def wait(predicate, timeout: float = 5.0, interval: float = 0.01,
             message: str | None = None):
        deadline = time.monotonic() + timeout
        while True:
            value = predicate()
            if value:
                return value
            if time.monotonic() >= deadline:
                pytest.fail(
                    message
                    or f"condition {predicate!r} not met within {timeout}s"
                )
            # Deadline-bounded by construction; this fixture IS the
            # sanctioned polling helper.
            time.sleep(interval)  # repro: allow[RPL004]

    return wait


@pytest.fixture
def free_port():
    """A callable probing a currently-free localhost TCP port.

    Probing cannot *reserve* the port — another process may grab it
    between the probe closing and the consumer binding — so callers
    that bind the returned port should go through ``bind_retry``.
    """

    def probe() -> int:
        with socket.socket() as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(("127.0.0.1", 0))
            return sock.getsockname()[1]

    return probe


@pytest.fixture
def bind_retry(free_port):
    """Run ``attempt(port)`` with freshly probed ports until one binds.

    ``attempt`` receives a probed free port and must raise (any
    exception whose message contains the platform's EADDRINUSE text) if
    the port was stolen in the probe/bind window; any other failure
    propagates immediately.
    """

    def run(attempt, tries: int = 5):
        last: Exception | None = None
        for _ in range(tries):
            port = free_port()
            try:
                return attempt(port)
            except Exception as exc:
                if "address already in use" not in str(exc).lower():
                    raise
                last = exc
        assert last is not None
        raise last

    return run


_DOOMED_RANK_SCRIPT = """
import os, sys
sys.path.insert(0, {src!r})
from repro.mpi.transport import join_world

join_world({address!r}, lambda comm: os._exit(3), rank={rank})
"""


@pytest.fixture
def spawn_doomed_rank():
    """``spawn(address, rank)``: a separate process that joins the tcp
    world at ``address`` as ``rank`` and hard-exits inside ``main`` — no
    outcome, no goodbye; the launcher only sees its sockets close.  The
    deterministic way to push a world into a restart from test code."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    spawned: list[subprocess.Popen] = []

    def spawn(address: str, rank: int) -> subprocess.Popen:
        script = _DOOMED_RANK_SCRIPT.format(src=src, address=address,
                                            rank=rank)
        spawned.append(subprocess.Popen([sys.executable, "-c", script]))
        return spawned[-1]

    yield spawn
    for process in spawned:
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
