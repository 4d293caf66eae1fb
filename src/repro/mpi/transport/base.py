"""Transport abstraction: how ranks execute and exchange messages.

The paper attributes DataMPI's wins to its communication layer (bipartite
key-value movement over MVAPICH2).  This package makes the runtime's
communication substrate *pluggable* so the same ``Comm`` programming
interface (send/recv/collectives) can run over interchangeable backends:

* ``thread`` — ranks are threads in one process (the original substrate;
  cheap, but the GIL serialises the hot path);
* ``shm``    — ranks are OS processes exchanging chunk payloads through
  ``multiprocessing.shared_memory`` ring buffers (true parallelism);
* ``inline`` — ranks are cooperatively scheduled one at a time in
  deterministic rank order (reproducible unit testing);
* ``tcp``    — ranks are processes exchanging length-prefixed message
  frames over one socket pair per rank pair, on one host or many.

A backend provides two things: a :class:`Transport` whose one method,
``run``, executes one callable per rank and returns their results once
every rank is reaped, and per-rank :class:`Endpoint` objects
implementing point-to-point ``send``/``recv`` with MPI's
per-(source, destination) non-overtaking guarantee.  ``Comm`` builds
every collective, barrier included, on top of those two, so all backends
share one semantics.
"""

from __future__ import annotations

import inspect
import os
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable

from repro.common.errors import MPIError
from repro.mpi import faultinject

ANY_SOURCE = -1
ANY_TAG = -1

#: Default seconds a blocking receive waits before declaring deadlock.
RECV_TIMEOUT = 120.0

#: Hard limit on a single SPMD run; generous for in-process workloads.
JOIN_TIMEOUT = 300.0

#: Environment variable overriding the default backend name.
TRANSPORT_ENV_VAR = "REPRO_TRANSPORT"

DEFAULT_TRANSPORT = "thread"


@dataclass(frozen=True)
class Message:
    """One delivered message."""

    source: int
    tag: int
    payload: Any


def match(message: Message, source: int, tag: int) -> bool:
    """Does ``message`` satisfy a selective receive for (source, tag)?"""
    if source not in (ANY_SOURCE, message.source):
        return False
    if tag not in (ANY_TAG, message.tag):
        return False
    return True


class Endpoint(ABC):
    """One rank's handle on a transport: point-to-point send and receive.

    Implementations must preserve FIFO delivery per (source, destination)
    pair — MPI's non-overtaking guarantee — and support selective receive
    by (source, tag) with ``ANY_SOURCE`` / ``ANY_TAG`` wildcards.  A
    blocked ``recv`` must fail promptly once a peer rank dies, since every
    collective waits there.
    """

    rank: int
    size: int

    @abstractmethod
    def send(self, dest: int, message: Message) -> None:
        """Deliver ``message`` to ``dest``: buffered without bound on thread
        and inline, up to the ring on shm and the socket buffers on tcp;
        past that, the send waits for ``dest`` to receive or finish."""

    @abstractmethod
    def recv(self, source: int, tag: int, timeout: float) -> Message:
        """Block until a matching message arrives; raise MPIError on timeout."""


class PolledEndpoint(Endpoint):
    """A process rank's endpoint, receiving on the rank's own thread:
    ``recv`` returns the first stashed message that matches, and until one
    does it hands the time left to :meth:`_poll`."""

    def __init__(self) -> None:
        self._stash: list[Message] = []
        self._aborted = False

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

    @abstractmethod
    def _poll(self, timeout: float) -> None:
        """Wait up to ``timeout`` seconds for the fabric, then stash every
        message that arrived (and note a peer's death in ``_aborted``)."""


class Transport(ABC):
    """One backend's launcher: ``run`` executes ``main`` on every rank.

    ``run`` blocks until the world is over, which is all a caller needs:
    a long-lived world (a serving pool) calls it from a thread of its own
    and feeds the live ranks through channels it created beforehand.
    """

    #: Registry key; subclasses must override.
    name: str = ""

    @abstractmethod
    def run(
        self,
        world_size: int,
        main: Callable[..., Any],
        args: tuple = (),
        timeout: float = JOIN_TIMEOUT,
    ) -> list[Any]:
        """Run ``main(comm, *args)`` on ``world_size`` ranks; results by rank.

        If any rank raises, the lowest-rank exception is re-raised in the
        caller (wrapped in :class:`MPIError` unless it already is one)
        after every rank has been reaped, so no rank leaks.
        """


_REGISTRY: dict[str, type[Transport]] = {}


def register_transport(cls: type[Transport]) -> type[Transport]:
    """Class decorator adding a backend to the registry (by ``cls.name``)."""
    if not cls.name:
        raise MPIError(f"transport class {cls.__name__} has no name")
    _REGISTRY[cls.name] = cls
    return cls


def available_transports() -> tuple[str, ...]:
    """Registered backend names, sorted for stable CLI help/choices."""
    return tuple(sorted(_REGISTRY))


def default_transport_name() -> str:
    """Backend used when none is requested (``REPRO_TRANSPORT`` or thread)."""
    return os.environ.get(TRANSPORT_ENV_VAR, DEFAULT_TRANSPORT)


def get_transport(spec: str | Transport | None = None, **kwargs: Any) -> Transport:
    """Resolve a backend: an instance passes through, a name is constructed,
    ``None`` means the default.

    This is the transport layer's connect entry point — everything that
    launches ranks (``mpi_run``, the job drivers) goes through it.

    Backend options (e.g. the tcp backend's ``hosts=``/``port=``) pass
    through as keyword arguments; an option the chosen backend does not
    accept raises :class:`MPIError` naming both, instead of silently
    dropping it or surfacing a bare ``TypeError``.

    Examples:
        >>> from repro.mpi.transport import available_transports, get_transport
        >>> available_transports()
        ('inline', 'shm', 'tcp', 'thread')
        >>> get_transport("inline").name
        'inline'
        >>> transport = get_transport("inline")
        >>> get_transport(transport) is transport  # instances pass through
        True
        >>> get_transport("thread", hosts="a,b")
        Traceback (most recent call last):
            ...
        repro.common.errors.MPIError: transport 'thread' does not accept option(s) 'hosts'; accepted option(s): fault_plan
    """
    if isinstance(spec, Transport):
        if kwargs:
            raise MPIError(
                f"transport options {sorted(kwargs)} cannot be applied to an "
                f"already-constructed {spec.name!r} transport instance"
            )
        return spec
    name = spec or default_transport_name()
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise MPIError(
            f"unknown transport {name!r}; available: {available_transports()}"
        ) from None
    _check_transport_kwargs(name, cls, kwargs)
    return cls(**kwargs)


def _check_transport_kwargs(
    name: str, cls: type[Transport], kwargs: dict[str, Any]
) -> None:
    """Reject options the backend's constructor does not accept, by name."""
    if not kwargs:
        return
    if cls.__init__ is object.__init__:  # backend defines no constructor
        raise MPIError(
            f"transport {name!r} does not accept option(s) "
            f"{', '.join(repr(k) for k in sorted(kwargs))}; it takes no options"
        )
    parameters = inspect.signature(cls.__init__).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()):
        return
    accepted = [
        param for param, spec in parameters.items()
        if param != "self" and spec.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        )
    ]
    unknown = sorted(set(kwargs) - set(accepted))
    if unknown:
        takes = (
            f"accepted option(s): {', '.join(sorted(accepted))}"
            if accepted else "it takes no options"
        )
        raise MPIError(
            f"transport {name!r} does not accept option(s) "
            f"{', '.join(repr(k) for k in unknown)}; {takes}"
        )


def world_generation(comm: Any) -> int:
    """Which incarnation of the world ``comm`` belongs to (0 = original).

    Transports that support elastic recovery (tcp) bump their endpoints'
    ``generation`` each time the world is re-formed after a rank death;
    every other backend has no such attribute and reports 0.  Rank code
    uses this to detect "I am re-running after a restart" and resume from
    its last checkpoint instead of its initial state.
    """
    return int(getattr(getattr(comm, "endpoint", None), "generation", 0))


class PoisonedError(MPIError):
    """A blocked rank was woken because a peer rank died: a symptom, which
    :func:`raise_rank_errors` never reports in place of a cause."""


def raise_rank_errors(
    errors: list[tuple[int, BaseException]],
    unfinished: MPIError | None = None,
) -> None:
    """Re-raise the run's failure, MPIError-wrapped (shared by backends).

    The lowest-rank *cause* — an error that is not poison — wins.  Failing
    that, ``unfinished`` (the run's deadline passed with ranks still
    running): a deadline never hides the error that caused it, and poison
    alone does not explain one.  Failing that, the lowest-rank symptom.
    """
    causes = [item for item in errors if not isinstance(item[1], PoisonedError)]
    if unfinished is not None and not causes:
        raise unfinished
    if not errors:
        return
    rank, cause = min(causes or errors, key=lambda item: item[0])
    if isinstance(cause, MPIError) or not isinstance(cause, Exception):
        raise cause
    raise MPIError(f"rank {rank} failed: {cause!r}") from cause


def run_rank_threads(
    world_size: int,
    rank_main: Callable[[int], Any],
    prefix: str,
    timeout: float,
    fault_plan: "faultinject.FaultPlan | None",
    drive: Callable[[float], None] | None = None,
) -> list[Any]:
    """The in-process launcher: ``rank_main(rank)`` on one daemon thread
    per rank, results by rank.

    ``fault_plan`` lives in the host interpreter for the run (where kills
    degrade to raises).  ``drive(deadline)`` runs on the calling thread
    once the ranks have started (the inline scheduler) and returns when
    they are done or the deadline has passed.  The run has one deadline;
    what is raised past it is :func:`raise_rank_errors`' decision.
    """
    results: list[Any] = [None] * world_size
    errors: list[tuple[int, BaseException]] = []
    errors_lock = threading.Lock()

    def runner(rank: int) -> None:
        try:
            results[rank] = rank_main(rank)
        except BaseException as exc:  # noqa: BLE001 - re-raised in caller
            with errors_lock:
                errors.append((rank, exc))

    threads = [
        threading.Thread(target=runner, args=(rank,), name=f"{prefix}-{rank}", daemon=True)
        for rank in range(world_size)
    ]
    deadline = time.monotonic() + timeout
    if fault_plan is not None:
        faultinject.install(fault_plan)
    try:
        for thread in threads:
            thread.start()
        if drive is not None:
            drive(deadline)
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
    finally:
        if fault_plan is not None:
            faultinject.clear()
    stuck = [rank for rank, thread in enumerate(threads) if thread.is_alive()]
    with errors_lock:
        reported = list(errors)
    unfinished = MPIError(f"ranks {stuck} did not finish in {timeout}s") if stuck else None
    raise_rank_errors(reported, unfinished)
    return results
