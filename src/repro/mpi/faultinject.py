"""Deterministic fault injection for transports, jobs, and pools.

Recovery code is only trustworthy if its failure modes can be reproduced
on demand.  This module provides that reproduction: a :class:`FaultPlan`
is a list of rules, each naming an *action* (kill the rank, drop its
sockets, delay a receive, raise an error) and a *point* — a named
location inside the runtime (``rendezvous``, ``before-superstep``,
``shuffle``, ...) where instrumented code calls :func:`fire`.  The plan
travels with the job (via ``DataMPIConf.fault_plan``, transport kwargs,
or the ``REPRO_FAULT_PLAN`` environment variable) and fires *inside* the
rank at the exact instrumented point, so tests never sleep, poll, or
send signals from the outside.

Plan syntax (one rule per ``;``-separated clause)::

    action@point[:key=value]...

    kill@o-phase:rank=1:superstep=2
    drop@shuffle:rank=2
    delay@a-phase:rank=0:delay=0.05:count=3

Keys: ``rank`` (only fire on this rank; default any), ``superstep``
(only on this superstep; default any), ``count`` (fire at most N times
per process; default 1), ``delay`` (seconds, for the ``delay`` action).

Action semantics depend on where the rank runs:

- ``kill`` — in a dedicated rank *process* (shm / tcp children, external
  ``join_world`` ranks) the process hard-exits via ``os._exit`` without
  reporting an outcome, exactly like a machine loss.  In-process ranks
  (thread / inline transports) cannot be hard-killed without taking the
  whole interpreter down, so the action degrades to raising
  :class:`FaultInjected` — the transports' fail-fast abort path.
- ``drop`` — severs the rank's registered connections (a shm or tcp
  rank's endpoint registers a dropper that shuts its control + peer
  sockets down, so peers and the launcher observe EOF mid-protocol) and
  then behaves like ``kill``.  Without a registered dropper (thread and
  inline ranks) it degrades to ``kill`` directly.
- ``delay`` — sleeps ``delay`` seconds inside the rank, then continues.
- ``raise`` — raises :class:`FaultInjected` (a deterministic task-style
  failure that every transport must fail fast on).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.common.errors import MPIError

__all__ = [
    "ACTIONS",
    "FAULT_PLAN_ENV",
    "KILL_EXIT_CODE",
    "POINTS",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "clear",
    "fire",
    "install",
    "installed",
    "mark_killable",
    "parse_fault_plan",
    "register_dropper",
]

FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Exit status of a rank hard-killed by a ``kill``/``drop`` rule.  Chosen
#: high and unusual so supervisors can tell an injected death from a
#: genuine crash in tests, without any code treating it specially.
KILL_EXIT_CODE = 170

#: Every named location instrumented with a :func:`fire` call.
POINTS = frozenset(
    {
        "rendezvous",        # world formation (all transports)
        "before-superstep",  # rank loop, before running superstep N
        "after-superstep",   # rank loop, after superstep N completed
        "checkpoint-write",  # root rank, just before persisting iteration state
        "o-phase",           # inside an O task invocation
        "a-phase",           # inside an A task invocation
        "shuffle",           # O-side send path, mid chunk scatter
        "pool-submit",       # WorldPool serving loop, job received
    }
)

ACTIONS = frozenset({"kill", "drop", "delay", "raise"})


class FaultInjected(MPIError):
    """Raised (or reported) when a fault-plan rule fires in-process."""


@dataclass
class FaultRule:
    """One ``action@point`` clause of a fault plan."""

    action: str
    point: str
    rank: int | None = None
    superstep: int | None = None
    count: int = 1
    delay: float = 0.0
    # Remaining firings in *this* process; never encoded on the wire.
    remaining: int = field(default=-1, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise MPIError(
                f"unknown fault action {self.action!r} "
                f"(expected one of {sorted(ACTIONS)})"
            )
        if self.point not in POINTS:
            raise MPIError(
                f"unknown fault point {self.point!r} "
                f"(expected one of {sorted(POINTS)})"
            )
        if self.count < 1:
            raise MPIError(f"fault rule count must be >= 1, got {self.count}")
        if self.delay < 0:
            raise MPIError(f"fault rule delay must be >= 0, got {self.delay}")
        if self.action == "delay" and self.delay == 0.0:
            raise MPIError("delay action needs delay=<seconds> > 0")
        if self.remaining < 0:
            self.remaining = self.count

    def matches(self, point: str, rank: int | None,
                superstep: int | None) -> bool:
        if self.remaining <= 0 or point != self.point:
            return False
        if self.rank is not None and rank != self.rank:
            return False
        if self.superstep is not None and superstep != self.superstep:
            return False
        return True

    def encode(self) -> str:
        parts = [f"{self.action}@{self.point}"]
        if self.rank is not None:
            parts.append(f"rank={self.rank}")
        if self.superstep is not None:
            parts.append(f"superstep={self.superstep}")
        if self.count != 1:
            parts.append(f"count={self.count}")
        if self.delay:
            parts.append(f"delay={self.delay:g}")
        return ":".join(parts)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of fault rules, portable across process boundaries."""

    rules: tuple[FaultRule, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        rules: list[FaultRule] = []
        for clause in text.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            head, _, tail = clause.partition(":")
            action, sep, point = head.partition("@")
            if not sep or not action or not point:
                raise MPIError(
                    f"bad fault clause {clause!r}: expected action@point[...]"
                )
            kwargs: dict[str, Any] = {}
            if tail:
                for pair in tail.split(":"):
                    key, sep, value = pair.partition("=")
                    key = key.strip()
                    if not sep or key not in {
                        "rank", "superstep", "count", "delay",
                    }:
                        raise MPIError(
                            f"bad fault option {pair!r} in {clause!r}"
                        )
                    try:
                        kwargs[key] = (
                            float(value) if key == "delay" else int(value)
                        )
                    except ValueError:
                        raise MPIError(
                            f"bad fault option value {pair!r} in {clause!r}"
                        ) from None
            rules.append(
                FaultRule(action=action.strip(), point=point.strip(), **kwargs)
            )
        return cls(rules=tuple(rules))

    def encode(self) -> str:
        return ";".join(rule.encode() for rule in self.rules)

    def fresh(self) -> "FaultPlan":
        """A copy with every rule's firing budget reset."""
        return FaultPlan(
            rules=tuple(replace(r, remaining=r.count) for r in self.rules)
        )


def parse_fault_plan(spec: "FaultPlan | str | None") -> FaultPlan | None:
    """Coerce a plan spec (plan object, DSL string, or None) to a plan."""
    if spec is None:
        return None
    if isinstance(spec, FaultPlan):
        return spec
    if isinstance(spec, str):
        plan = FaultPlan.parse(spec)
        return plan if plan.rules else None
    raise MPIError(f"not a fault plan: {spec!r}")


# -- per-process injector state -----------------------------------------------

_plan: FaultPlan | None = None
_env_checked = False
_killable = False
_droppers: list[Callable[[], None]] = []
# Thread-transport ranks share one plan: matching + budget decrement must
# be atomic so a count=1 rule cannot fire on two racing ranks.
_fire_lock = threading.Lock()


def install(spec: "FaultPlan | str | None") -> FaultPlan | None:
    """Install ``spec`` as this process's active plan (None clears it).

    Each install gets a fresh copy so firing budgets never leak between
    runs that share one plan object.
    """
    global _plan, _env_checked
    plan = parse_fault_plan(spec)
    _plan = plan.fresh() if plan is not None else None
    _env_checked = True  # an explicit install wins over the environment
    return _plan


def installed() -> FaultPlan | None:
    """The active plan, consulting ``REPRO_FAULT_PLAN`` once if unset."""
    global _plan, _env_checked
    if not _env_checked:
        _env_checked = True
        text = os.environ.get(FAULT_PLAN_ENV, "").strip()
        if text and _plan is None:
            _plan = FaultPlan.parse(text).fresh()
    return _plan


def clear() -> None:
    """Remove the active plan, droppers, and the killable mark."""
    global _plan, _env_checked, _killable
    _plan = None
    _env_checked = True
    _killable = False
    _droppers.clear()


def mark_killable() -> None:
    """Declare this process a dedicated rank process, safe to hard-exit.

    Transports call this in their forked children (and ``join_world``
    calls it for external ranks).  Without the mark, ``kill`` rules
    degrade to raising :class:`FaultInjected` so a thread- or
    inline-transport rank never takes the host interpreter down.
    """
    global _killable
    _killable = True


def register_dropper(dropper: Callable[[], None]) -> Callable[[], None]:
    """Register a callable that severs this rank's live connections.

    Returns an unregister callable.  TCP endpoints register one closing
    their control and peer sockets so a ``drop`` rule produces real
    mid-protocol EOFs on every peer.
    """
    _droppers.append(dropper)

    def unregister() -> None:
        try:
            _droppers.remove(dropper)
        except ValueError:
            pass

    return unregister


def fire(point: str, *, rank: int | None = None,
         superstep: int | None = None) -> None:
    """Trigger any matching rules at an instrumented point.

    Near-free when no plan is installed.  ``kill``/``drop`` either
    hard-exit the process or raise :class:`FaultInjected`; ``delay``
    sleeps and returns; ``raise`` raises.
    """
    plan = _plan if _env_checked else installed()
    if plan is None:
        return
    matched: list[FaultRule] = []
    with _fire_lock:
        for rule in plan.rules:
            if not rule.matches(point, rank, superstep):
                continue
            rule.remaining -= 1
            matched.append(rule)
    for rule in matched:
        _execute(rule, point, rank)


def _execute(rule: FaultRule, point: str, rank: int | None) -> None:
    who = f"rank {rank}" if rank is not None else "this rank"
    if rule.action == "delay":
        time.sleep(rule.delay)
        return
    if rule.action == "raise":
        raise FaultInjected(
            f"fault plan raised at {point} on {who}"
        )
    if rule.action == "drop":
        for dropper in list(_droppers):
            try:
                dropper()
            except Exception:
                pass
    # kill, and drop's aftermath: die without reporting an outcome.
    if _killable:
        os._exit(KILL_EXIT_CODE)
    raise FaultInjected(
        f"fault plan killed {who} at {point} "
        "(in-process transport: degraded to fail-fast abort)"
    )
