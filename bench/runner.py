"""One end-to-end run: set-up, warm-ups, timed jobs, checks, leak check.

A run is one driver process with one thread and, where there is a
client, one closed-loop client.  Cold jobs form and tear down their world
inside the timed region (users pay that on every cold run); forming the
warm pool is set-up.  Every job's output is checked against the oracle
between timed regions, never inside one.
"""

from __future__ import annotations

import gc
import math
import operator
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Iterator

from bench import ROOT
from bench.speed import SpeedGauge, driver_factor
from bench.workloads import SCALES, WORKLOADS, Workload

#: Spill files and nothing else go here; inside the checkout, git-ignored.
TMP_ROOT = ROOT / ".bench_tmp"

#: A job this slow has hung; fail it rather than the whole run's budget.
JOB_DEADLINE_S = 60

#: Between timed jobs the machine speed is gauged again once the last
#: calibration is this old: every job for cold jobs, every ~10th pooled one.
GAUGE_EVERY_S = 0.5

class JobTimeout(Exception):
    pass


@contextmanager
def deadline(seconds: int) -> Iterator[None]:
    """Raise :class:`JobTimeout` in the driver if the body outlives it."""
    def on_alarm(_signum: int, _frame: Any) -> None:
        raise JobTimeout(f"job exceeded {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# -- processes, CPU and memory -------------------------------------------------


def child_processes() -> dict[int, float]:
    """Live children of this process: pid -> user+sys CPU seconds so far.

    Found in ``/proc``: ``RUSAGE_CHILDREN`` only counts children already
    reaped, and the warm pool's ranks live across many jobs.  Their CPU is
    read from each one's CPU-time clock, all threads in nanoseconds:
    ``/proc/<pid>/stat`` counts 10 ms ticks, and a pooled rank burns about
    25 ms between two readings.
    """
    me = os.getpid()
    tracker = _resource_tracker_pid()
    children: dict[int, float] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        pid = int(entry)
        try:
            stat = Path("/proc", entry, "stat").read_text()
            # Fields after the parenthesised command name, which may hold spaces.
            state, ppid = stat[stat.rindex(")") + 2:].split()[:2]
            if int(ppid) != me or state == "Z" or pid == tracker:
                continue
            # The clock id clock_getcpuclockid(3) gives for another process.
            children[pid] = time.clock_gettime((~pid << 3) | 2)
        except OSError:
            continue  # exited between listdir and read
    return children


def _resource_tracker_pid() -> int | None:
    """multiprocessing's shared-memory tracker: a helper process the
    standard library keeps for the life of the driver, not a leak."""
    return getattr(resource_tracker._resource_tracker, "_pid", None)


def live_ranks_cpu(before: "ResourceSnapshot") -> float:
    """CPU seconds so far of the children started since ``before``."""
    return sum(cpu for pid, cpu in child_processes().items()
               if pid not in before.children)


def cpu_seconds() -> float:
    """User+sys CPU of the driver plus every reaped rank process."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mib() -> float:
    """Largest resident set of the driver or any reaped rank process."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


@contextmanager
def no_process_outlives() -> Iterator[None]:
    """Around the whole command: on every path out, every process it
    started has ended and been waited for before this one exits.

    That includes the resource tracker: it ends by itself once the
    driver's end of its pipe closes, but only *after* the driver has
    exited, and whoever started the driver then finds it still running.
    Ranks, gauge lanes and the tracker are all direct children of the
    driver, so its children are every process there is to stop.
    """
    try:
        yield
    finally:
        tracker = resource_tracker._resource_tracker
        if getattr(tracker, "_fd", None) is not None:
            os.close(tracker._fd)  # EOF: the tracker sweeps and exits
            tracker._fd = None
        while True:
            for pid in child_processes():
                os.kill(pid, signal.SIGKILL)
            try:
                reaped, _status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break  # no child left, zombie or alive
            if reaped == 0:
                time.sleep(0.002)


# -- leak check ----------------------------------------------------------------


@dataclass
class ResourceSnapshot:
    """What must look the same after a run as before it."""

    segments: set[str]
    threads: int
    children: set[int]

    @classmethod
    def take(cls) -> "ResourceSnapshot":
        shm = Path("/dev/shm")
        segments = {p.name for p in shm.glob("psm_*")} if shm.is_dir() else set()
        return cls(segments, threading.active_count(), set(child_processes()))

    def leaks_since(self, tmp_dir: Path) -> list[str]:
        """Name every resource that outlived the run."""
        now = ResourceSnapshot.take()
        leaks = [f"shared-memory segment /dev/shm/{name}"
                 for name in sorted(now.segments - self.segments)]
        leaks += [f"spill segment file {path}"
                  for path in sorted(tmp_dir.rglob("*.seg"))]
        leaks += [f"live child process {pid}"
                  for pid in sorted(now.children - self.children)]
        if now.threads > self.threads:
            leaks.append(f"{now.threads - self.threads} extra thread(s)")
        return leaks


# -- the run -------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile, up to the 95th, that still has ten samples
    beyond it (nearest rank), and which one that is.  With fewer than 20
    samples nothing above the median qualifies, so it is the median."""
    ordered = sorted(samples)
    fraction = max(0.5, min(0.95, 1 - 10 / len(ordered)))
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)], fraction


@dataclass
class JobLog:
    """Outcome of every job a run attempted."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)
    #: (started, ended) of every timed job, for the speed gauge.
    spans: list[tuple[float, float]] = field(default_factory=list)
    #: input key -> every distinct bytes_moved a job on that input reported.
    bytes_by_input: dict[int, set[int]] = field(default_factory=dict)

    def bytes_moved(self) -> float:
        """Mean over the distinct inputs; an input whose bytes do not
        repeat exactly is a failure (the counter is the network axis)."""
        for key, seen in sorted(self.bytes_by_input.items()):
            if len(seen) > 1:
                self.failures.append(
                    f"bytes_moved of input {key} does not repeat: {sorted(seen)}")
        return statistics.fmean(max(seen) for seen in self.bytes_by_input.values())


def run_job(workload: Workload, log: JobLog, *, timed: bool) -> Any:
    """Run and check one job; returns its result (None if it failed)."""
    gc.collect()
    log.attempted += 1
    cpu_before = cpu_seconds()
    started = time.perf_counter()
    try:
        with deadline(JOB_DEADLINE_S):
            result = workload.job()
    except Exception as exc:  # noqa: BLE001 - a failed job is a counted outcome
        log.failures.append(f"job raised {exc!r}")
        return None
    ended = time.perf_counter()
    cpu = cpu_seconds() - cpu_before
    problem = workload.check(result)
    if problem is not None:
        log.failures.append(problem)
        return None
    if timed:
        log.wall.append(ended - started)
        log.cpu.append(cpu)
        log.spans.append((started, ended))
        log.bytes_by_input.setdefault(workload.input_key(), set()).add(
            workload.bytes_moved(result))
    return result


@dataclass
class RunReport:
    """What one run prints: text lines, then the driver's JSON object."""

    workload: str
    seed: int
    scale: str
    metrics: dict[str, tuple[float, str, str]]  # name -> (value, unit, note)
    attempted: int
    failures: list[str]
    #: Printed beside the metrics, not part of the JSON object.
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def result(self) -> dict[str, Any]:
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _note) in self.metrics.items()},
        }


def prepared(name: str, seed: int, scale_name: str, tmp_dir: Path,
             repeats: int) -> tuple[Workload, float, float]:
    """Set the workload up ``repeats`` times; returns the last one, ready
    to run, and the median set-up time in calibrated and in raw seconds."""
    times = []
    raw = []
    for attempt in range(repeats):
        workload = WORKLOADS[name](SCALES[scale_name], seed, tmp_dir)
        before = driver_factor()
        started = time.perf_counter()
        workload.prepare()
        seconds = time.perf_counter() - started
        times.append(seconds / statistics.fmean((before, driver_factor())))
        raw.append(seconds)
        if attempt < repeats - 1:
            workload.close()
    return workload, statistics.median(times), statistics.median(raw)


@contextmanager
def run_scope(name: str) -> Iterator[tuple[Path, ResourceSnapshot]]:
    """A private spill directory and a before-picture for the leak check;
    on the way out no process this run started is left alive."""
    tmp_dir = TMP_ROOT / f"{name}-{os.getpid()}"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    before = ResourceSnapshot.take()
    try:
        yield tmp_dir, before
    finally:
        for pid in set(child_processes()) - before.children:
            os.kill(pid, signal.SIGKILL)
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass  # multiprocessing reaped it first
        shutil.rmtree(tmp_dir, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run's directory is still in it


def run_workload(name: str, seed: int, seconds: float,
                 scale_name: str = "full") -> RunReport:
    """The end-to-end pass (``--trace 0``) of one workload."""
    log = JobLog()
    # The gauge's lanes fork first, so the leak check's before-picture
    # holds them and the CPU accounting below can tell them from ranks.
    with SpeedGauge() as gauge, run_scope(name) as (tmp_dir, before):
        workload, setup_s, raw_setup_s = prepared(
            name, seed, scale_name, tmp_dir, SCALES[scale_name].setup_repeats)
        try:
            for _ in range(workload.warmups):
                run_job(workload, log, timed=False)
            gauge.sample()
            # Ranks that outlive a job (the warm pool's) are not in
            # RUSAGE_CHILDREN yet.  What they burn is read with every
            # calibration and shared among the jobs since the last one:
            # their CPU per job drifts by a third within seconds, and a
            # median over such slices stays where a whole-loop mean moves.
            live_cpu: list[float] = []
            ranks_cpu = live_ranks_cpu(before)
            loop_started = time.perf_counter()
            timing = True
            while timing:
                run_job(workload, log, timed=True)
                timing = (log.attempted - workload.warmups < workload.min_jobs
                          or time.perf_counter() - loop_started < seconds)
                if gauge.sample(min_gap=GAUGE_EVERY_S if timing else 0.0):
                    since, ranks_cpu = ranks_cpu, live_ranks_cpu(before)
                    sliced = len(log.cpu) - len(live_cpu)
                    live_cpu += [(ranks_cpu - since) / max(sliced, 1)] * sliced
        finally:
            workload.close()
        log.failures += [f"leak: {leak}" for leak in before.leaks_since(tmp_dir)]
        peak = peak_rss_mib()

    report = RunReport(name, seed, scale_name, {}, log.attempted, log.failures)
    if not log.wall:
        return report
    jobs = len(log.wall)
    speed = [gauge.factor(*span) for span in log.spans]
    # A timer-bound job takes the same wall time on a slow machine:
    # dividing it by the speed factor would add the noise it removes elsewhere.
    wall = [seconds / factor if workload.cpu_bound else seconds
            for seconds, factor in zip(log.wall, speed)]
    cpu = [(seconds + live) / factor
           for seconds, live, factor in zip(log.cpu, live_cpu, speed)]
    q1, _median, q3 = statistics.quantiles(wall, n=4) if jobs > 1 else wall * 3
    calibrated = "calibrated " if workload.cpu_bound else ""
    tail_s, tail_fraction = tail(wall)
    report.metrics = {
        "job_s": (statistics.median(wall), "s",
                  f"median of {jobs} jobs, {calibrated}seconds, q1 {q1:.4f} q3 {q3:.4f}"),
        "job_tail_s": (tail_s, "s",
                       f"p{100 * tail_fraction:.1f} of {jobs} jobs: the highest "
                       "percentile <= p95 with 10 samples beyond it"),
        "cpu_s": (statistics.median(cpu), "s",
                  "user+sys per job, driver + ranks, calibrated seconds"),
        "peak_rss_mib": (peak, "MiB", "max ru_maxrss, driver or any rank"),
        "bytes_moved": (log.bytes_moved(), "bytes",
                        "o.bytes_sent + mode control bytes, per job"),
        "setup_s": (setup_s, "s",
                    f"median of {SCALES[scale_name].setup_repeats} set-ups, "
                    "calibrated seconds: input, oracle, pool start + first job"),
    }
    report.extra = {
        "raw job_s (s)": statistics.median(log.wall),
        "raw cpu_s (s)": statistics.median(map(operator.add, log.cpu, live_cpu)),
        "raw setup_s (s)": raw_setup_s,
        "machine speed factor": gauge.median(),
    }
    return report


def print_report(report: RunReport, out: Any = None) -> None:
    out = out or sys.stdout
    print(f"workload={report.workload} seed={report.seed} scale={report.scale}",
          file=out)
    print(f"machine nproc={os.cpu_count()} python={platform.python_version()} "
          f"platform={platform.platform()}", file=out)
    for name, (value, unit, note) in report.metrics.items():
        print(f"{name:28s} {value:16.6f} {unit:6s} {note}", file=out)
    for name, value in report.extra.items():
        print(f"{name:28s} {value:16.6f}        (informational)", file=out)
    ratio = report.failed / report.attempted if report.attempted else 1.0
    print(f"{'failed_ratio':28s} {ratio:16.6f} {'ratio':6s} "
          f"{report.failed} of {report.attempted} jobs", file=out)
    for failure in report.failures:
        print(f"FAILED: {failure}", file=out)
