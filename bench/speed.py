"""Machine-speed gauge: what turns measured seconds into calibrated ones.

The benchmark container shares its two cores with other tenants, and the
same 4-rank job runs up to 2x slower for seconds or minutes at a time:
raw medians of ten back-to-back 10 s runs of one commit spread by 25-38 %.
Nothing inside the run shows it (no steal time is reported), but a fixed
piece of work timed *beside* each job does.  So every timed job sits
between calibrations, and its wall and CPU seconds are divided by how
much slower than the reference the calibration loop ran around it.  The
result is in seconds of a machine on which the loop takes ``CAL_REF_S``;
on the container's fast state the factor is about 0.9.

The loop is the repo's kind of work — split, count in a dict, sort,
length-prefix pack — because an arithmetic loop tracked the sort workload
but not WordCount.  It runs in two long-lived processes at once, one per
core the ranks of a phase occupy and each pinned to its core: much of
the slowness is the two cores slowing *each other*, which a single-core
loop cannot see.  Unpinned, the kernel now and then wakes both lanes on
one core, where they take turns and read double: between the pool's
small jobs, when both cores idle, that was every few runs, and ``cpu_s``
there came out at half its value or twice it.  The gauge only ever runs
between jobs: one that ran during a job would measure the job's own load.

Single-threaded set-up is calibrated by the same loop run in the driver
itself, just before and just after (:func:`driver_factor`): that is the core and
the process set-up ran in.  A helper woken for it reads another core, or
the same one a moment after it woke; over 30-90 set-ups per workload the
median of three came out spread 12-19 % with a helper's readings, as much
as uncalibrated, and 3-13 % with the driver's own.
"""

from __future__ import annotations

import bisect
import os
import statistics
import struct
import time

#: What the loop takes on the benchmark container's fast state.
CAL_REF_S = 0.011

_LANES = 2
_LINES = [" ".join(f"w{(i * 7919 + j * 104729) % 3001:05d}" for j in range(8))
          for i in range(1000)]
_RECORD = struct.Struct(">II")


def _loop() -> float:
    started = time.perf_counter()
    for _ in range(2):
        counts: dict[str, int] = {}
        records = []
        for line in _LINES:
            for word in line.split():
                counts[word] = counts.get(word, 0) + 1
                records.append((word, 1))
        records.sort(key=lambda kv: kv[0])
        out = bytearray()
        for word, _one in records:
            encoded = word.encode("utf-8")
            out += _RECORD.pack(len(encoded), 1)
            out += encoded
        bytes(out)
    return time.perf_counter() - started


def driver_factor() -> float:
    """The speed factor the calling process reads now: the faster of two
    passes, as in a lane."""
    return min(_loop(), _loop()) / CAL_REF_S


class _Lane:
    """One forked process that runs the loop each time it is told to.

    Forked once, before the driver builds its inputs: a copy forked per
    calibration would time copy-on-write faults over the driver's heap,
    which differs by workload, instead of the machine.
    """

    def __init__(self, inherited: list[int], cpu: int) -> None:
        command_read, self._command = os.pipe()
        self._reply, reply_write = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.sched_setaffinity(0, {cpu})
            for fd in (*inherited, self._command, self._reply):
                os.close(fd)
            while os.read(command_read, 1) == b"g":
                # The lane slept since the last calibration; the first
                # pass pays for waking the core up, the faster one counts.
                os.write(reply_write, struct.pack("d", min(_loop(), _loop())))
            os._exit(0)
        os.close(command_read)
        os.close(reply_write)

    def fds(self) -> list[int]:
        return [self._command, self._reply]

    def go(self) -> None:
        os.write(self._command, b"g")

    def seconds(self) -> float:
        return struct.unpack("d", os.read(self._reply, 8))[0]

    def close(self) -> None:
        os.close(self._command)  # EOF ends the lane's loop
        os.close(self._reply)
        os.waitpid(self.pid, 0)


class SpeedGauge:
    """Calibrations taken between jobs, looked up by time."""

    def __init__(self) -> None:
        self._lanes: list[_Lane] = []
        cpus = sorted(os.sched_getaffinity(0))
        for index in range(_LANES):
            self._lanes.append(_Lane([fd for lane in self._lanes for fd in lane.fds()],
                                     cpus[index % len(cpus)]))
        self._times: list[float] = []
        self._factors: list[float] = []

    def __enter__(self) -> "SpeedGauge":
        return self

    def __exit__(self, *_exc: object) -> None:
        for lane in self._lanes:
            lane.close()

    def sample(self, min_gap: float = 0.0) -> bool:
        """Calibrate now, unless the last calibration is ``min_gap`` fresh
        (returns whether it did): every lane runs the loop at the same
        time, the mean is kept."""
        now = time.perf_counter()
        if self._times and now - self._times[-1] < min_gap:
            return False
        for lane in self._lanes:
            lane.go()
        seconds = statistics.fmean(lane.seconds() for lane in self._lanes)
        self._times.append(now)
        self._factors.append(seconds / CAL_REF_S)
        return True

    def factor(self, started: float, ended: float) -> float:
        """How much slower than the reference the machine ran over
        ``[started, ended]``: median of the two calibrations before and
        the two after.  Slow spells last from a fraction of a second to
        minutes; the local median follows the ones that outlast a job and
        is not thrown by one calibration that caught a short one."""
        before = bisect.bisect_right(self._times, started)
        after = bisect.bisect_left(self._times, ended)
        return statistics.median(
            self._factors[max(0, before - 2):before] + self._factors[after:after + 2])

    def median(self) -> float:
        return statistics.median(self._factors)
