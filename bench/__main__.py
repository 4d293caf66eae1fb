"""Command line of the benchmark: ``python3 -m bench <command> ...``.

``run``        one workload, one seed: ``--trace 0`` the end-to-end pass,
               ``--trace 1`` the layer ladder (``ladder`` is the same thing).
``selfcheck``  every workload twice, same code and seed: per metric both
               values, their gap and the bound ``BENCHMARK.json`` sets.
``all``        every workload, both passes, plus the sort_tcp and sort_spill_shm
               over sort_shm ratios (the ladder prints the per-workload ones).

``run`` prints every metric by name with its unit and, as its last line,
the JSON object the benchmark driver reads; it exits non-zero when any
job failed its check or leaked a resource.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from typing import Any

from bench import ROOT
from bench.ladder import run_ladder
from bench.runner import no_process_outlives, print_report, run_workload
from bench.workloads import WORKLOADS


def _run(args: argparse.Namespace) -> int:
    pass_ = run_ladder if args.trace else run_workload
    report = pass_(args.workload, args.seed, args.seconds, args.scale)
    print_report(report)
    print(json.dumps(report.result()))
    return 1 if report.failures else 0


def _spawn(workload: str, args: argparse.Namespace, trace: int) -> dict[str, Any]:
    """One run in its own process, as the driver makes it (peak RSS and
    CPU are per process, so runs must not share one)."""
    completed = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--scale", args.scale, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = completed.stdout.splitlines()
    if completed.returncode != 0 or not lines:
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{workload} --trace {trace} exited {completed.returncode}")
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])["metrics"]


def _selfcheck(args: argparse.Namespace) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or list(WORKLOADS)
    rows = []
    for workload in names:
        first = _spawn(workload, args, trace=0)
        second = _spawn(workload, args, trace=0)
        for metric in declared["end_to_end"]:
            a = first[metric["name"]]["value"]
            b = second[metric["name"]]["value"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            rows.append((workload, metric["name"], a, b, worse, metric["bound"]))
    print(f"\n{'workload':18s} {'metric':14s} {'first':>16s} {'second':>16s} "
          f"{'worse by':>9s} {'bound':>6s}")
    misses = 0
    for workload, name, a, b, worse, bound in rows:
        # Both orders count: which run came second is an accident.
        missed = abs(worse) > bound
        misses += missed
        print(f"{workload:18s} {name:14s} {a:16.6f} {b:16.6f} {worse:+9.2%} "
              f"{bound:6.0%}{'  MISS' if missed else ''}")
    print(f"{misses} of {len(rows)} metric x workload pairs outside their bound")
    return 1 if misses else 0


def _all(args: argparse.Namespace) -> int:
    job_s = {}
    for workload in WORKLOADS:
        job_s[workload] = _spawn(workload, args, trace=0)["job_s"]["value"]
        # The ladder prints its own same-run ratios (job_s over the
        # plain-Python reference, warm step over first step).
        _spawn(workload, args, trace=1)
    print("\nsame-run ratios across workloads (informational, not gated)")
    for other in ("sort_tcp", "sort_spill_shm"):
        print(f"{other + ' / sort_shm':32s} job_s {job_s[other] / job_s['sort_shm']:8.3f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, handler in (("run", _run), ("ladder", _run),
                          ("selfcheck", _selfcheck), ("all", _all)):
        command = commands.add_parser(name)
        command.set_defaults(handler=handler, trace=1 if name == "ladder" else 0)
        command.add_argument("--seed", type=int, default=1,
                             help="seeds every input generator (default 1)")
        command.add_argument("--seconds", type=float, default=10.0,
                             help="how long one run measures (default 10)")
        command.add_argument("--scale", choices=("full", "smoke"), default="full")
        if handler is _run:
            command.add_argument("--workload", required=True, choices=list(WORKLOADS))
        if name == "run":
            command.add_argument("--trace", type=int, choices=(0, 1), default=0)
        if name == "selfcheck":
            command.add_argument("--workload", action="append", choices=list(WORKLOADS),
                                 help="limit to this workload (repeatable)")
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    with no_process_outlives():
        sys.exit(main())
