#!/usr/bin/env python3
"""Run the repo's benchmark on two checkouts in alternating pairs.

A change that claims a gain shows it as parent/change pairs of the
*unmodified* benchmark (``docs/testing.md``, "Claiming a gain"):

    python scripts/bench_pairs.py --parent ../parent --change . \\
        --workload wordcount_shm,sort_shm --seed 21 --pairs 10 --out BENCH_19.json

For every pair it runs ``BENCHMARK.json``'s command once in each tree —
one run at a time, the side that goes first alternating from pair to pair
— and keeps each run's final JSON object, exit code and informational
lines.  Per workload and metric it then records both sides' values,
median and quartiles, who won how many pairs (a tie counts for neither),
the change's delta with the parent median as its base, the bound
``BENCHMARK.json`` sets and a verdict:

``improved``      at least ten pairs, the change won nine tenths of them
                  and the medians differ by more than the parent's own
                  quartile spread;
``worse``         the change's median is worse than the parent's by more
                  than the bound;
``unresolved``    the parent's quartile spread is as wide as the bound and
                  not every change run beats every parent run;
``inside-bound``  none of the above.

``--trace 1`` pairs the layer ladder instead; rungs have no bound, so no
verdict.  Each invocation appends one section to ``--out`` (a PR's file
collects its seeds and passes).  ``BENCHMARK.json`` is read from the
change tree and never written, like everything under ``bench/``.  Exit
codes: ``0`` every run exited 0, ``1`` some run did not, ``2`` bad
invocation.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import statistics
import subprocess
import sys
from typing import Any

SIDES = ("parent", "change")
#: Fewer pairs than this never read ``improved``: three wins of three is
#: one chance in eight between two identical trees.
CLAIM_PAIRS = 10
INFORMATIONAL = re.compile(r"^(.+?)\s+(-?[\d.]+)\s+\(informational\)$")


def run_once(command: list[str], tree: pathlib.Path) -> dict[str, Any]:
    """One benchmark run: exit code, the final JSON object (``None`` when
    the last line is not one) and the ``(informational)`` readings."""
    completed = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = completed.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if completed.returncode != 0:
        sys.stderr.write(completed.stdout[-2000:] + completed.stderr[-2000:])
    return {
        "exit_code": completed.returncode,
        "result": result,
        "machine": next((line.removeprefix("machine ") for line in lines
                         if line.startswith("machine ")), None),
        "informational": {match[1]: float(match[2]) for match in
                          map(INFORMATIONAL.match, lines) if match},
    }


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(parent: list[float], change: list[float], better: str,
              bound: float | None) -> dict[str, Any]:
    """One workload x metric row; ``parent[i]`` and ``change[i]`` are pair i."""
    sign = 1.0 if better == "lower" else -1.0  # worse = larger, after the sign
    base, median = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    change_q1, change_q3 = quartiles(change)
    spread = q3 - q1
    ratio = (median - base) / abs(base) if base else None
    wins = {"parent": sum(sign * p < sign * c for p, c in zip(parent, change)),
            "change": sum(sign * c < sign * p for p, c in zip(parent, change))}
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    verdict = None
    if bound is not None:
        if ratio is not None and sign * ratio > bound:
            verdict = "worse"
        elif (len(parent) >= CLAIM_PAIRS and wins["change"] >= 0.9 * len(parent)
              and sign * (base - median) > spread):
            verdict = "improved"
        elif base and spread / abs(base) >= bound and not all_better:
            verdict = "unresolved"
        else:
            verdict = "inside-bound"
    return {
        "better": better, "bound": bound, "verdict": verdict,
        "parent": {"runs": parent, "median": base, "q1": q1, "q3": q3},
        "change": {"runs": change, "median": median, "q1": change_q1, "q3": change_q3},
        "wins": wins,
        "delta": {"value": median - base, "base": base, "ratio": ratio},
        "parent_iqr_over_median": spread / abs(base) if base else None,
        "every_change_run_better": all_better,
        "exactly_equal": len(set(parent + change)) == 1,
    }


def summarize_workload(runs: list[dict[str, Any]],
                       declared: list[dict[str, Any]]) -> dict[str, Any]:
    """Rows for every declared metric all of this workload's pairs report."""
    by_side = {side: [run["result"] for run in runs if run["side"] == side]
               for side in SIDES}
    complete = [pair for pair in zip(by_side["parent"], by_side["change"])
                if all(pair)]
    summary: dict[str, Any] = {
        "operations": {
            side: {key: sum(r[key] for r in results if r)
                   for key in ("failed", "attempted")}
            for side, results in by_side.items()},
        "metrics": {},
    }
    for metric in declared:
        name = metric["name"]
        pairs = [pair for pair in complete if all(name in r["metrics"] for r in pair)]
        if pairs:
            parent, change = ([r["metrics"][name]["value"] for r in side]
                              for side in zip(*pairs))
            summary["metrics"][name] = summarize(
                parent, change, metric["better"], metric.get("bound"))
    return summary


def print_table(workload: str, summary: dict[str, Any]) -> None:
    for name, row in summary["metrics"].items():
        ratio = row["delta"]["ratio"]
        print(f"{workload:16s} {name:26s} {row['parent']['median']:14.6f} "
              f"{row['change']['median']:14.6f} "
              f"{'' if ratio is None else format(ratio, '+.1%'):>8s} "
              f"{row['wins']['change']}/{len(row['parent']['runs'])} "
              f"{row['verdict'] or ''}")
    print(f"{workload:16s} failed/attempted: " + ", ".join(
        f"{side} {count['failed']}/{count['attempted']}"
        for side, count in summary["operations"].items()))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    for side in SIDES:
        parser.add_argument(f"--{side}", type=pathlib.Path, required=True,
                            help=f"checkout of the {side} (has BENCHMARK.json)")
    parser.add_argument("--workload", required=True,
                        help="comma-separated BENCHMARK.json workload names")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)

    trees = {side: getattr(args, side).resolve() for side in SIDES}
    benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    workloads = args.workload.split(",")
    unknown = set(workloads) - {w["name"] for w in benchmark["workloads"]}
    if unknown:
        parser.error(f"unknown workload(s) {sorted(unknown)}")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    declared = benchmark["per_layer" if args.trace else "end_to_end"]

    section: dict[str, Any] = {
        "seed": args.seed, "trace": args.trace, "pairs": args.pairs,
        "trees": {side: str(tree) for side, tree in trees.items()},
        "workloads": {},
    }
    document = (json.loads(args.out.read_text()) if args.out.exists()
                else {"command": benchmark["command"],
                      "run_seconds": benchmark["run_seconds"], "sections": []})
    document["sections"].append(section)
    pair_number = 0  # across workloads, so --pairs 1 still alternates
    for workload in workloads:
        command = benchmark["command"] + [
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(benchmark["run_seconds"]), "--trace", str(args.trace)]
        runs = []
        for _ in range(args.pairs):
            for side in SIDES if pair_number % 2 == 0 else SIDES[::-1]:
                run = run_once(command, trees[side])
                runs.append({"pair": pair_number, "side": side, **run})
                print(f"pair {pair_number} {workload} {side}: exit {run['exit_code']}",
                      flush=True)
            pair_number += 1
        section["workloads"][workload] = {
            "runs": runs, "summary": summarize_workload(runs, declared)}
        print_table(workload, section["workloads"][workload]["summary"])
        # After every workload: an interrupted session keeps what it ran.
        args.out.write_text(json.dumps(document, indent=1) + "\n")
    all_runs = [run for entry in section["workloads"].values() for run in entry["runs"]]
    return 1 if any(run["exit_code"] != 0 for run in all_runs) else 0


if __name__ == "__main__":
    sys.exit(main())
