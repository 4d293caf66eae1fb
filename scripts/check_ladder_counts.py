#!/usr/bin/env python3
"""Check the seed-1 ladders' wire counts against one table of pins.

CI runs the layer ladder of four workloads on seed 1, tees each into a
file, then checks all four in one call:

    python3 -m bench run --workload sort_shm --seed 1 --seconds 10 --trace 1 | tee sort_shm_ladder.txt
    ...
    python scripts/check_ladder_counts.py sort_shm_ladder.txt wordcount_shm_ladder.txt \
        kmeans_iter_shm_ladder.txt sort_spill_shm_ladder.txt

Sort under a 256 KiB spill budget (``sort_spill_shm``) is the one ladder
whose A ranks hold resident and spilled chunks at once, so its pins guard
the mixed merge: what spills, and how often the merge reads it back.

The pins are counts, not times, so the gate is runner-independent.  Each
ladder names its workload on its first line (``workload=<name> seed=<n>``)
and prints one metric a line: the first field is the metric's name, the
second its value.  Integer pins compare numerically; a string pin
compares as printed (six decimals).  Exit codes: ``0`` every count
matches, ``1`` a count moved or a pinned line is missing, ``2`` bad
invocation.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

SEED = 1

#: (workload, metric, seed-1 value, what a move means).
PINS: list[tuple[str, str, int | str, str]] = [
    # Sort: a kernel change in common.kv or the send buffers that moves one
    # wire byte or one flush boundary trips these.  Every chunk is columnar
    # (str keys, None values): 6967991 as record streams - 9 bytes x 100000
    # records + a 7-byte header x 27 chunks.
    ("sort_shm", "kv.encoded_bytes", 6068180, "the wire moved"),
    ("sort_shm", "buffers.chunks", 27, "a flush boundary moved"),
    # WordCount: the combiner path (values grouped per key on arrival,
    # folded in place, charged what the table will ship).  Each O rank's
    # distinct words stay under half the send threshold, so every
    # destination ships once, at close: 2 O x 2 A = 4 chunks, each word
    # once per O rank.  Every chunk is columnar (str keys, int counts).
    ("wordcount_shm", "kv.encoded_bytes", 153575, "the wire moved"),
    ("wordcount_shm", "buffers.chunks", 4, "a flush boundary moved"),
    ("wordcount_shm", "buffers.sent_ratio", "0.075836", "a combined record moved"),
    # K-means: int keys with (dict, int) values are not a columnar shape, so
    # every chunk stays the record stream; the dict of int -> float inside
    # each value packs as a W field (603060 bytes when it shipped as an M
    # field).  A flush boundary that follows the packed bytes moves
    # buffers.chunks.  The centroids go to the O ranks only, and a warm
    # superstep's scatter carries no input (each O rank reads its pinned
    # splits), so a control that widens back to every rank, an input that
    # is re-sent, or a counter that rejoins the outcome gather moves
    # modes.control_bytes (609147 while each warm superstep answered two
    # input requests with ("cached", None)).
    ("kmeans_iter_shm", "kv.encoded_bytes", 324120, "the record-stream wire moved"),
    ("kmeans_iter_shm", "buffers.chunks", 240, "a flush boundary moved"),
    ("kmeans_iter_shm", "modes.control_bytes", 606477, "the control plane moved"),
    # Sort under a 256 KiB spill budget: the same input and wire as
    # sort_shm, so the same 27 chunks and 6068180 bytes; the store spills
    # the oldest chunks past the budget and the merge reads each spilled
    # chunk back once, lazily, beside the resident ones.
    ("sort_spill_shm", "kv.encoded_bytes", 6068180, "the wire moved"),
    ("sort_spill_shm", "buffers.chunks", 27, "a flush boundary moved"),
    ("sort_spill_shm", "spill.bytes_spilled", 5614796, "what spills moved"),
    ("sort_spill_shm", "spill.spill_reads", 24, "the mixed merge's reads moved"),
]


def read_ladder(text: str) -> tuple[dict[str, str], dict[str, str]]:
    """The ladder's header fields (``workload``, ``seed``, ...) and its
    ``metric -> value`` fields, both as printed."""
    header: dict[str, str] = {}
    values: dict[str, str] = {}
    for line in text.splitlines():
        fields = line.split()
        if fields and fields[0].startswith("workload="):
            header = dict(field.partition("=")[::2] for field in fields)
        elif len(fields) >= 2:
            values[fields[0]] = fields[1]
    return header, values


def _matches(read: str, expected: int | str) -> bool:
    if isinstance(expected, str):
        return read == expected
    try:
        return float(read) == expected
    except ValueError:
        return False


def check(ladders: list[str]) -> list[str]:
    """Problems across the ladder texts; empty means every pin holds."""
    by_workload: dict[str, dict[str, str]] = {}
    for text in ladders:
        header, values = read_ladder(text)
        if header.get("seed") == str(SEED):
            by_workload[header["workload"]] = values
    problems: list[str] = []
    for workload, metric, expected, moved in PINS:
        if workload not in by_workload:
            problems.append(f"{workload} {metric}: no seed-{SEED} ladder of {workload} given")
            continue
        read = by_workload[workload].get(metric)
        if read is None:
            problems.append(f"{workload} {metric}: line missing from the ladder")
        elif not _matches(read, expected):
            problems.append(f"{workload} {metric}: expected {expected}, read {read}: {moved}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ladders", nargs="+", type=pathlib.Path,
                        help="output files of `python3 -m bench run --trace 1`")
    args = parser.parse_args(argv)
    texts = []
    for path in args.ladders:
        try:
            texts.append(path.read_text())
        except OSError as exc:
            parser.error(f"cannot read {path}: {exc}")
    problems = check(texts)
    for problem in problems:
        print(problem)
    if problems:
        return 1
    print(f"ladder counts match: {len(PINS)} pins over {len(texts)} ladders")
    return 0


if __name__ == "__main__":
    sys.exit(main())
