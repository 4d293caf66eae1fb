"""Tier-1 smoke test of the benchmark itself.

At ``--scale smoke`` every workload runs one repetition and the ladder
one round, in this process.  What is pinned: the runner emits exactly
what ``BENCHMARK.json`` declares, ``bytes_moved`` repeats for one seed,
and a wrong oracle fails the run.  No timing is asserted.
"""

from __future__ import annotations

import json
import re

import pytest

from bench import ROOT
from bench.__main__ import main
from bench.ladder import run_ladder
from bench.runner import run_workload
from bench.workloads import WORKLOADS, WordCount

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _declared_units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in DECLARED[section]}


def _emitted_units(report) -> dict[str, str]:
    return {name: metric["unit"]
            for name, metric in report.result()["metrics"].items()}


def test_declared_workloads_are_the_runnable_ones():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


def test_every_declared_name_is_well_formed():
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer")
             for entry in DECLARED[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in _declared_units("end_to_end")


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_pass_emits_exactly_the_declared_metrics(workload):
    report = run_workload(workload, seed=1, seconds=0.0, scale_name="smoke")
    assert report.failures == []
    assert _emitted_units(report) == _declared_units("end_to_end")
    # The driver refuses an end-to-end metric that reads 0.
    assert all(value > 0 for value, _unit, _note in report.metrics.values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_ladder_pass_emits_exactly_the_declared_metrics(workload):
    report = run_ladder(workload, seed=1, seconds=0.0, scale_name="smoke")
    assert report.failures == []
    assert _emitted_units(report) == _declared_units("per_layer")
    # The separation the spill workload exists for.
    spilled = report.metrics["spill.bytes_spilled"][0]
    assert (spilled > 0) == (workload == "sort_spill_shm")


def test_bytes_moved_repeats_exactly_for_one_seed():
    first = run_workload("kmeans_iter_shm", 7, 0.0, "smoke").metrics["bytes_moved"]
    second = run_workload("kmeans_iter_shm", 7, 0.0, "smoke").metrics["bytes_moved"]
    assert first[0] == second[0]


def test_a_wrong_oracle_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(WordCount, "reference", lambda self: {"wrong": 1})
    code = main(["run", "--workload", "wordcount_shm", "--seed", "1",
                 "--seconds", "0", "--scale", "smoke", "--trace", "0"])
    assert code != 0
    verdict = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert verdict["correct"] is False
    assert verdict["failed"] == verdict["attempted"] > 0
