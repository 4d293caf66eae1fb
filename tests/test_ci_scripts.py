"""The CI gate scripts: report determinism diff + ladder count tripwire,
and the parent/change pair runner a gain claim is measured with."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "scripts" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


diff_reports = _load("diff_reports")
check_ladder = _load("check_ladder_counts")
bench_pairs = _load("bench_pairs")


class TestDiffReports:
    def _dirs(self, tmp_path, left: dict, right: dict):
        a, b = tmp_path / "a", tmp_path / "b"
        for directory, files in ((a, left), (b, right)):
            directory.mkdir()
            for name, content in files.items():
                (directory / name).write_text(content)
        return a, b

    def test_identical_dirs_pass(self, tmp_path):
        files = {"index.md": "# hi\n", "speedup.json": "{}"}
        a, b = self._dirs(tmp_path, files, dict(files))
        assert diff_reports.compare_reports(a, b) == []
        assert diff_reports.main([str(a), str(b)]) == 0

    def test_volatile_artifacts_are_skipped(self, tmp_path):
        a, b = self._dirs(
            tmp_path,
            {"index.md": "# hi\n", "timings.json": '{"wall": 1}'},
            {"index.md": "# hi\n", "timings.json": '{"wall": 2}'},
        )
        assert diff_reports.compare_reports(a, b) == []
        # ... unless explicitly included
        assert diff_reports.main([str(a), str(b), "--include-volatile"]) == 1

    def test_content_difference_is_reported_with_line(self, tmp_path):
        a, b = self._dirs(
            tmp_path,
            {"index.md": "line1\nline2\n"},
            {"index.md": "line1\nCHANGED\n"},
        )
        problems = diff_reports.compare_reports(a, b)
        assert problems == ["index.md: differs (first difference at line 2)"]
        assert diff_reports.main([str(a), str(b)]) == 1

    def test_missing_artifact_is_reported(self, tmp_path):
        a, b = self._dirs(
            tmp_path,
            {"index.md": "x", "speedup.md": "y"},
            {"index.md": "x"},
        )
        problems = diff_reports.compare_reports(a, b)
        assert len(problems) == 1 and "only in" in problems[0]

    def test_missing_directory_is_usage_error(self, tmp_path):
        assert diff_reports.main([str(tmp_path / "no"), str(tmp_path)]) == 2

    def test_default_volatile_set_matches_reportbuilder(self):
        from repro.experiments.reportbuilder import VOLATILE_ARTIFACTS

        assert diff_reports.DEFAULT_VOLATILE == frozenset(VOLATILE_ARTIFACTS)
        assert diff_reports.volatile_artifacts() == \
            frozenset(VOLATILE_ARTIFACTS)


def _pin_id(pin) -> str:
    return f"{pin[0]}-{pin[1]}"


class TestCheckLadderCounts:
    @staticmethod
    def ladders(tmp_path, moved=None, drop=None) -> list[str]:
        """One file per pinned workload, printed the way ``python3 -m
        bench run --trace 1`` prints it, every pin at its value unless
        ``moved`` replaces it or ``drop`` leaves its line out."""
        texts: dict[str, list[str]] = {}
        for workload, metric, expected, _moved in check_ladder.PINS:
            lines = texts.setdefault(workload, [
                f"workload={workload} seed=1 scale=default",
                "machine nproc=2 python=3.11 platform=test",
                f"{'job_s':28s} {0.25:16.6f} s      calibrated",
            ])
            if (workload, metric) != drop:
                value = float((moved or {}).get((workload, metric), expected))
                lines.append(f"{metric:28s} {value:16.6f} bytes  ladder")
        paths = []
        for workload, lines in texts.items():
            path = tmp_path / f"{workload}_ladder.txt"
            path.write_text("\n".join(lines + ['{"correct": true}']) + "\n")
            paths.append(str(path))
        return paths

    def test_exact_counts_pass(self, tmp_path, capsys):
        assert check_ladder.main(self.ladders(tmp_path)) == 0
        assert "ladder counts match" in capsys.readouterr().out

    @pytest.mark.parametrize("pin", check_ladder.PINS, ids=_pin_id)
    def test_moved_count_fails_naming_it(self, tmp_path, capsys, pin):
        workload, metric, expected, meaning = pin
        # One unit in the last printed place: a byte, a chunk, or 1e-6 of
        # a ratio that compares as printed.
        read = float(expected) + (1e-6 if isinstance(expected, str) else 1)
        paths = self.ladders(tmp_path, moved={(workload, metric): read})
        assert check_ladder.main(paths) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"{workload} {metric}: expected {expected}, read {read:.6f}: {meaning}"
        ]

    @pytest.mark.parametrize("pin", check_ladder.PINS, ids=_pin_id)
    def test_missing_line_fails(self, tmp_path, capsys, pin):
        workload, metric = pin[:2]
        paths = self.ladders(tmp_path, drop=(workload, metric))
        assert check_ladder.main(paths) == 1
        assert capsys.readouterr().out.strip() == \
            f"{workload} {metric}: line missing from the ladder"

    def test_missing_or_other_seed_ladder_fails(self, tmp_path):
        *others, last = self.ladders(tmp_path)
        assert check_ladder.main(others) == 1
        pathlib.Path(last).write_text(
            pathlib.Path(last).read_text().replace("seed=1", "seed=2"))
        assert check_ladder.main([*others, last]) == 1

    def test_unreadable_file_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            check_ladder.main([str(tmp_path / "absent.txt")])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("workload", sorted({pin[0] for pin in check_ladder.PINS}))
    def test_pins_are_this_trees_seed1_counts(self, workload):
        """One round of the real seed-1 ladder, run the way CI runs it,
        reads every pin of its workload exactly."""
        completed = subprocess.run(
            [sys.executable, "-m", "bench", "run", "--workload", workload,
             "--seed", "1", "--seconds", "0", "--trace", "1"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=300)
        assert completed.returncode == 0, completed.stderr
        problems = check_ladder.check([completed.stdout])
        assert [p for p in problems if p.startswith(f"{workload} ")] == []


# A stand-in for ``python3 -m bench run``: logs which tree ran, then
# prints the next canned ``[exit code, final object]`` of its tree.
FAKE_BENCH = """
import json, pathlib, sys
tree = pathlib.Path.cwd()
with open(tree.parent / "order.log", "a") as log:
    log.write(tree.name + " " + " ".join(sys.argv[1:]) + "\\n")
canned = json.loads((tree / "canned.json").read_text())
done = tree / "done"
index = int(done.read_text()) if done.exists() else 0
done.write_text(str(index + 1))
code, result = canned[index % len(canned)]
print("machine nproc=2 python=3.11 platform=test")
print("machine speed factor                 1.250000        (informational)")
if result is not None:
    print(json.dumps(result))
sys.exit(code)
"""


def _result(failed=0, **metrics):
    return {"correct": not failed, "attempted": 10, "failed": failed,
            "metrics": {name: {"value": value, "unit": "s"}
                        for name, value in metrics.items()}}


class TestBenchPairs:
    BENCHMARK = {
        "command": [sys.executable, "fake_bench.py"],
        "paths": ["bench"],
        "run_seconds": 10,
        "workloads": [{"name": "w1", "why": ""}, {"name": "w2", "why": ""}],
        "end_to_end": [
            {"name": "job_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "bytes_moved", "unit": "bytes", "better": "lower", "bound": 0.15},
        ],
        "per_layer": [{"name": "kv.encode_s", "unit": "s", "better": "lower"}],
    }

    def trees(self, tmp_path, parent, change):
        """Two fake checkouts whose runs print ``parent`` / ``change``."""
        for side, canned in (("parent", parent), ("change", change)):
            tree = tmp_path / side
            tree.mkdir()
            (tree / "BENCHMARK.json").write_text(json.dumps(self.BENCHMARK))
            (tree / "fake_bench.py").write_text(FAKE_BENCH)
            (tree / "canned.json").write_text(json.dumps(canned))
        return ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                "--out", str(tmp_path / "BENCH_0.json")]

    def test_alternates_which_side_goes_first(self, tmp_path):
        ok = [[0, _result(job_s=1.0, bytes_moved=5.0)]]
        argv = self.trees(tmp_path, ok, ok)
        assert bench_pairs.main(
            argv + ["--workload", "w1,w2", "--seed", "7", "--pairs", "3"]) == 0
        order = (tmp_path / "order.log").read_text().splitlines()
        assert [line.split()[0] for line in order] == [
            "parent", "change", "change", "parent", "parent", "change",  # w1
            "change", "parent", "parent", "change", "change", "parent",  # w2
        ]
        assert order[0] == "parent --workload w1 --seed 7 --seconds 10 --trace 0"
        assert order[-1] == "parent --workload w2 --seed 7 --seconds 10 --trace 0"
        assert (tmp_path / "change" / "BENCHMARK.json").read_text() == json.dumps(
            self.BENCHMARK)  # read, never written

    def test_rows_and_verdicts(self, tmp_path):
        parent = [[0, _result(job_s=value, bytes_moved=5.0)]
                  for value in (1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01)]
        change = [[0, _result(job_s=value, bytes_moved=5.0)]
                  for value in (0.70, 0.72, 0.71, 0.69, 0.70, 0.73, 0.70, 0.71, 0.70, 0.72)]
        argv = self.trees(tmp_path, parent, change)
        assert bench_pairs.main(
            argv + ["--workload", "w1", "--seed", "7", "--pairs", "10"]) == 0
        document = json.loads((tmp_path / "BENCH_0.json").read_text())
        assert document["command"] == self.BENCHMARK["command"]
        [section] = document["sections"]
        assert (section["seed"], section["trace"], section["pairs"]) == (7, 0, 10)
        entry = section["workloads"]["w1"]
        assert len(entry["runs"]) == 20
        assert entry["runs"][0]["informational"] == {"machine speed factor": 1.25}
        assert entry["runs"][0]["machine"] == "nproc=2 python=3.11 platform=test"
        assert entry["summary"]["operations"] == {
            "parent": {"failed": 0, "attempted": 100},
            "change": {"failed": 0, "attempted": 100}}
        job_s = entry["summary"]["metrics"]["job_s"]
        assert job_s["verdict"] == "improved"
        assert job_s["wins"] == {"parent": 0, "change": 10}
        assert job_s["parent"]["median"] == 1.0 and job_s["change"]["median"] == 0.705
        assert job_s["delta"]["base"] == 1.0
        assert job_s["delta"]["ratio"] == pytest.approx(-0.295)
        assert job_s["bound"] == 0.25 and job_s["every_change_run_better"]
        moved = entry["summary"]["metrics"]["bytes_moved"]
        assert moved["exactly_equal"] and moved["verdict"] == "inside-bound"
        assert moved["wins"] == {"parent": 0, "change": 0}  # ties are nobody's

    STEADY = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
    NOISY = [1.0, 1.4, 0.8, 1.2, 0.7, 1.3, 1.0, 1.5, 0.9, 1.1]

    @pytest.mark.parametrize("parent, change, verdict", [
        (STEADY, [1.3] * 10, "worse"),
        (STEADY, [1.1, 0.9] * 5, "inside-bound"),
        (NOISY, [1.1, 0.9] * 5, "unresolved"),
        (NOISY, [0.5] * 10, "improved"),
        (STEADY, [0.9] * 9 + [1.2], "improved"),  # nine of ten
        (STEADY, [0.9] * 8 + [1.2] * 2, "inside-bound"),  # eight of ten
        # ten pairs make a claim; three wins of three do not
        (STEADY[:3], [0.5] * 3, "inside-bound"),
        # a median gap inside the parent's own spread is not a gain
        (NOISY, [v - 0.05 for v in NOISY], "unresolved"),
    ])
    def test_verdict_table(self, parent, change, verdict):
        assert bench_pairs.summarize(parent, change, "lower", 0.25)["verdict"] == verdict
        # The same readings of a higher-is-better metric, mirrored.
        mirrored = bench_pairs.summarize(
            [-v for v in parent], [-v for v in change], "higher", 0.25)
        assert mirrored["verdict"] == verdict
        assert bench_pairs.summarize(parent, change, "lower", None)["verdict"] is None

    def test_failed_run_exits_nonzero_and_is_kept(self, tmp_path):
        ok = [[0, _result(job_s=1.0, bytes_moved=5.0)]]
        change = [[0, _result(job_s=1.0, bytes_moved=5.0)],
                  [1, _result(failed=2, job_s=1.0, bytes_moved=5.0)],
                  [3, None]]
        argv = self.trees(tmp_path, ok, change)
        assert bench_pairs.main(
            argv + ["--workload", "w1", "--seed", "1", "--pairs", "3"]) == 1
        entry = json.loads((tmp_path / "BENCH_0.json").read_text()
                           )["sections"][0]["workloads"]["w1"]
        assert [run["exit_code"] for run in entry["runs"] if run["side"] == "change"] \
            == [0, 1, 3]
        assert entry["summary"]["operations"]["change"] == {"failed": 2, "attempted": 20}
        assert len(entry["summary"]["metrics"]["job_s"]["change"]["runs"]) == 2

    def test_sections_accumulate_and_ladder_rungs_have_no_verdict(self, tmp_path):
        ok = [[0, _result(**{"job_s": 1.0, "bytes_moved": 5.0, "kv.encode_s": 0.1})]]
        argv = self.trees(tmp_path, ok, ok)
        assert bench_pairs.main(
            argv + ["--workload", "w1", "--seed", "1", "--pairs", "1"]) == 0
        assert bench_pairs.main(
            argv + ["--workload", "w2", "--seed", "2", "--pairs", "1", "--trace", "1"]) == 0
        first, second = json.loads(
            (tmp_path / "BENCH_0.json").read_text())["sections"]
        assert list(first["workloads"]) == ["w1"] and list(second["workloads"]) == ["w2"]
        assert list(second["workloads"]["w2"]["summary"]["metrics"]) == ["kv.encode_s"]
        assert second["workloads"]["w2"]["summary"]["metrics"]["kv.encode_s"][
            "verdict"] is None
        assert (tmp_path / "order.log").read_text().splitlines()[-1].endswith("--trace 1")

    def test_unknown_workload_is_a_usage_error(self, tmp_path):
        argv = self.trees(tmp_path, [], [])
        with pytest.raises(SystemExit) as exit_info:
            bench_pairs.main(argv + ["--workload", "nope", "--seed", "1", "--pairs", "1"])
        assert exit_info.value.code == 2
