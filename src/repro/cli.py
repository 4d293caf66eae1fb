"""``datampi-repro`` — command-line entry point for the reproduction.

Subcommands:

* ``list``                      — list every table/figure experiment
* ``run <experiment>``          — regenerate one table/figure and print it
* ``simulate <fw> <wl> <size>`` — one simulated job (e.g. datampi text_sort 8GB)
* ``workload <engine> <name>``  — run a functional workload on generated data
* ``experiment run|report|list``— drive the workload × engine × scale matrix
  end-to-end and render the paper's figures into ``reports/``

The DataMPI engine's IPC backend is selectable with
``workload --transport {thread,shm,inline,tcp}``: threads in one process
(default), forked processes over socket pairs made before the fork, a
deterministic inline scheduler, or processes joined by TCP socket pairs
(``--hosts``/``--port`` choose the bind addresses).  Its execution mode is selectable with
``workload --mode {common,iteration,streaming}``: run-once jobs
(default), kept-alive ranks with a cross-iteration KV cache (kmeans,
naive_bayes), or windowed unbounded input (wordcount, grep).  Which
workloads, engines and modes exist is read from the one workload table
(``repro.workloads.base.WORKLOADS``).
"""

from __future__ import annotations

import argparse
import sys

from repro.common.units import format_size, parse_size
from repro import experiments
from repro.datampi import EXECUTION_MODES
from repro.experiments import report
from repro.mpi.transport import available_transports, default_transport_name
from repro.perfmodels import simulate

EXPERIMENTS = {
    "table1": "Table 1: representative workloads",
    "table2": "Table 2: hardware configuration",
    "fig2a": "Figure 2(a): DFSIO block-size tuning",
    "fig2b": "Figure 2(b): tasks/workers-per-node tuning",
    "fig3a": "Figure 3(a): Normal Sort",
    "fig3b": "Figure 3(b): Text Sort",
    "fig3c": "Figure 3(c): WordCount",
    "fig3d": "Figure 3(d): Grep",
    "fig4-sort": "Figure 4(a-d): 8GB Text Sort resource profile",
    "fig4-wordcount": "Figure 4(e-h): 32GB WordCount resource profile",
    "fig5": "Figure 5: small jobs",
    "fig6a": "Figure 6(a): K-means",
    "fig6b": "Figure 6(b): Naive Bayes",
    "fig7": "Figure 7: seven-pronged summary",
}


def _cmd_list(_args) -> int:
    for name, description in EXPERIMENTS.items():
        print(f"{name:<16} {description}")
    return 0


def _print_sweep(series) -> None:
    print(report.sweep_table(series))


def _cmd_run(args) -> int:
    name = args.experiment
    if name not in EXPERIMENTS:
        print(f"unknown experiment {name!r}; try 'datampi-repro list'",
              file=sys.stderr)
        return 2
    print(EXPERIMENTS[name])
    if name == "table1":
        print(report.render_table(["No.", "Workload", "Type"], experiments.table1()))
    elif name == "table2":
        print(report.render_table(["Item", "Value"], experiments.table2()))
    elif name == "fig2a":
        data = experiments.fig2a()
        blocks = sorted(next(iter(data.values())))
        rows = [
            [format_size(total)] + [f"{data[total][b]:.1f}" for b in blocks]
            for total in sorted(data)
        ]
        print(report.render_table(
            ["input"] + [format_size(b) for b in blocks], rows
        ))
    elif name == "fig2b":
        data = experiments.fig2b()
        rows = [
            [fw] + [f"{data[fw][s]:.1f}" for s in (2, 4, 6)]
            for fw in data
        ]
        print(report.render_table(["framework", "2", "4", "6"], rows))
    elif name in ("fig3a", "fig3b", "fig3c", "fig3d", "fig6a", "fig6b"):
        workload = {
            "fig3a": "normal_sort", "fig3b": "text_sort", "fig3c": "wordcount",
            "fig3d": "grep", "fig6a": "kmeans", "fig6b": "naive_bayes",
        }[name]
        _print_sweep(experiments.micro_benchmark(workload, executions=args.executions))
    elif name == "fig4-sort":
        print(report.profile_table(experiments.fig4_sort()))
    elif name == "fig4-wordcount":
        print(report.profile_table(experiments.fig4_wordcount()))
    elif name == "fig5":
        data = experiments.fig5(executions=args.executions)
        rows = [
            [w] + [f"{data[w][fw]:.1f}s" for fw in ("hadoop", "spark", "datampi")]
            for w in data
        ]
        print(report.render_table(["workload", "hadoop", "spark", "datampi"], rows))
    elif name == "fig7":
        radar = experiments.compute_radar(executions=1)
        rows = [
            [axis] + [f"{radar.scores[axis][fw]:.2f}"
                      for fw in ("hadoop", "spark", "datampi")]
            for axis in experiments.AXES
        ]
        print(report.render_table(["axis", "hadoop", "spark", "datampi"], rows))
    return 0


def _cmd_simulate(args) -> int:
    run = simulate(args.framework, args.workload, parse_size(args.size),
                   slots=args.slots, executions=args.executions)
    if run.failed:
        print(f"{args.framework} {args.workload} {args.size}: FAILED ({run.failure})")
        return 1
    print(f"{args.framework} {args.workload} {args.size}: {run.elapsed_sec:.1f}s")
    for phase, duration in run.phases.items():
        print(f"  {phase}: {duration:.1f}s")
    return 0


def _cmd_workload(args) -> int:
    from repro.common.errors import ConfigError
    from repro.experiments.spec import DataScale
    from repro.workloads.base import WORKLOADS, RunParams, run_workload

    # "sort" is this command's long-standing spelling of text_sort.
    name = "text_sort" if args.name == "sort" else args.name
    workload = WORKLOADS.get(name)
    if workload is None:
        print(f"unknown workload {args.name!r}; available: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.mode != "common" and args.engine != "datampi":
        print(f"--mode {args.mode} needs the datampi engine", file=sys.stderr)
        return 2
    if args.engine not in workload.engines:
        print(f"{args.name} runs on engines "
              f"{' and '.join(workload.engines)}", file=sys.stderr)
        return 2
    if args.mode not in workload.modes:
        print(f"{args.name} supports modes {' and '.join(workload.modes)}",
              file=sys.stderr)
        return 2

    storage = _storage_from_args(args)
    if storage is not None and args.engine != "datampi":
        print("--spill-threshold/--spill-dir/--cache-bytes need the datampi "
              "engine", file=sys.stderr)
        return 2

    if args.pool is not None:
        if args.engine != "datampi" or args.mode != "common":
            print("--pool needs the datampi engine in common mode",
                  file=sys.stderr)
            return 2
        if workload.job is None:
            poolable = [n for n, w in WORKLOADS.items() if w.job is not None]
            print(f"--pool supports {', '.join(poolable)} "
                  f"(got {args.name!r})", file=sys.stderr)
            return 2
        if args.pool < 1:
            print("--pool needs at least one submission", file=sys.stderr)
            return 2

    if args.hosts is not None or args.port != 0:
        # Backend options only the tcp transport understands; resolve them
        # into a constructed instance the job drivers pass through.
        if args.transport != "tcp":
            print("--hosts/--port need --transport tcp", file=sys.stderr)
            return 2
        from repro.common.errors import MPIError
        from repro.mpi.transport import get_transport

        try:
            args.transport = get_transport("tcp", hosts=args.hosts,
                                           port=args.port)
        except MPIError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    try:
        scale = DataScale("cli", lines=args.lines, vectors=args.vectors,
                          paper_bytes=1)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    data = workload.make_input(scale, args.seed)
    params = RunParams(mode=args.mode, transport=args.transport,
                       storage=storage, seed=args.seed, k=args.k,
                       pattern=args.pattern)
    reference = workload.reference(data, params)
    if args.pool is not None:
        return _run_pooled_workload(args, workload, data, params, reference)

    record = run_workload(name, args.engine, data, params)
    ok = workload.verify(record.output, reference)
    moved = "-" if record.bytes_moved is None else f"{record.bytes_moved:,}B"
    if args.mode == "streaming":
        detail = f", {record.iterations} windows flushed"
    elif args.mode == "iteration":
        detail = (f", cache served {record.counters.get('cache.hit_bytes', 0)} "
                  f"bytes locally over {record.iterations} iterations")
    elif record.iterations is not None:
        detail = f", {record.iterations} iterations"
    else:
        detail = ""
    print(f"{args.name} on {args.engine}: {moved} moved{detail}; verified={ok}")
    return 0 if ok else 1


def _run_pooled_workload(args, workload, data, params, reference) -> int:
    """Serve one workload N times through a warm WorldPool; print latency."""
    import statistics
    import time

    from repro.serving import WorldPool
    from repro.workloads.splits import split_round_robin

    job = workload.job(data, params)
    splits = split_round_robin(list(data), job.conf.num_o)
    latencies: list[float] = []
    with WorldPool(num_o=job.conf.num_o, num_a=job.conf.num_a,
                   transport=args.transport) as pool:
        pool.register(args.name, job)
        pool.start()
        pool.run_job(args.name, splits)  # warm-up: pays the one-time scatter
        started = time.perf_counter()
        for _ in range(args.pool):
            t0 = time.perf_counter()
            result = pool.run_job(args.name, splits)
            latencies.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - started
    ok = workload.verify(result.merged_outputs(), reference)
    ordered = sorted(latencies)
    p50 = statistics.median(ordered)
    p99 = ordered[min(len(ordered) - 1, max(0, -(-99 * len(ordered) // 100) - 1))]
    transport = (getattr(args.transport, "name", args.transport)
                 or default_transport_name())
    print(f"pooled {args.name}: {args.pool} jobs in {elapsed:.3f}s on one "
          f"warm {job.conf.num_o}x{job.conf.num_a} {transport} world — "
          f"{args.pool / elapsed:.1f} jobs/s, p50 {p50 * 1e3:.1f}ms, "
          f"p99 {p99 * 1e3:.1f}ms; verified={ok}")
    return 0 if ok else 1


DEFAULT_MATRIX_DIR = "results/matrix"
DEFAULT_REPORTS_DIR = "reports"


def _storage_from_args(args):
    """Build the workload's StorageConfig from the CLI flags, or None."""
    if args.spill_threshold is None and args.spill_dir is None \
            and args.cache_bytes is None:
        return None
    from repro.storage import DEFAULT_SPILL_BYTES, StorageConfig

    return StorageConfig(
        cache_bytes=None if args.cache_bytes is None
        else parse_size(args.cache_bytes),
        spill_dir=args.spill_dir,
        spill_threshold=DEFAULT_SPILL_BYTES if args.spill_threshold is None
        else parse_size(args.spill_threshold),
    )


def _parallel_workers(value: str) -> int:
    """argparse type for --parallel: a clean usage error, not a traceback."""
    try:
        workers = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer worker count, got {value!r}"
        ) from None
    if workers < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (0 = one worker per CPU core), got {workers}"
        )
    return workers


def _cmd_experiment_list(args) -> int:
    from repro.experiments.matrix import checkpoint_status
    from repro.experiments.spec import cells_table, get_spec

    spec = get_spec(args.spec, transport=args.transport)
    status = checkpoint_status(spec, args.out)
    print(f"experiment {spec.name!r}: {len(spec.cells)} cells "
          f"(seed={spec.seed}, parallelism={spec.parallelism}, "
          f"max_iterations={spec.max_iterations}); "
          f"checkpoints under {args.out!r}")
    print(report.render_table(
        ["cell", "workload", "mode", "engine", "scale", "transport", "status"],
        cells_table(spec, status),
    ))
    counts: dict[str, int] = {}
    for state in status.values():
        counts[state] = counts.get(state, 0) + 1
    summary = ", ".join(f"{counts[s]} {s}" for s in
                        ("done", "failed", "stale", "pending") if s in counts)
    print(f"checkpoint status: {summary}")
    return 0


def _progress_line(result) -> None:
    state = "resumed" if result.resumed else result.status
    bytes_moved = ("-" if result.bytes_moved is None
                   else f"{result.bytes_moved:,}B")
    print(f"  [{state:>7}] {result.spec.cell_id:<40} "
          f"{result.elapsed_sec:7.3f}s  {bytes_moved}")


def _cmd_experiment_run(args) -> int:
    from repro.experiments.matrix import MatrixRunner, verify_cross_engine
    from repro.experiments.spec import get_spec

    name = "quick" if args.quick else args.spec
    spec = get_spec(name, transport=args.transport)
    if args.spill_budget is not None:
        import dataclasses

        spec = dataclasses.replace(
            spec, spill_budget_bytes=parse_size(args.spill_budget)
        )

    runner = MatrixRunner(spec, args.out, progress=_progress_line,
                          workers=args.parallel)
    how = "serially" if runner.workers <= 1 else f"on {runner.workers} workers"
    print(f"running experiment {spec.name!r} "
          f"({len(spec.cells)} cells, {how}) -> {args.out}")
    try:
        result = runner.run(resume=not args.no_resume)
    except KeyboardInterrupt:
        # Every finished cell was checkpointed as it finished, so the
        # run is resumable exactly where it stopped.
        print(f"interrupted: finished cells are checkpointed under "
              f"{args.out!r}; re-run 'experiment run' to resume",
              file=sys.stderr)
        return 130
    failed = result.failed_cells()
    agree = verify_cross_engine(result)
    print(f"done: {result.executed} executed, {result.resumed} resumed, "
          f"{len(failed)} failed; cross-engine outputs agree on "
          f"{sum(agree.values())}/{len(agree)} comparisons")
    for cell in failed:
        print(f"  FAILED {cell.spec.cell_id}: {cell.error}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_experiment_report(args) -> int:
    from repro.common.errors import ReproError
    from repro.experiments.matrix import load_matrix
    from repro.experiments.reportbuilder import ReportBuilder

    try:
        matrix = load_matrix(args.out)
    except ReproError as exc:
        print(f"cannot load matrix from {args.out!r}: {exc}", file=sys.stderr)
        return 2
    written = ReportBuilder(matrix, args.reports).build()
    if not matrix.complete:
        print(f"warning: matrix run is incomplete "
              f"({len(matrix.results)}/{len(matrix.spec.cells)} cells "
              f"recorded); figures have holes — re-run "
              f"'repro experiment run' to finish it", file=sys.stderr)
    print(f"report for experiment {matrix.spec.name!r} "
          f"({len(matrix.results)} cells):")
    for path in written:
        print(f"  {path}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run_lint

    return run_lint(
        args.paths,
        select=args.select,
        output_format=args.format,
        list_checkers=args.list_checkers,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="datampi-repro",
        description="Reproduce 'Performance Benefits of DataMPI' (2014)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments").set_defaults(func=_cmd_list)

    lint = sub.add_parser(
        "lint", help="run the repro-lint AST invariant checkers (see docs/linting.md)"
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(lint)
    lint.set_defaults(func=_cmd_lint)

    run = sub.add_parser("run", help="regenerate one table/figure")
    run.add_argument("experiment")
    run.add_argument("--executions", type=int, default=3)
    run.set_defaults(func=_cmd_run)

    sim = sub.add_parser("simulate", help="simulate one job")
    sim.add_argument("framework", choices=["hadoop", "spark", "datampi"])
    sim.add_argument("workload")
    sim.add_argument("size", help="input size, e.g. 8GB")
    sim.add_argument("--slots", type=int, default=4)
    sim.add_argument("--executions", type=int, default=3)
    sim.set_defaults(func=_cmd_simulate)

    wl = sub.add_parser("workload", help="run a functional workload")
    wl.add_argument("engine", choices=["hadoop", "spark", "datampi"])
    wl.add_argument("name", help="wordcount | grep | sort (= text_sort) | "
                                 "normal_sort | kmeans | naive_bayes")
    wl.add_argument("--lines", type=int, default=2000)
    wl.add_argument("--seed", type=int, default=0)
    wl.add_argument("--pattern", default=r"ba[a-z]*")
    wl.add_argument("--vectors", type=int, default=120,
                    help="input vectors for the kmeans workload")
    wl.add_argument("--k", type=int, default=5,
                    help="clusters for the kmeans workload")
    wl.add_argument("--transport", choices=available_transports(), default=None,
                    help="IPC backend for the datampi engine "
                         "(default: thread, or REPRO_TRANSPORT)")
    wl.add_argument("--hosts", default=None, metavar="H1,H2,...",
                    help="tcp transport only: comma-separated bind addresses; "
                         "ranks are assigned round-robin over the list")
    wl.add_argument("--port", type=int, default=0,
                    help="tcp transport only: rendezvous port (0 = ephemeral)")
    wl.add_argument("--mode", choices=EXECUTION_MODES, default="common",
                    help="execution mode for the datampi engine: run-once "
                         "jobs, kept-alive iteration with a KV cache, or "
                         "windowed streaming")
    wl.add_argument("--spill-threshold", default=None, metavar="SIZE",
                    help="per-rank receive-store memory budget (e.g. 4KB); "
                         "chunks past it spill to mmap-backed segment files "
                         "(datampi engine)")
    wl.add_argument("--spill-dir", default=None, metavar="DIR",
                    help="directory for spill segment files (default: a "
                         "private temp dir, removed on cleanup)")
    wl.add_argument("--cache-bytes", default=None, metavar="SIZE",
                    help="cross-superstep KV cache capacity (e.g. 1MB; "
                         "default unbounded; datampi engine)")
    wl.add_argument("--pool", type=int, default=None, metavar="N",
                    help="datampi engine, common mode: submit the workload "
                         "N times to one warm serving world (WorldPool) and "
                         "report sustained jobs/sec with p50/p99 latency, "
                         "instead of one cold run")
    wl.set_defaults(func=_cmd_workload)

    exp = sub.add_parser(
        "experiment",
        help="drive the workload x engine x scale matrix (see docs/experiments.md)",
    )
    exp_sub = exp.add_subparsers(dest="experiment_command", required=True)

    exp_list = exp_sub.add_parser(
        "list", help="list a matrix spec's cells and their checkpoint status"
    )
    exp_list.add_argument("--spec", choices=["quick", "full"], default="quick")
    exp_list.add_argument("--transport", choices=available_transports(),
                          default="inline",
                          help="IPC backend for the datampi-engine cells")
    exp_list.add_argument("--out", default=DEFAULT_MATRIX_DIR,
                          help="matrix checkpoint directory to inspect")
    exp_list.set_defaults(func=_cmd_experiment_list)

    exp_run = exp_sub.add_parser(
        "run", help="execute every cell (resumable, cell-level checkpoints)"
    )
    which = exp_run.add_mutually_exclusive_group()
    which.add_argument("--spec", choices=["quick", "full"], default="quick")
    which.add_argument("--quick", action="store_true",
                       help="shorthand for --spec quick")
    exp_run.add_argument("--out", default=DEFAULT_MATRIX_DIR,
                         help="matrix checkpoint/result directory")
    exp_run.add_argument("--no-resume", action="store_true",
                         help="re-execute cells even when checkpointed")
    exp_run.add_argument("--transport", choices=available_transports(),
                         default="inline",
                         help="IPC backend for the datampi-engine cells")
    exp_run.add_argument("--parallel", type=_parallel_workers, nargs="?",
                         const=0, default=1, metavar="N",
                         help="execute cells on a process pool of N workers "
                              "(bare --parallel sizes the pool to the CPU "
                              "count; default: serial).  Serial and parallel "
                              "runs render byte-identical reports")
    exp_run.add_argument("--spill-budget", default=None, metavar="SIZE",
                         help="per-rank receive-store memory budget for the "
                              "datampi cells (e.g. 4KB); over-budget chunks "
                              "spill to disk and cells report bytes_spilled")
    exp_run.set_defaults(func=_cmd_experiment_run)

    exp_report = exp_sub.add_parser(
        "report", help="render the recorded matrix into reports/"
    )
    exp_report.add_argument("--out", default=DEFAULT_MATRIX_DIR,
                            help="matrix directory to read")
    exp_report.add_argument("--reports", default=DEFAULT_REPORTS_DIR,
                            help="directory the figure artifacts go to")
    exp_report.set_defaults(func=_cmd_experiment_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
