"""The layer ladder (``--trace 1``): one workload's own data replayed
through each layer's public functions, timed from outside the program.

Nothing here runs during an end-to-end pass.  Each *round* climbs every
rung once: the job's O task against a stub context gives the emitted
records; those fed to a real ``PartitionedSendBuffer`` give the chunks;
the chunks go through the kv and wire codecs, through W's transport
inside a bench-owned ``main`` (timed between two barriers), and into
``ChunkStore``s built from the job's storage config, which the A task
then drains.  A few real jobs per round give ``job_s`` to compare the
rungs against.  Rounds repeat until ``--seconds`` is used up and every
rung reports its median over the rounds.

Time rungs are *work per job*: the sum over all ranks, scaled to one job
(a K-means job repeats its one captured superstep, a pooled job is one of
the captured inputs).  ``job.unattributed_s`` divides O-side and A-side
work by the ranks that run in parallel — see ``bench/README.md``.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Any

from repro.common.kv import decode_stream, encode_stream
from repro.datampi import (
    O_SPLITS_KEY,
    TAG_DATA,
    AContext,
    PartitionedSendBuffer,
    hash_partitioner,
)
from repro.mpi import mpi_run
from repro.mpi.transport import (
    BATCH_FLUSH_BYTES,
    BATCH_ITEM_MAX,
    decode_batch,
    decode_payload,
    encode_batch,
    encode_payload,
)
from repro.serving import WorldPool

from bench.runner import (
    JobLog,
    RunReport,
    prepared,
    run_job,
    run_scope,
)
from bench.speed import SpeedGauge
from bench.workloads import NUM_A, NUM_O, WORLD, LadderPlan, Workload

#: Real jobs per round (their median is the round's ``job_s``).
JOBS_PER_ROUND = 3
SHARED_BCASTS = 5
LAUNCHES = 3
PING = b"\0" * 64

#: name -> unit, in ladder order; ``BENCHMARK.json`` declares the same set.
LAYER_METRICS = {
    "kv.encode_s": "s", "kv.decode_s": "s", "kv.encoded_bytes": "bytes",
    "partition.route_s": "s",
    "buffers.add_flush_s": "s", "buffers.chunks": "count",
    "buffers.sent_ratio": "ratio",
    "codec.payload_roundtrip_s": "s", "codec.batch_roundtrip_s": "s",
    "transport.launch_s": "s", "transport.stream_s": "s",
    "transport.rtt_us": "us", "transport.collective_us": "us",
    "transport.shared_bcast_s": "s",
    "chunkstore.add_s": "s", "chunkstore.merge_s": "s",
    "spill.bytes_spilled": "bytes", "spill.spill_reads": "count",
    "kvcache.put_get_s": "s", "kvcache.hit_ratio": "ratio",
    "modes.first_step_s": "s", "modes.warm_step_s": "s",
    "modes.control_bytes": "bytes",
    "pool.start_s": "s", "pool.noop_job_s": "s",
    "workloads.o_task_s": "s", "workloads.a_task_s": "s",
    "workloads.reference_s": "s",
    "job.unattributed_s": "s",
}


class _Timer:
    """Accumulates the wall time of ``with`` blocks."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def __enter__(self) -> "_Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.seconds += time.perf_counter() - self._started


class _StubOContext:
    """Records what an O task sends; no partitioning, no buffers."""

    cache = None
    superstep = None

    def __init__(self) -> None:
        self.records: list[tuple[Any, Any]] = []

    def send(self, key: Any, value: Any) -> None:
        self.records.append((key, value))


# -- transport rungs: a bench-owned main on W's backend ------------------------


def _noop(_comm: Any) -> None:
    return None


def _transport_probe(comm: Any, chunks: list[tuple[int, int, bytes]],
                     bcast_payload: bytes, rounds: int) -> dict[str, float]:
    """Runs on every rank of a 4-rank world."""
    rank = comm.rank
    first_a = NUM_O
    timings: dict[str, float] = {}

    # Streaming 1:1 — O ranks push W's chunks, A ranks take zero-copy
    # views; an A rank's clock stops at its last chunk.
    comm.barrier()
    started = time.perf_counter()
    for o_rank, a_index, payload in chunks:
        if o_rank == rank:
            comm.send(first_a + a_index, payload, TAG_DATA)
        elif first_a + a_index == rank:
            comm.recv(tag=TAG_DATA, buffer=True)
    timings["stream_s"] = time.perf_counter() - started
    comm.barrier()

    # 64-byte ping-pong between an O rank and an A rank.
    started = time.perf_counter()
    for _ in range(rounds):
        if rank == 0:
            comm.send(first_a, PING, 7)
            comm.recv(source=first_a, tag=8)
        elif rank == first_a:
            comm.recv(source=0, tag=7)
            comm.send(0, PING, 8)
    timings["rtt_us"] = (time.perf_counter() - started) / rounds * 1e6
    comm.barrier()

    # One control round as the mode drivers and the pool do it.
    started = time.perf_counter()
    for _ in range(rounds):
        comm.bcast(PING if rank == 0 else None, root=0)
        comm.barrier()
    timings["collective_us"] = (time.perf_counter() - started) / rounds * 1e6

    # Shared 1 writer / 3 readers: the root's largest broadcast payload.
    started = time.perf_counter()
    for _ in range(SHARED_BCASTS):
        comm.bcast(bcast_payload if rank == 0 else None, root=0)
        comm.barrier()
    timings["shared_bcast_s"] = (time.perf_counter() - started) / SHARED_BCASTS
    return timings


def _transport_rungs(transport: str, chunks: list[tuple[int, int, bytes]],
                     plan: LadderPlan, rounds: int) -> dict[str, float]:
    launches = []
    for _ in range(LAUNCHES):
        with _Timer() as timer:
            mpi_run(WORLD, _noop, transport=transport)
        launches.append(timer.seconds)
    by_rank = mpi_run(WORLD, _transport_probe,
                      args=(chunks, plan.bcast_payload, rounds), transport=transport)
    return {
        "transport.launch_s": statistics.median(launches),
        # The stream is done when the slower A rank has its last chunk.
        "transport.stream_s": max(t["stream_s"] for t in by_rank[NUM_O:]) * plan.per_job,
        "transport.rtt_us": by_rank[0]["rtt_us"],
        "transport.collective_us": by_rank[0]["collective_us"],
        "transport.shared_bcast_s": by_rank[0]["shared_bcast_s"],
    }


def _pool_rungs(transport: str, pool_job: Any, jobs: int) -> dict[str, float]:
    """Pure dispatch + recycle: empty-splits jobs on a fresh warm pool."""
    empty = [[] for _ in range(NUM_O)]
    pool = WorldPool(num_o=NUM_O, num_a=NUM_A, transport=transport)
    pool.register("noop", pool_job)
    try:
        with _Timer() as start:
            pool.start()
            pool.run_job("noop", empty)
        samples = []
        for _ in range(jobs):
            with _Timer() as timer:
                pool.run_job("noop", empty)
            samples.append(timer.seconds)
    finally:
        pool.close()
    return {"pool.start_s": start.seconds,
            "pool.noop_job_s": statistics.median(samples)}


# -- the rungs the driver climbs itself ----------------------------------------

Chunk = tuple[int, int, bytes]  # (O rank, A index, encoded payload)


def _o_side(plan: LadderPlan) -> tuple[dict[str, float], list[list[Chunk]]]:
    """O task -> partitioner -> send buffers; returns each superstep's chunks."""
    conf = plan.conf
    partitioner = conf.partitioner or hash_partitioner
    o_task, route, add_flush = _Timer(), _Timer(), _Timer()
    emitted = sent = 0
    step_chunks: list[list[Chunk]] = []
    for step in plan.supersteps:
        chunks: list[Chunk] = []
        for o_rank, splits in enumerate(step):
            ctx = _StubOContext()
            with o_task:
                for split in splits:
                    plan.o_task(ctx, split)
            with route:
                destinations = [partitioner(key, NUM_A) for key, _ in ctx.records]

            def sink(a_index: int, payload: bytes, o_rank: int = o_rank) -> None:
                chunks.append((o_rank, a_index, payload))

            buffer = PartitionedSendBuffer(
                NUM_A, sink, sort=conf.sort, combiner=conf.combiner,
                threshold_bytes=conf.send_buffer_bytes)
            with add_flush:
                for (key, value), destination in zip(ctx.records, destinations):
                    buffer.add(destination, key, value)
                buffer.flush_all()
            emitted += buffer.records_buffered
            sent += buffer.records_sent
        step_chunks.append(chunks)
    return {
        "workloads.o_task_s": o_task.seconds * plan.per_job,
        "partition.route_s": route.seconds * plan.per_job,
        "buffers.add_flush_s": add_flush.seconds * plan.per_job,
        "buffers.chunks": sum(map(len, step_chunks)) * plan.per_job,
        "buffers.sent_ratio": sent / emitted,
    }, step_chunks


def _codec_rungs(payloads: list[bytes], plan: LadderPlan,
                 on_wire: bool) -> dict[str, float]:
    """common.kv over every chunk; the wire codec over what W's backend
    frames (the thread backend passes payloads by reference: nothing)."""
    with _Timer() as decode:
        decoded = [list(decode_stream(payload)) for payload in payloads]
    with _Timer() as encode:
        for records in decoded:
            encode_stream(records)

    with _Timer() as payload_roundtrip:
        for payload in (payloads + plan.control if on_wire else []):
            fmt, parts, _total = encode_payload(payload)
            decode_payload(fmt, b"".join(parts))
    # The shm backend coalesces chunks up to BATCH_ITEM_MAX into slots of
    # up to BATCH_FLUSH_BYTES.
    batches: list[list[tuple[int, bytes]]] = [[]]
    size = 0
    for payload in (payloads if on_wire else []):
        if len(payload) > BATCH_ITEM_MAX:
            continue
        if size + len(payload) > BATCH_FLUSH_BYTES:
            batches.append([])
            size = 0
        batches[-1].append((TAG_DATA, payload))
        size += len(payload)
    with _Timer() as batch_roundtrip:
        for batch in batches:
            decode_batch(encode_batch(batch))
    return {
        "kv.decode_s": decode.seconds * plan.per_job,
        "kv.encode_s": encode.seconds * plan.per_job,
        "kv.encoded_bytes": sum(map(len, payloads)) * plan.per_job,
        "codec.payload_roundtrip_s": payload_roundtrip.seconds * plan.per_job,
        "codec.batch_roundtrip_s": batch_roundtrip.seconds * plan.per_job,
    }


def _a_side(plan: LadderPlan, step_chunks: list[list[Chunk]]) -> dict[str, float]:
    """Chunk stores built from the job's storage config, then the A task."""
    conf = plan.conf
    add, merge, a_task = _Timer(), _Timer(), _Timer()
    bytes_spilled = spill_reads = 0
    for chunks in step_chunks:
        stores = [conf.storage.make_store() for _ in range(NUM_A)]
        try:
            sequence: dict[tuple[int, int], int] = {}
            with add:
                for o_rank, a_index, payload in chunks:
                    number = sequence.get((o_rank, a_index), 0)
                    sequence[o_rank, a_index] = number + 1
                    stores[a_index].add(payload, origin=(o_rank, number))
            with merge:
                for store in stores:
                    for _record in store.merged(sort=conf.sort):
                        pass
            bytes_spilled += sum(store.bytes_spilled for store in stores)
            spill_reads += sum(store.spill_reads for store in stores)
            for a_index, store in enumerate(stores):
                ctx = AContext(None, store, sort=conf.sort, a_index=a_index)
                with a_task:
                    plan.a_task(ctx)
        finally:
            for store in stores:
                store.cleanup()
    return {
        "chunkstore.add_s": add.seconds * plan.per_job,
        "chunkstore.merge_s": merge.seconds * plan.per_job,
        "spill.bytes_spilled": bytes_spilled * plan.per_job,
        "spill.spill_reads": spill_reads * plan.per_job,
        "workloads.a_task_s": a_task.seconds * plan.per_job,
    }


def _cache_rung(plan: LadderPlan) -> dict[str, float]:
    """Pin and re-read each O rank's splits, where W's driver does."""
    timer = _Timer()
    if plan.uses_cache:
        cache = plan.conf.storage.make_cache()
        for step in plan.supersteps:
            for splits in step:
                with timer:
                    cache.put(O_SPLITS_KEY, splits)
                    cache.get(O_SPLITS_KEY)
    return {"kvcache.put_get_s": timer.seconds * plan.per_job}


def _job_rungs(workload: Workload, log: JobLog) -> dict[str, float]:
    """A few real jobs: ``job_s`` for this round, and what only a job's
    own result can tell (cache hits, per-superstep timings, control bytes)."""
    jobs = JobLog()
    results = [run_job(workload, jobs, timed=True) for _ in range(JOBS_PER_ROUND)]
    log.attempted += jobs.attempted
    log.failures += jobs.failures
    result = next((r for r in results if r is not None), None)
    counters = result.counters if result is not None else {}
    timings = getattr(result, "timings", [])
    lookups = counters.get("cache.hits", 0) + counters.get("cache.misses", 0)
    return {
        "job_s": statistics.median(jobs.wall) if jobs.wall else 0.0,
        "kvcache.hit_ratio": counters.get("cache.hits", 0) / lookups if lookups else 0.0,
        "modes.first_step_s": timings[0] if timings else 0.0,
        "modes.warm_step_s": statistics.median(timings[1:]) if timings[1:] else 0.0,
        "modes.control_bytes": sum(counters.get(f"mode.{kind}_bytes", 0)
                                   for kind in ("state", "scatter", "gather")),
    }


def _round(workload: Workload, plan: LadderPlan, log: JobLog) -> dict[str, float]:
    """Every rung once.  A rung reads 0 where its layer is not on W's path."""
    rungs, step_chunks = _o_side(plan)
    chunks = [chunk for step in step_chunks for chunk in step]
    rungs.update(_codec_rungs([payload for _o, _a, payload in chunks], plan,
                              on_wire=workload.transport != "thread"))
    rungs.update(_a_side(plan, step_chunks))
    rungs.update(_cache_rung(plan))
    with _Timer() as reference:
        workload.reference()
    rungs["workloads.reference_s"] = reference.seconds
    rungs.update(_job_rungs(workload, log))
    probes = workload.scale.probe_rounds
    rungs.update(_transport_rungs(workload.transport, chunks, plan, probes))
    rungs.update(_pool_rungs(workload.transport, plan.pool_job, probes)
                 if plan.pool_job is not None
                 else {"pool.start_s": 0.0, "pool.noop_job_s": 0.0})

    # Along the blocking path the ranks of one side work side by side on a
    # process backend; on the thread backend the GIL serialises them.  A
    # pooled job pays no launch.
    lanes = 1 if workload.transport == "thread" else min(NUM_O, os.cpu_count() or 1)
    o_side = (rungs["workloads.o_task_s"] + rungs["partition.route_s"]
              + rungs["buffers.add_flush_s"])
    a_side = rungs["chunkstore.add_s"] + rungs["workloads.a_task_s"]
    launch = 0.0 if plan.pool_job is not None else rungs["transport.launch_s"]
    rungs["job.unattributed_s"] = rungs["job_s"] - (o_side + a_side) / lanes - launch
    return rungs


def run_ladder(name: str, seed: int, seconds: float,
               scale_name: str = "full") -> RunReport:
    """The per-layer pass (``--trace 1``) of one workload."""
    log = JobLog()
    started = time.perf_counter()
    with SpeedGauge() as gauge, run_scope(name) as (tmp_dir, before):
        workload, _setup_s, _raw_setup_s = prepared(
            name, seed, scale_name, tmp_dir, repeats=1)
        try:
            plan = workload.plan()
            rounds: list[dict[str, float]] = []
            longest = 0.0
            # No new round that would overrun ``seconds``; always one.
            while not rounds or time.perf_counter() - started + longest < seconds:
                round_started = time.perf_counter()
                rounds.append(_round(workload, plan, log))
                gauge.sample()
                longest = max(longest, time.perf_counter() - round_started)
        finally:
            workload.close()
        log.failures += [f"leak: {leak}" for leak in before.leaks_since(tmp_dir)]
    ladder_s = time.perf_counter() - started

    note = f"median of {len(rounds)} round(s); times are raw seconds"
    metrics = {
        metric: (statistics.median(r[metric] for r in rounds), unit, note)
        for metric, unit in LAYER_METRICS.items()
    }
    job_s = statistics.median(r["job_s"] for r in rounds)
    extra = {"ladder job_s (raw s)": job_s,
             "ladder_s (raw s)": ladder_s,
             "machine speed factor": gauge.median(),
             "job_s / workloads.reference_s": job_s / metrics["workloads.reference_s"][0]}
    if metrics["modes.first_step_s"][0]:
        extra["modes.warm_step_s / first_step_s"] = (
            metrics["modes.warm_step_s"][0] / metrics["modes.first_step_s"][0])
    return RunReport(name, seed, scale_name, metrics, log.attempted, log.failures,
                     extra=extra)
