"""The five workloads.  Each runs once per process and fills one :class:`Outcome`.

A workload has three parts: **set-up** (timed as ``setup_s``), a **timed
section** (``--seconds`` of wall time, tracing off unless this is the traced
pass) and **verification** (answers against a fresh serial processor; never
inside either timing).  The traced pass runs a quarter of the time with
tracing on, interleaved with an equal untraced share so that the tracing
overhead is measured inside one process on one database, and then runs the
layer probes.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from collections import ChainMap
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Mapping

from benchmarks.e2e import layers, probes, queries, spec
from benchmarks.e2e import spans as span_math
from benchmarks.e2e.environment import ROOT, tree_peak_rss_mb
from benchmarks.e2e.loadgen import (
    Run,
    closed_loop,
    open_loop,
    poisson_due_times,
    virtual_callers,
)
from benchmarks.e2e.stats import median, percentile
from repro import obs
from repro.utils.timing import now

#: Queries in one traced (or untraced reference) slice of the traced pass: two
#: full cycles of the shapes, so both sides of the overhead ratio see one mix.
SLICE_QUERIES = 2 * len(queries.SHAPES)


@dataclass
class Context:
    """What one run was asked to do."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    entities: int
    scratch: Path


@dataclass
class Outcome:
    """What one run measured: metrics by name, and the failure account."""

    metrics: dict[str, dict[str, object]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, samples: int = 1) -> None:
        self.metrics[name] = {
            "value": float(value), "unit": spec.METRICS[name].unit, "samples": int(samples)
        }

    def put_all(self, values: Mapping[str, float], samples: int = 1) -> None:
        for name, value in values.items():
            self.put(name, value, samples)

    def count(self, *runs: Run) -> None:
        for run in runs:
            self.attempted += run.attempted
            self.failed += run.failed
            if run.first_error:
                self.notes.append(f"first error: {run.first_error}")

    def check(self, verdict: queries.Verdict) -> None:
        self.failed += verdict.failures
        self.notes.append(f"oracle: {verdict.checked} answers compared bit for bit, "
                          f"{verdict.failures} differ")
        if verdict.first_problem:
            self.notes.append(f"first problem: {verdict.first_problem}")


# ----------------------------------------------------------------- shared parts
def build_database(entities: int):
    from repro.testing import build_synthetic_columnar_database

    return build_synthetic_columnar_database(**{**spec.DATABASE, "num_entities": entities})


def inproc_engine(database):
    from repro.serving import ShardedSubjectiveQueryEngine

    return ShardedSubjectiveQueryEngine(database=database, **spec.INPROC)


def fleet_engine(database):
    from repro.serving import ClusterQueryEngine

    return ClusterQueryEngine(database=database, **spec.FLEET)


def warm_up(engine) -> float:
    """Build columns and (on a fleet) hydrate the nodes; seconds of the first query."""
    started = now()
    engine.execute(queries.WARMUP_QUERIES[0])
    first_s = now() - started
    engine.execute(queries.WARMUP_QUERIES[1])
    return first_s


def prepare_tracing() -> None:
    """Install a store large enough for a whole pass, tracing still off.

    Must run before a fleet is forked: nodes inherit the store they record
    into, and the default 4096-span ring would drop most of a pass.
    """
    obs.enable_tracing(obs.TraceStore(capacity=1_000_000))
    obs.disable_tracing()


@contextmanager
def tracing(on: bool) -> Iterator[None]:
    """Span recording on for the block when ``on``; always off afterwards."""
    if on:
        obs.enable_tracing()
    try:
        yield
    finally:
        obs.disable_tracing()


@dataclass
class ReadPass:
    """The timed reads of one pass: ``main`` is what the pass reports.

    In the traced pass ``main`` ran with tracing on and ``reference`` is the
    interleaved untraced share; otherwise ``reference`` is ``None``.
    """

    main: Run
    reference: Run | None = None

    @property
    def runs(self) -> tuple[Run, ...]:
        return (self.main,) if self.reference is None else (self.main, self.reference)

    @property
    def served(self) -> list:
        return [item for run in self.runs for item in run.served]

    @property
    def overhead_share(self) -> float:
        if self.reference is None or not self.reference.throughput:
            return 0.0
        return 1.0 - self.main.throughput / self.reference.throughput


def read_pass(execute: Callable[[str], object], stream: Iterator[str], seconds: float,
              traced: bool) -> ReadPass:
    """Closed-loop reads for ``seconds``; traced passes interleave on/off slices."""
    if not traced:
        return ReadPass(closed_loop(execute, stream, seconds))
    result = ReadPass(Run(), Run())
    budget = seconds * spec.TRACED_FRACTION
    while result.main.elapsed < budget:
        with tracing(True):
            closed_loop(execute, stream, count=SLICE_QUERIES, run=result.main)
        closed_loop(execute, stream, count=SLICE_QUERIES, run=result.reference)
    return result


def engine_view(engine) -> dict[str, float]:
    """Engine (and, on a fleet, transport) counters as one flat dict."""
    view = layers.engine_counters(engine.stats_snapshot())
    transport = getattr(engine.sharded_store, "transport_counters", None)
    if transport is not None:
        view.update(layers.transport_counters(transport()))
    return view


def collected_spans(engine) -> list[dict]:
    """This process's spans plus, on a fleet, every node's."""
    rows = [record.as_dict() for record in obs.global_trace_store().spans()]
    node_traces = getattr(engine.sharded_store, "node_traces", None)
    if node_traces is not None:
        rows.extend(node_traces())
    return rows


def report_reads(out: Outcome, reads: ReadPass) -> None:
    out.count(*reads.runs)
    for name, (value, samples) in reads.main.latency_metrics().items():
        out.put(name, value, samples)
    out.put("throughput_qps", reads.main.throughput, reads.main.completed)


def report_layers(out: Outcome, reads: ReadPass, moved: Mapping[str, float],
                  span_rows: list[dict], root_name: str = "query",
                  traced_wall: float | None = None, answered: int | None = None) -> None:
    """The counter- and span-derived per-layer metrics of a traced pass.

    ``traced_wall`` is the externally timed wall time of every traced query
    and ``answered`` the number of queries the counter deltas ``moved`` cover;
    by default the reads of ``reads.main`` and of both runs respectively.
    """
    if answered is None:
        answered = sum(run.completed for run in reads.runs)
    out.put_all(layers.counter_metrics(moved, answered), answered)
    wall = sum(reads.main.latencies) if traced_wall is None else traced_wall
    out.put_all(layers.span_metrics(span_rows, root_name, wall), reads.main.completed)
    out.put("obs.trace_overhead_share", reads.overhead_share, reads.main.completed)


def verify_sample(out: Outcome, served: list, database,
                  verdict: queries.Verdict | None = None) -> None:
    """Compare a fixed sample of the served answers with a fresh oracle.

    Every served answer must have ``TOP_K`` rows; an evenly spaced sample
    (the first answer included) is also compared with the serial processor on
    ids, scores and predicate degrees.
    """
    verdict = queries.Verdict() if verdict is None else verdict
    for sql, answer in served:
        if len(answer.entity_ids) != spec.TOP_K:
            verdict.note("short", sql)
    sample = queries.evenly_spaced(served, spec.ORACLE_SAMPLE)
    out.check(queries.verify(sample, queries.Oracle(database), verdict))


# ------------------------------------------------------------- cold_inproc/cluster
def run_cold(ctx: Context, out: Outcome, make_engine: Callable) -> None:
    """``cold_inproc`` and ``cold_cluster``: one closed-loop caller, fresh phrases."""
    started = now()
    if ctx.traced:
        prepare_tracing()
    database = build_database(ctx.entities)
    with make_engine(database) as engine:
        hydrate_s = warm_up(engine)
        out.put("setup_s", now() - started)

        before = engine_view(engine)
        reads = read_pass(engine.execute, queries.cold_stream(ctx.seed), ctx.seconds, ctx.traced)
        moved = layers.delta(engine_view(engine), before)
        out.put("peak_rss_mb", tree_peak_rss_mb())
        report_reads(out, reads)
        if ctx.traced:
            report_layers(out, reads, moved, collected_spans(engine))
            if ctx.workload in spec.FLEET_WORKLOADS:
                out.put("cluster.hydrate_s", hydrate_s)
    verify_sample(out, reads.served, database)
    if ctx.traced:
        out.put_all(probes.layer_probes(database))


def cold_inproc(ctx: Context, out: Outcome) -> None:
    run_cold(ctx, out, inproc_engine)


def cold_cluster(ctx: Context, out: Outcome) -> None:
    run_cold(ctx, out, fleet_engine)


# --------------------------------------------------------------------- ingest_mix
def ingest_mix(ctx: Context, out: Outcome) -> None:
    """Rounds of one single-entity ingest, its first fresh answer, then plain reads.

    The fresh answer is compared at once (outside the timing) with a *fresh*
    serial processor on the post-ingest database, because the next round
    changes the database again.  Traced passes alternate traced and untraced
    rounds.
    """
    started = now()
    if ctx.traced:
        prepare_tracing()
    database = build_database(ctx.entities)
    stream = queries.cold_stream(ctx.seed)
    fresh: list[float] = []
    verdict = queries.Verdict()
    with fleet_engine(database) as engine:
        hydrate_s = warm_up(engine)
        out.put("setup_s", now() - started)

        reads = ReadPass(Run(), Run() if ctx.traced else None)
        firsts = Run()
        budget = ctx.seconds * (2 * spec.TRACED_FRACTION if ctx.traced else 1.0)
        timed = traced_wall = 0.0
        rounds = 0
        before = engine_view(engine)
        while rounds < 2 or timed < budget:
            traced_round = ctx.traced and rounds % 2 == 0
            target = reads.reference if ctx.traced and not traced_round else reads.main
            with tracing(traced_round):
                began = now()
                probes.ingest_one(database, rounds)
                closed_loop(engine.execute, stream, count=1, run=firsts)
                fresh_s = now() - began
                closed_loop(engine.execute, stream, count=spec.INGEST_READS_PER_ROUND,
                            run=target)
                timed += now() - began
            rounds += 1
            if firsts.completed > len(fresh):
                fresh.append(fresh_s)
                traced_wall += firsts.latencies[-1] if traced_round else 0.0
                queries.verify(firsts.served[-1:], queries.Oracle(database), verdict)
        moved = layers.delta(engine_view(engine), before)
        out.put("peak_rss_mb", tree_peak_rss_mb())

        out.count(firsts, *reads.runs)
        for name, (value, samples) in reads.main.latency_metrics().items():
            out.put(name, value, samples)
        answered = firsts.completed + sum(run.completed for run in reads.runs)
        out.put("throughput_qps", answered / timed, answered)
        if fresh:
            out.put("fresh_p50_ms", 1e3 * median(fresh), len(fresh))
        if ctx.traced:
            report_layers(out, reads, moved, collected_spans(engine),
                          traced_wall=traced_wall + sum(reads.main.latencies),
                          answered=answered)
            out.put("cluster.hydrate_s", hydrate_s)
    out.check(verdict)
    out.notes.append(f"{rounds} rounds of 1 ingest + 1 fresh read + "
                     f"{spec.INGEST_READS_PER_ROUND} reads")
    if ctx.traced:
        out.put_all(probes.layer_probes(database))


# ------------------------------------------------------------------------ children
@contextmanager
def child_process(role: str, *arguments: str, traced: bool = False):
    """A benchmark child (``child.py``) speaking JSON lines; always reaped."""
    process = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e.child", role, *arguments,
         "--traced", str(int(traced))],
        cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
    )
    try:
        yield process
    finally:
        try:
            process.stdin.close()  # EOF asks the child to stop
            process.wait(timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            process.kill()
            process.wait()
        process.stdout.close()


def child_reply(process: subprocess.Popen, command: dict | None = None) -> dict:
    """Send one command (if any) and read one JSON reply line."""
    if command is not None:
        process.stdin.write(json.dumps(command) + "\n")
        process.stdin.flush()
    line = process.stdout.readline()
    if not line:
        raise RuntimeError(f"benchmark child exited early (status {process.poll()})")
    reply = json.loads(line)
    if "error" in reply:
        raise RuntimeError(f"benchmark child failed: {reply['error']}")
    return reply


# ------------------------------------------------------------------- zipf_gateway
@dataclass
class GatewayTraffic:
    """What the load generator saw and fetched while driving the gateway."""

    warm: list
    closed: Run      # saturating closed loop: every virtual caller
    light: Run       # light closed loop: one caller per connection
    opened: Run      # open loop at a fixed rate
    reference: Run | None
    stats_before: dict
    stats_after: dict
    span_rows: list[dict]

    @property
    def runs(self) -> list[Run]:
        timed = [self.closed, self.light, self.opened]
        return timed if self.reference is None else [*timed, self.reference]


def zipf_gateway(ctx: Context, out: Outcome) -> None:
    """Saturating closed loop, light closed loop, then open loop, on a gateway child.

    Throughput is the saturating loop's; the gated latencies are the light
    loop's (hundreds of samples, no arrival randomness); the open loop's
    latencies, timed from the due time, are reported as informational.
    """
    started = now()
    pool = queries.zipf_pool()
    with child_process("gateway", str(ctx.entities), traced=ctx.traced) as child:
        # The probes' database builds here while the child builds its own.
        probe_database = build_database(ctx.entities) if ctx.traced else None
        ready = child_reply(child)
        traffic = asyncio.run(_drive_gateway(ctx, out, pool, ready["address"], child, started))
        out.put("peak_rss_mb", tree_peak_rss_mb())
        answers = child_reply(child, {"command": "oracle", "queries": pool})["answers"]
    closed, light, opened = traffic.closed, traffic.light, traffic.opened
    out.attempted += len(traffic.warm)
    out.count(*traffic.runs)
    out.put("throughput_qps", closed.throughput, closed.completed)
    for name, (value, samples) in light.latency_metrics().items():
        out.put(name, value, samples)
    open_metrics = opened.latency_metrics()
    for name in ("latency_p50_ms", "latency_p90_ms"):
        if name in open_metrics:
            out.put(f"open_{name}", *open_metrics[name])
    lateness_p99_ms = 1e3 * percentile(opened.lateness, 99.0) if opened.lateness else 0.0
    out.notes.append(
        f"closed loop {spec.GATEWAY_CALLERS} callers x {closed.completed} requests, "
        f"{spec.GATEWAY_CONNECTIONS} callers x {light.completed} requests, then open loop "
        f"{spec.GATEWAY_OPEN_RPS:g} rps x {opened.attempted} requests (generator lateness "
        f"p99 {lateness_p99_ms:.3f} ms); {spec.GATEWAY_CONNECTIONS} connections"
    )

    expected = queries.KnownAnswers(
        (sql, queries.Answer.from_json(answer)) for sql, answer in zip(pool, answers)
    )
    served = traffic.warm + [item for run in traffic.runs for item in run.served]
    out.check(queries.verify(served, expected, queries.Verdict()))

    if ctx.traced:
        _report_gateway_layers(out, traffic)
        out.put("gateway.generator_late_p99_ms", lateness_p99_ms, len(opened.lateness))
        out.put("cluster.hydrate_s", float(ready["hydrate_s"]))
        out.put_all(probes.layer_probes(probe_database))


async def _drive_gateway(ctx: Context, out: Outcome, pool: list[str], address: list,
                         child: subprocess.Popen, started: float) -> GatewayTraffic:
    from repro.serving import AsyncGatewayClient

    clients = [
        await AsyncGatewayClient.connect(*address, max_frame_bytes=spec.FLEET["max_frame_bytes"])
        for _ in range(spec.GATEWAY_CONNECTIONS)
    ]
    connections = [client.query for client in clients]
    try:
        # Warm every pooled query once: afterwards plans, candidates and all
        # 12 phrases' membership entries are cached.
        warm = [(sql, queries.Answer.of_reply(await connections[0](sql))) for sql in pool]
        out.put("setup_s", now() - started)

        budget = ctx.seconds * (spec.TRACED_FRACTION if ctx.traced else 1.0)
        seconds = {phase: budget * share for phase, share in spec.GATEWAY_PHASES.items()}
        rng = random.Random(f"traffic-{ctx.seed}")
        due = poisson_due_times(rng, spec.GATEWAY_OPEN_RPS, seconds["open"])
        schedule = queries.zipf_schedule(pool, rng, len(due))
        callers = [queries.zipf_schedule(pool, rng, 100_000) for _ in range(spec.GATEWAY_CALLERS)]
        if ctx.traced:
            child_reply(child, {"command": "trace", "on": True})
        before = await clients[0].stats()
        # Heaviest first: the first seconds of traffic after the warm-up still
        # settle batch and cache paths, which saturation throughput shrugs off
        # but latency at a light load does not.
        closed = await virtual_callers(connections, callers, seconds["closed"])
        light = await virtual_callers(connections, callers[: len(connections)], seconds["light"])
        opened = await open_loop(connections, schedule, due)
        after = await clients[0].stats()
        span_rows: list[dict] = []
        reference = None
        if ctx.traced:
            span_rows = await clients[0].traces()
            child_reply(child, {"command": "trace", "on": False})
            reference = await virtual_callers(connections, callers, seconds["closed"])
    finally:
        for client in clients:
            await client.close()
    return GatewayTraffic(warm, closed, light, opened, reference, before, after, span_rows)


def _report_gateway_layers(out: Outcome, traffic: GatewayTraffic) -> None:
    """Per-layer metrics of the traced gateway pass, from its stats and spans."""
    before, after = traffic.stats_before, traffic.stats_after
    views = [
        {**layers.engine_counters(stats["engine"]["stats"]),
         **layers.partition_counters(stats["engine"]["stats"], stats["engine"]["partitions"])}
        for stats in (before, after)
    ]
    traced = (traffic.closed, traffic.light, traffic.opened)
    traced_wall = sum(sum(run.latencies) for run in traced)
    report_layers(out, ReadPass(traffic.closed, traffic.reference),
                  layers.delta(views[1], views[0]), traffic.span_rows, "gateway_request",
                  traced_wall=traced_wall, answered=sum(run.completed for run in traced))

    moved = {name: float(after["gateway"][name] - before["gateway"][name])
             for name in ("requests", "coalesced_hits", "batches", "batched_queries",
                          "rejections")}
    requests = moved["requests"] or 1.0
    traced_requests = len(span_math.named(traffic.span_rows, "gateway_request")) or 1
    queue_self = span_math.self_seconds_by_name(traffic.span_rows).get("gateway_request", 0.0)
    out.put("gateway.queue_self_ms", 1e3 * queue_self / traced_requests, traced_requests)
    out.put("gateway.queue_self_share", queue_self / (traced_wall or 1.0), traced_requests)
    out.put("gateway.coalesced_share", moved["coalesced_hits"] / requests, int(requests))
    out.put("gateway.batch_mean", moved["batched_queries"] / (moved["batches"] or 1.0),
            int(moved["batches"]))
    out.put("gateway.rejected", moved["rejections"], int(requests))


# ------------------------------------------------------------------------ restart
def directory_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(directory)
        for name in names
    )


@contextmanager
def timing_calls(owner: object, *names: str) -> Iterator[dict[str, float]]:
    """Temporarily wrap ``owner.<name>`` callables; yields seconds spent per name.

    The benchmark-side span around a public function the program calls
    itself: ``database.save`` is one call from outside, and this is how its
    pack / file-write / catalog-write parts are told apart without editing it.
    """
    spent = {name: 0.0 for name in names}
    originals = {name: getattr(owner, name) for name in names}

    def wrap(name: str, function: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            began = now()
            try:
                return function(*args, **kwargs)
            finally:
                spent[name] += now() - began
        return wrapper

    for name, function in originals.items():
        setattr(owner, name, wrap(name, function))
    try:
        yield spent
    finally:
        for name, function in originals.items():
            setattr(owner, name, function)


@contextmanager
def save_parts(enabled: bool) -> Iterator[Mapping[str, float]]:
    """Seconds ``database.save`` spends in each of its parts (traced pass only)."""
    from repro.storage import StorageCatalog, persist

    if not enabled:
        yield {}
        return
    with timing_calls(persist, "raw_summary_columns", "attribute_sections", "pack_column_file",
                      "write_bytes_atomically") as files, \
            timing_calls(StorageCatalog, "replace_state") as catalog:
        yield ChainMap(files, catalog)


def restart(ctx: Context, out: Outcome) -> None:
    """Save, ingest, re-save, then boot a fresh process from the directory.

    The cycle count scales with ``--seconds`` but the parts are what they are:
    at this scale one full save plus one re-save already take about as long as
    the default ``--seconds``.  The booted child answers one first query
    (ending ``boot_s``), then serves a cold stream from the mapped columns;
    its answers are compared with the in-RAM database's serial processor.
    """
    from repro.storage.persist import COLUMNS_SUBDIR

    started = now()
    database = build_database(ctx.entities)
    build_s = now() - started
    cycles = max(1, round(ctx.seconds / 15.0))
    stream_seconds = max(1.0, ctx.seconds / 2.0)
    directory = tempfile.mkdtemp(prefix="restart-", dir=ctx.scratch)
    saves: list[float] = []
    boots: list[dict] = []
    try:
        began = now()
        database.save(directory)
        save_s = now() - began
        for cycle in range(cycles):
            probes.ingest_one(database, cycle)
            size_before = directory_bytes(directory)
            with save_parts(ctx.traced) as spent:
                began = now()
                database.save(directory)
                saves.append(now() - began)
            written = directory_bytes(directory) - size_before
            # Only the last boot of a cycle goes on to serve the cold stream.
            for boot in range(spec.RESTART_BOOTS):
                serve = stream_seconds if boot == spec.RESTART_BOOTS - 1 else 0.0
                with child_process("boot", directory, str(ctx.seed + cycle), str(serve),
                                   traced=ctx.traced) as child:
                    boots.append(child_reply(child))
                    rss_mb = tree_peak_rss_mb()
        disk = directory_bytes(directory)
        generations = len(os.listdir(os.path.join(directory, COLUMNS_SUBDIR)))
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    boot_s = median([boot["boot_s"] for boot in boots])
    resave_s = median(saves)
    out.put("save_s", save_s)
    out.put("resave_s", resave_s, len(saves))
    out.put("boot_s", boot_s, len(boots))
    out.put("setup_s", build_s + save_s + resave_s + boot_s)
    out.put("disk_bytes_per_entity", disk / len(database), cycles)
    out.put("peak_rss_mb", rss_mb)
    out.notes.append(
        f"1 full save + {cycles} x (ingest, re-save, {spec.RESTART_BOOTS} fresh-process boots, "
        f"{stream_seconds:.1f} s cold stream); reads come from the OS page cache here, "
        "not from a device"
    )

    last = boots[-1]
    reads = ReadPass(Run.from_json(last["main"]),
                     Run.from_json(last["reference"]) if last["reference"] else None)
    report_reads(out, reads)

    # Post-boot answers against the in-RAM database (same state as the last save).
    verdict = queries.Verdict()
    if (last["num_reviews"], last["data_version"]) != (database.num_reviews(),
                                                       database.data_version):
        verdict.note("mismatched", "the booted database does not hold the ingested review")
    first_sql, first_answer = last["first"]
    out.attempted += 1  # the first post-boot query
    verify_sample(out, [(first_sql, queries.Answer.from_json(first_answer))] + reads.served,
                  database, verdict)

    if ctx.traced:
        report_layers(out, reads, last["moved"], last["spans"])
        attributes = len(database.schema.subjective_attributes)
        out.put("storage.pack_s", spent["raw_summary_columns"] + spent["attribute_sections"]
                + spent["pack_column_file"])
        out.put("storage.file_write_s", spent["write_bytes_atomically"])
        out.put("storage.catalog_write_s", spent["replace_state"])
        out.put("storage.bytes_written_per_save", written)
        out.put("storage.generations_on_disk", generations / attributes)
        out.put_all(last["storage"])
        out.put_all(probes.layer_probes(database))


RUNNERS: dict[str, Callable[[Context, Outcome], None]] = {
    "cold_inproc": cold_inproc,
    "cold_cluster": cold_cluster,
    "zipf_gateway": zipf_gateway,
    "ingest_mix": ingest_mix,
    "restart": restart,
}
