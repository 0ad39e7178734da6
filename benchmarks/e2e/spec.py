"""The benchmark's declaration: fixed conditions, workloads and metric names.

This module is the single source of the names every later performance claim
cites.  ``BENCHMARK.json`` at the repository root repeats the part the PR
driver gates on (see :func:`driver_declaration`; a self-test keeps the two
equal), ``README.md`` explains each name, and :mod:`benchmarks.e2e.compare`
reads the bounds from here.

Two sets of names exist because of one constraint: the driver requires every
*declared* metric to be reported by **every** workload with a real, non-zero,
run-varying value.  So ``declared`` end-to-end metrics are the five that every
workload measures, while the workload-specific ones (``fresh_p50_ms`` on
``ingest_mix``; ``save_s`` / ``resave_s`` / ``boot_s`` /
``disk_bytes_per_entity`` on ``restart``) are measured, printed, written to the
results document and gated by ``compare`` — and are *also* folded into a
declared metric of their workload (``throughput_qps`` on ``ingest_mix`` spans
the ingests; ``setup_s`` on ``restart`` is the whole persist-and-reboot path).
The same rule keeps time-valued per-layer metrics of layers only some
workloads exercise (cluster transport, gateway queue, storage) out of the
declared set; their ``*_share`` and count companions, which are legitimately 0
where the layer is absent, are declared instead.
"""

from __future__ import annotations

from dataclasses import dataclass

MIB = 1024 * 1024

#: ``repro.testing.build_synthetic_columnar_database`` arguments (never scaled
#: down to fit a time cap — operation counts are).
DATABASE = {"num_entities": 10_000, "markers_per_attribute": 16, "dimension": 48, "seed": 0}
SMOKE_ENTITIES = 1_000

#: ``ClusterQueryEngine`` arguments.  ``max_frame_bytes`` is explicit because
#: the 16 MiB default refuses the hydrate frame at this scale (README finding).
FLEET = {"num_nodes": 2, "num_shards": 4, "max_frame_bytes": 64 * MIB}

#: ``ShardedSubjectiveQueryEngine`` arguments (pruning on, the default).
INPROC = {"num_shards": 2, "backend": "thread"}

#: Seconds one run measures when ``--seconds`` is not given (= ``run_seconds``
#: in ``BENCHMARK.json``), and under ``--smoke``.
DEFAULT_SECONDS = 10
SMOKE_SECONDS = 3

#: The traced pass runs a quarter of the untraced pass's work.
TRACED_FRACTION = 0.25

#: ``zipf_gateway`` traffic.
GATEWAY_POOL_SIZE = 32
GATEWAY_POOL_PHRASES = 12
GATEWAY_ZIPF_S = 1.1
GATEWAY_OPEN_RPS = 20.0
GATEWAY_CALLERS = 32
GATEWAY_CONNECTIONS = 2
#: Shares of the timed section: saturating closed loop (throughput), light
#: closed loop with one caller per connection (the gated latencies), open loop
#: (latency from the due time; informational — see README, finding 4).
GATEWAY_PHASES = {"closed": 0.4, "light": 0.3, "open": 0.3}

#: ``restart``: fresh-process boots per cycle (``boot_s`` is their median; a
#: single boot reads 0.9 s or 1.5 s depending on what the re-save left cached).
RESTART_BOOTS = 3

#: ``ingest_mix``: non-first reads after each ingest.
INGEST_READS_PER_ROUND = 9

#: Queries of each cold stream compared with the oracle.
ORACLE_SAMPLE = 24

TOP_K = 10

WORKLOADS: dict[str, str] = {
    "cold_inproc": (
        "distinct-phrase queries on the in-process sharded engine: working set >> membership "
        "cache, so parse, interpret, envelope, pruning, kernels and merge do all the work"
    ),
    "cold_cluster": (
        "the same cold stream on the 2-node/4-slice TCP fleet: the gap to cold_inproc is the "
        "transport tax; kernels are the same work"
    ),
    "zipf_gateway": (
        "Zipf(1.1) over 32 pooled queries through the gateway, caches hit: queue wait, "
        "coalescing, micro-batching, ranking and JSON do the work; closed loops, then open loop"
    ),
    "ingest_mix": (
        "single-entity ingests beside reads on the fleet: invalidation, column rebuild and "
        "SnapshotDelta hydration; shows a read gain paid for with heavier build"
    ),
    "restart": (
        "storage tier: full save, one-entity ingest and re-save, then a fresh process opens "
        "the directory and serves a cold stream from the mapped columns"
    ),
}

ALL = tuple(WORKLOADS)
FLEET_WORKLOADS = ("cold_cluster", "zipf_gateway", "ingest_mix")


@dataclass(frozen=True)
class Metric:
    """One named metric: unit, direction, regression bound and where it applies."""

    name: str
    unit: str
    better: str
    why: str
    #: Share of the baseline median by which it may worsen (end-to-end only).
    bound: float | None = None
    #: Workloads that exercise the layer; elsewhere it is not reported — or, if
    #: declared, reads 0 on the driver's result line (never a time: see above).
    workloads: tuple[str, ...] = ALL
    #: Whether ``BENCHMARK.json`` declares it (see the module docstring).
    declared: bool = False


#: Regression bound of every timing.  The issue asked for 10%; on this 2-core
#: sandbox the *same seed* re-run back to back spreads (Q3 - Q1) / median by
#: 5-10% on most timings and 17% in a noisy spell (README, "Steadiness"), and
#: the driver refuses a benchmark whose own spread exceeds its bound — so the
#: bound is the contract's maximum, and ``compare`` reports ``unresolved``
#: rather than ``ok`` whenever the measured spread is wider than it.
TIMING_BOUND = 0.25

END_TO_END: tuple[Metric, ...] = (
    Metric(
        "setup_s", "s", "lower",
        "database build/open + fleet start + hydration + warm-up; on restart the whole "
        "build + save + re-save + boot path, so work moved into set-up shows",
        bound=TIMING_BOUND, declared=True,
    ),
    Metric(
        "latency_p50_ms", "ms", "lower",
        "median time a caller waits for one answer (light closed loop, one caller per "
        "connection, on zipf_gateway; non-first reads on ingest_mix; post-boot stream on restart)",
        bound=TIMING_BOUND, declared=True,
    ),
    Metric(
        "latency_p90_ms", "ms", "lower",
        "p90 of the same samples; p90 because the slowest workload has ~60 samples a run",
        bound=TIMING_BOUND, declared=True,
    ),
    Metric(
        "throughput_qps", "1/s", "higher",
        "answers completed per second of the timed section (32-caller closed loop on "
        "zipf_gateway; the section includes the ingest calls on ingest_mix)",
        bound=TIMING_BOUND, declared=True,
    ),
    Metric(
        "peak_rss_mb", "MB", "lower",
        "sum of peak resident sizes over the workload's process tree: what a read "
        "optimisation that precomputes pays in memory",
        bound=0.10, declared=True,
    ),
    Metric(
        "failed_share", "share", "lower",
        "failed + refused + oracle-mismatched over attempted; must stay 0 (the driver reads "
        "it from the result line's failed/attempted, so it is not a declared metric)",
        bound=0.0,
    ),
    Metric(
        "fresh_p50_ms", "ms", "lower",
        "ingest call to the first answer that reflects it",
        bound=TIMING_BOUND, workloads=("ingest_mix",),
    ),
    Metric("save_s", "s", "lower", "one full database.save(dir)", bound=TIMING_BOUND,
           workloads=("restart",)),
    Metric("resave_s", "s", "lower", "database.save(dir) after a one-entity change",
           bound=TIMING_BOUND, workloads=("restart",)),
    Metric(
        "boot_s", "s", "lower",
        "fresh process: SubjectiveDatabase.open + engine + first query answered",
        bound=TIMING_BOUND, workloads=("restart",),
    ),
    Metric(
        "disk_bytes_per_entity", "bytes", "lower",
        "storage directory size over entities after the re-saves (superseded generations "
        "are never reclaimed)",
        bound=0.01, workloads=("restart",),
    ),
)

#: Informational (no bound): printed and written, never gated.
INFORMATIONAL: tuple[Metric, ...] = (
    Metric(
        "latency_tail_ms", "ms", "lower",
        "highest percentile with at least ten samples beyond it (+-35% run to run)",
    ),
    Metric(
        "open_latency_p50_ms", "ms", "lower",
        "open loop at a fixed rate, timed from the due time: ~60 samples a run, and a "
        "one-second stall of the sandbox moves it by half (README, finding 4)",
        workloads=("zipf_gateway",),
    ),
    Metric("open_latency_p90_ms", "ms", "lower", "as open_latency_p50_ms",
           workloads=("zipf_gateway",)),
)

_QUERY_LAYERS = "latency_p50_ms on cold_inproc; no change on zipf_gateway (cache hits)"
_KERNEL_LAYERS = (
    "latency_p50_ms, latency_p90_ms, throughput_qps on cold_inproc (and the kernel share of "
    "cold_cluster); no change on zipf_gateway, restart"
)
_CLUSTER_LAYERS = "latency_p50_ms, throughput_qps on cold_cluster; no change on cold_inproc"
_HYDRATE_LAYERS = (
    "setup_s on cold_cluster/zipf_gateway, fresh_p50_ms on ingest_mix; no change on cold_inproc"
)
_GATEWAY_LAYERS = (
    "latency_p50_ms (light load) and throughput_qps (saturation) on zipf_gateway; "
    "no change on cold_*"
)
_SAVE_LAYERS = "save_s, resave_s, disk_bytes_per_entity on restart; no change on serving workloads"
_BOOT_LAYERS = "boot_s on restart; no change on serving workloads"

PER_LAYER: tuple[Metric, ...] = (
    # -- spans every workload's engine emits ---------------------------------
    Metric("engine.plan_self_ms", "ms", "lower", _QUERY_LAYERS, declared=True),
    Metric("processor.candidates_self_ms", "ms", "lower", _QUERY_LAYERS, declared=True),
    Metric("sharded.score_self_ms", "ms", "lower", _KERNEL_LAYERS, declared=True),
    Metric("sharded.merge_ms", "ms", "lower", _KERNEL_LAYERS, declared=True),
    # -- benchmark-side probes of public functions on the real database ------
    Metric("interpreter.interpret_ms", "ms", "lower", _QUERY_LAYERS, declared=True),
    Metric("columnar.kernel_us_per_entity", "us", "lower", _KERNEL_LAYERS, declared=True),
    Metric("columnar.envelope_ms", "ms", "lower", _KERNEL_LAYERS, declared=True),
    Metric(
        "columnar.build_ms", "ms", "lower",
        "fresh_p50_ms on ingest_mix, setup_s everywhere; no change on steady-state latency_*",
        declared=True,
    ),
    Metric("columnar.snapshot_pack_ms", "ms", "lower", _HYDRATE_LAYERS, declared=True),
    Metric("columnar.snapshot_unpack_ms", "ms", "lower", _HYDRATE_LAYERS, declared=True),
    Metric("columnar.snapshot_bytes", "bytes", "lower", _HYDRATE_LAYERS, declared=True),
    Metric("columnar.delta_bytes", "bytes", "lower", _HYDRATE_LAYERS, declared=True),
    Metric("protocol.encode_ms", "ms", "lower", _CLUSTER_LAYERS, declared=True),
    Metric("protocol.decode_ms", "ms", "lower", _CLUSTER_LAYERS, declared=True),
    Metric("gateway.serialize_ms", "ms", "lower", _GATEWAY_LAYERS, declared=True),
    # -- counters (stats_snapshot / transport_counters / gateway stats deltas)
    Metric("sharded.pruned_share", "share", "higher", _KERNEL_LAYERS, declared=True),
    Metric("sharded.entities_scored_per_query", "count", "lower", _KERNEL_LAYERS, declared=True),
    Metric(
        "cache.plan_hit_rate", "share", "higher",
        "latency_p50_ms on zipf_gateway (must stay ~1 there, ~0 on cold_*)", declared=True,
    ),
    Metric("cache.candidate_hit_rate", "share", "higher", "as cache.plan_hit_rate",
           declared=True),
    Metric("cache.membership_hit_rate", "share", "higher", "as cache.plan_hit_rate",
           declared=True),
    Metric("cache.membership_evictions", "count", "lower", "as cache.plan_hit_rate",
           declared=True),
    Metric("cluster.rpc_per_query", "count", "lower", _CLUSTER_LAYERS, declared=True,
           workloads=FLEET_WORKLOADS),
    Metric("cluster.bytes_per_query", "bytes", "lower", _CLUSTER_LAYERS, declared=True,
           workloads=FLEET_WORKLOADS),
    Metric("cluster.full_hydrations", "count", "lower", _HYDRATE_LAYERS, declared=True,
           workloads=FLEET_WORKLOADS),
    Metric("cluster.delta_hydrations", "count", "higher", _HYDRATE_LAYERS, declared=True,
           workloads=FLEET_WORKLOADS),
    Metric("cluster.transport_self_share", "share", "lower", _CLUSTER_LAYERS, declared=True,
           workloads=FLEET_WORKLOADS),
    Metric("cluster.node_self_share", "share", "lower", _CLUSTER_LAYERS, declared=True,
           workloads=FLEET_WORKLOADS),
    Metric("gateway.queue_self_share", "share", "lower", _GATEWAY_LAYERS, declared=True,
           workloads=("zipf_gateway",)),
    Metric("gateway.coalesced_share", "share", "higher", _GATEWAY_LAYERS, declared=True,
           workloads=("zipf_gateway",)),
    Metric("gateway.batch_mean", "count", "higher", _GATEWAY_LAYERS, declared=True,
           workloads=("zipf_gateway",)),
    Metric("gateway.rejected", "count", "lower", _GATEWAY_LAYERS, declared=True,
           workloads=("zipf_gateway",)),
    Metric("storage.bytes_written_per_save", "bytes", "lower", _SAVE_LAYERS, declared=True,
           workloads=("restart",)),
    Metric("storage.generations_on_disk", "count", "lower", _SAVE_LAYERS, declared=True,
           workloads=("restart",)),
    Metric("storage.mmap_serves", "count", "higher", _BOOT_LAYERS, declared=True,
           workloads=("restart",)),
    Metric(
        "obs.trace_overhead_share", "share", "lower",
        "none: 1 - traced/untraced throughput, guards the traced pass", declared=True,
    ),
    Metric(
        "obs.span_coverage_share", "share", "higher",
        "none: share of each query's wall time inside named stage spans (ROADMAP item 5 "
        "targets >= 0.95)",
        declared=True,
    ),
    Metric(
        "obs.self_time_sum_share", "share", "higher",
        "none: all span self times over the externally timed wall time of the traced "
        "queries; the traced pass is sane while this stays within 0.9..1.1",
        declared=True,
    ),
    # -- times of layers only some workloads exercise (results document only)
    Metric("cluster.transport_self_ms", "ms", "lower", _CLUSTER_LAYERS,
           workloads=FLEET_WORKLOADS),
    Metric("cluster.node_self_ms", "ms", "lower", _CLUSTER_LAYERS, workloads=FLEET_WORKLOADS),
    Metric("cluster.hydrate_s", "s", "lower", _HYDRATE_LAYERS, workloads=FLEET_WORKLOADS),
    Metric("gateway.queue_self_ms", "ms", "lower", _GATEWAY_LAYERS,
           workloads=("zipf_gateway",)),
    Metric("gateway.generator_late_p99_ms", "ms", "lower",
           "none: how late the open-loop generator ran", workloads=("zipf_gateway",)),
    Metric("storage.pack_s", "s", "lower", _SAVE_LAYERS, workloads=("restart",)),
    Metric("storage.file_write_s", "s", "lower", _SAVE_LAYERS, workloads=("restart",)),
    Metric("storage.catalog_write_s", "s", "lower", _SAVE_LAYERS, workloads=("restart",)),
    Metric("storage.catalog_open_s", "s", "lower", _BOOT_LAYERS, workloads=("restart",)),
    Metric("storage.map_s", "s", "lower", _BOOT_LAYERS, workloads=("restart",)),
    Metric("storage.relational_load_s", "s", "lower", _BOOT_LAYERS, workloads=("restart",)),
)

METRICS: dict[str, Metric] = {m.name: m for m in (*END_TO_END, *INFORMATIONAL, *PER_LAYER)}


def declared(metrics: tuple[Metric, ...]) -> list[Metric]:
    """The metrics of one family that ``BENCHMARK.json`` declares."""
    return [metric for metric in metrics if metric.declared]


def driver_declaration() -> dict[str, object]:
    """The ``BENCHMARK.json`` document this module implies."""
    return {
        "command": ["python3", "-m", "benchmarks.e2e"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": DEFAULT_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in declared(END_TO_END)
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in declared(PER_LAYER)
        ],
    }
