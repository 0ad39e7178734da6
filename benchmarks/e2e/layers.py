"""Per-layer metrics from exported counters and spans.

Counters are read as before/after deltas around a pass, from the surfaces the
program already exports: ``stats_snapshot()``, ``transport_counters()`` (or,
through the gateway, the per-node ``partition_stats()`` rows) and
``GatewayClient.stats()``.  Span metrics are means **per query** so that the
stages add up to the query's wall time.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from benchmarks.e2e import spans as span_math

#: Metric -> the span names whose mean self time per query it carries.  The
#: ``merge`` span only exists on the unpruned ranking path, so it is folded
#: into the score stage; ``sharded.merge_ms`` is a probe (see ``probes``).
STAGE_METRICS = {
    "engine.plan_self_ms": ("plan",),
    "processor.candidates_self_ms": ("candidates",),
    "sharded.score_self_ms": ("score", "merge"),
}
NODE_SPANS = ("node_score", "node_score_bounded")


def engine_counters(snapshot: Mapping[str, object]) -> dict[str, float]:
    """The flat counters this module reads out of one ``stats_snapshot()``."""
    flat = {
        "entities_scored": snapshot["entities_scored"],
        "entities_pruned": snapshot["entities_pruned"],
    }
    for cache in ("plan", "candidate", "membership"):
        stats = snapshot[f"{cache}_cache"]
        flat[f"{cache}_hits"] = stats["hits"]
        flat[f"{cache}_misses"] = stats["misses"]
        flat[f"{cache}_evictions"] = stats["evictions"]
    return {name: float(value) for name, value in flat.items()}


def transport_counters(counters: Mapping[str, int]) -> dict[str, float]:
    """The same shape from ``ClusterShardStore.transport_counters()``."""
    return {
        "rpc_requests": float(counters["rpc_requests"]),
        "rpc_bytes": float(counters["rpc_bytes_sent"] + counters["rpc_bytes_received"]),
        "full_hydrations": float(counters["snapshot_hydrations"]),
        "delta_hydrations": float(counters["snapshot_delta_hydrations"]),
    }


def partition_counters(snapshot: Mapping[str, object],
                       partitions: Sequence[Mapping[str, object]]) -> dict[str, float]:
    """The same shape from the gateway's ``stats`` payload (no direct store access)."""
    store = snapshot["columnar_store"]
    return {
        "rpc_requests": float(sum(node["requests"] for node in partitions)),
        "rpc_bytes": float(
            sum(node["bytes_sent"] + node["bytes_received"] for node in partitions)
        ),
        "full_hydrations": float(store["hydrations"]),
        "delta_hydrations": float(store["delta_hydrations"]),
    }


def delta(after: Mapping[str, float], before: Mapping[str, float]) -> dict[str, float]:
    return {name: after[name] - before.get(name, 0.0) for name in after}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def counter_metrics(moved: Mapping[str, float], queries: int) -> dict[str, float]:
    """Counter-derived per-layer metrics over ``queries`` answered queries.

    ``moved`` is a delta of :func:`engine_counters` merged with (on fleet
    workloads) a delta of the transport counters; absent layers read as 0.
    """
    get = lambda name: moved.get(name, 0.0)  # noqa: E731 - tiny local accessor
    per_query = 1.0 / queries if queries else 0.0
    return {
        "sharded.pruned_share": _share(
            get("entities_pruned"), get("entities_pruned") + get("entities_scored")
        ),
        "sharded.entities_scored_per_query": get("entities_scored") * per_query,
        "cache.plan_hit_rate": _share(get("plan_hits"), get("plan_hits") + get("plan_misses")),
        "cache.candidate_hit_rate": _share(
            get("candidate_hits"), get("candidate_hits") + get("candidate_misses")
        ),
        "cache.membership_hit_rate": _share(
            get("membership_hits"), get("membership_hits") + get("membership_misses")
        ),
        "cache.membership_evictions": get("membership_evictions"),
        "cluster.rpc_per_query": get("rpc_requests") * per_query,
        "cluster.bytes_per_query": get("rpc_bytes") * per_query,
        "cluster.full_hydrations": get("full_hydrations"),
        "cluster.delta_hydrations": get("delta_hydrations"),
    }


def span_metrics(span_rows: Sequence[dict], root_name: str = "query",
                 wall_seconds: float | None = None) -> dict[str, float]:
    """Span-derived per-layer metrics: mean self time per ``root_name`` span.

    ``wall_seconds`` is the externally timed wall time of the traced queries
    (the sum of their measured latencies); when omitted, the root spans'
    durations stand in.  ``obs.span_coverage_share`` is the share of that wall
    time spent inside *named stage* spans, i.e. everything except the root
    span's own self time — time no stage accounts for.
    """
    count = len(span_math.named(span_rows, root_name))
    if not count:
        return {}
    own = span_math.self_seconds_by_name(span_rows)
    total = span_math.durations_by_name(span_rows)
    wall = wall_seconds if wall_seconds else total[root_name]
    node_busy = sum(total.get(name, 0.0) for name in NODE_SPANS)
    transport_self = own.get("transport", 0.0)
    # Coordinator-side stage self times, plus the part of each transport span
    # its (parallel, remote) node spans cover: together with the root span's
    # own self time these telescope to the root durations.
    stages = sum(
        seconds for name, seconds in own.items() if name != root_name and name not in NODE_SPANS
    ) + (total.get("transport", 0.0) - transport_self)
    metrics = {
        metric: 1e3 * sum(own.get(name, 0.0) for name in names) / count
        for metric, names in STAGE_METRICS.items()
    }
    metrics.update(
        {
            "cluster.transport_self_ms": 1e3 * transport_self / count,
            # Busy time summed over nodes: exceeds wall time when nodes overlap.
            "cluster.node_self_ms": 1e3 * node_busy / count,
            "cluster.transport_self_share": _share(transport_self, wall),
            "cluster.node_self_share": _share(node_busy, wall),
            "obs.span_coverage_share": _share(stages, wall),
            "obs.self_time_sum_share": _share(stages + own.get(root_name, 0.0), wall),
        }
    )
    return metrics
