"""Registry snapshots reconcile exactly with the legacy stats dicts.

The observability migration (ISSUE 10) rewired every ad-hoc counter onto
:class:`~repro.obs.metrics.MetricsRegistry` cells while keeping the
dict-returning APIs — ``stats_snapshot()``, ``partition_stats()``,
``transport_counters()``, ``GatewayCounters.as_dict()`` — as thin views
over the same cells.  This suite drives real traffic through every layer
(serial, in-process sharded, TCP cluster nodes, the asyncio gateway) and
asserts the two surfaces agree *exactly*: a drift between a registry cell
and its legacy view means a counter was forked, not migrated.

The hypothesis properties at the bottom pin the two invariants the ISSUE
calls out: histogram bucket counts are cumulative-monotone and conserve
the observation count, and the optional wire trace field round-trips any
valid 63-bit id pair through the frame codec.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Histogram, MetricsRegistry
from repro.serving import (
    ClusterQueryEngine,
    GatewayClient,
    ServingGateway,
    ShardedSubjectiveQueryEngine,
    SubjectiveQueryEngine,
    start_gateway,
)
from repro.serving.protocol import Reader, pack_trace_field, read_trace_field

QUERIES = [
    'select * from Entities where "has really clean rooms" limit 5',
    "select * from Entities where city = 'london' and \"friendly staff\" limit 5",
    'select * from Entities where "quiet comfortable rooms" and "great breakfast" limit 8',
]


def _drive(engine) -> None:
    """Mixed single/batch traffic so every counter family moves."""
    for sql in QUERIES:
        engine.execute(sql)
    engine.run_batch(QUERIES)


def _assert_engine_registry_matches_snapshot(engine) -> None:
    """The engine-level cells and cache views against ``stats_snapshot()``."""
    registry = engine.metrics.snapshot()
    legacy = engine.stats_snapshot()
    assert registry["queries"] == legacy["queries"]
    assert registry["batch_queries"] == legacy["batch_queries"]
    assert registry["invalidations"] == legacy["invalidations"]
    assert registry["total_seconds"] == pytest.approx(legacy["total_seconds"])
    assert registry["entities_scored"] == legacy["entities_scored"]
    assert registry["entities_pruned"] == legacy["entities_pruned"]
    for cache in ("plan_cache", "candidate_cache", "membership_cache"):
        for field in ("hits", "misses", "evictions"):
            assert registry[f"{cache}_{field}"] == legacy[cache][field], (cache, field)
    # The latency histogram saw exactly the executed queries, and the
    # whole snapshot stays wire-safe (no cell leaks into json.dumps).
    assert registry["query_latency_seconds"]["count"] == legacy["queries"]
    json.dumps(legacy)


class TestSerialEngine:
    def test_registry_matches_stats_snapshot(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)
        _drive(engine)
        assert engine.stats.queries > 0
        _assert_engine_registry_matches_snapshot(engine)

    def test_counter_assignment_resets_the_cell(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)
        _drive(engine)
        engine.entities_scored = 0
        assert engine.metrics.snapshot()["entities_scored"] == 0


class TestShardedEngine:
    def test_registry_matches_snapshot_and_store_cells(self, hotel_database):
        engine = ShardedSubjectiveQueryEngine(database=hotel_database, num_shards=3)
        _drive(engine)
        _assert_engine_registry_matches_snapshot(engine)
        registry = engine.metrics.snapshot()
        store = engine.sharded_store
        # The adopted store_* instruments are the store's own cells.
        assert registry["store_fanouts"] == store.fanouts
        assert registry["store_shard_kernel_calls"] == store.shard_kernel_calls
        assert registry["store_entities_scored"] == store.entities_scored > 0
        assert registry["store_entities_pruned"] == store.entities_pruned
        assert registry["store_invalidations"] == store.invalidations
        # partition_stats (the membership cache's per-shard view) must sum
        # to the registry's aggregate membership gauges.
        partitions = engine.partition_stats()
        assert len(partitions) == 3
        assert sum(p["hits"] for p in partitions) == registry["membership_cache_hits"]
        assert sum(p["misses"] for p in partitions) == registry["membership_cache_misses"]


class TestClusterEngine:
    def test_registry_matches_snapshot_and_node_stats(self, hotel_database):
        with ClusterQueryEngine(database=hotel_database, num_nodes=2) as engine:
            _drive(engine)
            _assert_engine_registry_matches_snapshot(engine)
            registry = engine.metrics.snapshot()
            store = engine.sharded_store
            legacy = store.stats_snapshot()
            for name in (
                "invalidations",
                "fanouts",
                "rpc_requests",
                "hydrations",
                "delta_hydrations",
                "local_hydrations",
                "failovers",
                "entities_scored",
                "entities_pruned",
            ):
                assert registry[f"store_{name}"] == legacy[name], name
            # Coordinator-side transport counters and the per-node partition
            # dicts are two views of the same tallies (partition_stats sends
            # one stats frame per node itself).
            transport = store.transport_counters()
            partitions = store.partition_stats()
            assert len(partitions) == 2 and all(p["connected"] for p in partitions)
            assert sum(p["requests"] for p in partitions) == transport["rpc_requests"] + 2
            assert sum(p["respawns"] for p in partitions) == transport["node_respawns"] == 0
            # Node-side registries answer the stats frame; the fleet must
            # have scored at least what the coordinator accounted (nodes
            # holding replicated slices may score a superset).
            assert (
                sum(p.get("entities_scored", 0) for p in partitions)
                >= legacy["entities_scored"]
                > 0
            )


    def test_failover_counters_agree_across_views(self, hotel_database):
        """A replica serving a killed node's calls is counted once, everywhere."""
        from repro.testing import ClusterFaultInjector

        with ClusterQueryEngine(
            database=hotel_database, num_nodes=2, num_shards=4, replication=2
        ) as engine:
            _drive(engine)
            store = engine.sharded_store
            membership = engine.processor.membership
            attribute = next(iter(hotel_database.schema.subjective_attributes)).name
            ids = hotel_database.entity_ids()
            faults = ClusterFaultInjector(store)
            try:
                faults.pause_node(0)
                request = store.request_degrees(membership, ids, attribute, "spotless")
                faults.kill_node(0)
                store.collect_degrees(request)
            finally:
                faults.restore()
            _assert_engine_registry_matches_snapshot(engine)
            registry = engine.metrics.snapshot()
            legacy = store.stats_snapshot()
            assert registry["store_failovers"] == legacy["failovers"] > 0
            assert store.transport_counters()["slice_failovers"] == legacy["failovers"]


class TestGateway:
    def test_counters_dict_is_a_view_over_the_registry(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)
        with start_gateway(engine) as handle, GatewayClient(*handle.address) as client:
            for sql in QUERIES:
                client.query(sql)
            stats = client.stats()
        gateway: ServingGateway = handle.gateway
        registry = gateway.metrics.snapshot()
        legacy = gateway.counters.as_dict()
        derived = {
            "shared_requests": legacy["coalesced_hits"] + legacy["shared_batch_queries"],
            "rejections": legacy["rejected_gateway"] + legacy["rejected_connection"],
        }
        for name, value in legacy.items():
            expected = derived[name] if name in derived else registry[name]
            assert expected == value, name
        assert registry["requests"] == len(QUERIES)
        assert registry["request_latency_seconds"]["count"] == len(QUERIES)
        assert registry["queue_depth"] == gateway.admission.queue_depth == 0
        # The wire stats payload carries the same counter values.
        for name, value in legacy.items():
            assert stats["gateway"][name] == value, name

    def test_stats_snapshot_includes_queue_depth_gauge(self, hotel_database):
        gateway = ServingGateway(SubjectiveQueryEngine(database=hotel_database))
        snapshot = gateway.stats_snapshot()
        assert snapshot["queue_depth"] == 0
        assert snapshot["requests"] == 0


class TestHistogramProperties:
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False), max_size=200
        ),
        bounds=st.lists(
            st.floats(min_value=1e-6, max_value=50.0, allow_nan=False),
            min_size=1,
            max_size=12,
            unique=True,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_bucket_counts_are_cumulative_monotone(self, values, bounds):
        histogram = Histogram("h", buckets=sorted(bounds))
        for value in values:
            histogram.observe(value)
        cumulative = histogram.cumulative_counts()
        assert all(a <= b for a, b in zip(cumulative, cumulative[1:]))
        assert cumulative[-1] == histogram.count == len(values)
        assert sum(histogram.counts) == len(values)

    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_quantiles_are_monotone_and_bounded(self, values):
        histogram = Histogram("h", buckets=(0.1, 1.0, 10.0, 50.0))
        for value in values:
            histogram.observe(value)
        p50, p95, p99 = histogram.p50(), histogram.p95(), histogram.p99()
        assert 0.0 <= p50 <= p95 <= p99 <= max(histogram.bounds)


class TestTraceFieldProperties:
    @given(
        trace_id=st.integers(min_value=1, max_value=(1 << 63) - 1),
        span_id=st.integers(min_value=1, max_value=(1 << 63) - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_trace_pair_round_trips_through_the_frame_codec(self, trace_id, span_id):
        payload = pack_trace_field((trace_id, span_id))
        assert read_trace_field(Reader(payload)) == (trace_id, span_id)

    @given(suffix=st.binary(max_size=0))
    @settings(max_examples=5, deadline=None)
    def test_absent_field_is_empty(self, suffix):
        assert pack_trace_field(None) == suffix


def test_fresh_registry_snapshot_is_empty():
    assert MetricsRegistry().snapshot() == {}
