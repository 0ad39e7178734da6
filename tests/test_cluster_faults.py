"""Fault-injection differential suite for the cluster recovery machinery.

Driven through :class:`repro.testing.ClusterFaultInjector`, these tests pin
the availability contract the slice-replication work introduces — and,
just as deliberately, the failure semantics it must *not* change:

* killing one node mid-flight with ``replication=2`` fails over to the
  warm replica and serves the in-flight batch **bit-identical** with zero
  caller-visible errors;
* killing a node without a replica still surfaces the typed
  :class:`WorkerCrashedError` (availability is bought with replicas, never
  by silently fabricating data);
* a corrupt delta frame is a typed :class:`SnapshotIntegrityError`, a
  version-skewed delta a typed refusal — a node never installs a doubtful
  slice;
* a severed connection recovers by reconnecting, not respawning;
* small ingests re-hydrate through row deltas and compressed snapshots
  hydrate losslessly, both bit-identical to the full-snapshot path.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import SubjectiveQueryProcessor
from repro.core.columnar import (
    ColumnSnapshot,
    ColumnarSummaryStore,
    SnapshotDelta,
    SnapshotError,
    SnapshotIntegrityError,
)
from repro.core.markers import MarkerSummary
from repro.serving import (
    ClusterQueryEngine,
    ClusterShardStore,
    ShardNodeServer,
    SubjectiveQueryEngine,
    WorkerCrashedError,
    start_local_node,
)
from repro.serving.protocol import (
    STATUS_OK,
    Reader,
    encode_hydrate_delta_request,
    encode_hydrate_request,
)
from repro.testing import (
    ClusterFaultInjector,
    assert_identical_results,
    build_synthetic_columnar_database,
    corrupt_frame,
)

FAST = {"connect_timeout": 10.0, "io_timeout": 30.0}

QUERIES = [
    'select * from Entities where "word003" and "word019" limit 5',
    'select * from Entities where "word007" limit 3',
    'select * from Entities where not "word002" or "word021" limit 4',
    "select * from Entities where city = 'london' and \"word004\" limit 5",
]


@pytest.fixture(scope="module")
def fault_database():
    return build_synthetic_columnar_database(num_entities=90, seed=13)


@pytest.fixture()
def mutable_database():
    """A private small database for tests that ingest (bump data_version)."""
    return build_synthetic_columnar_database(num_entities=40, seed=29)


def _membership(database):
    return SubjectiveQueryProcessor(database).membership


def _store_summary(database, entity_id: str, phrase: str, sentiment: float) -> None:
    """One-entity ingest: replaces the entity's summary, bumps data_version."""
    attribute = database.schema.subjective_attributes[0]
    summary = MarkerSummary(attribute.name, list(attribute.markers))
    summary.add_phrase(phrase, sentiment=sentiment)
    database.store_summary(entity_id, summary)


# ---------------------------------------------------------------------------
# Kill-one-node: replication absorbs it, no replica surfaces it
# ---------------------------------------------------------------------------


class TestKillOneNode:
    def test_mid_flight_kill_with_replica_is_bit_identical(self, fault_database):
        """The acceptance scenario: the in-flight batch never sees the crash.

        Node 0 is paused *before* the fan-out is issued (so it provably
        has not answered), then killed while its calls are in flight; the
        warm replica must serve every one of them with degrees
        bit-identical to the unsharded store's.
        """
        membership = _membership(fault_database)
        base = ColumnarSummaryStore(fault_database)
        attribute = fault_database.schema.subjective_attributes[0].name
        ids = list(base.columns(attribute).entity_ids)
        expected = base.pair_degrees(membership, ids, attribute, "word003")
        store = ClusterShardStore(
            fault_database, num_nodes=2, num_slices=4, replication=2, **FAST
        )
        faults = ClusterFaultInjector(store)
        try:
            # Warm the fleet so both replicas hold every slice.
            store.pair_degrees(membership, ids, attribute, "word001")
            faults.pause_node(0)
            request = store.request_degrees(membership, ids, attribute, "word003")
            faults.kill_node(0)
            degrees = store.collect_degrees(request)
            assert degrees == expected
            assert store.failovers > 0
        finally:
            faults.restore()
            store.close()

    def test_kill_without_replica_raises_typed_error(self, fault_database):
        """replication=1 keeps PR-5 semantics: a dead node is a typed error."""
        membership = _membership(fault_database)
        base = ColumnarSummaryStore(fault_database)
        attribute = fault_database.schema.subjective_attributes[0].name
        ids = list(base.columns(attribute).entity_ids)
        store = ClusterShardStore(
            fault_database, num_nodes=2, num_slices=4, replication=1, **FAST
        )
        faults = ClusterFaultInjector(store)
        try:
            store.pair_degrees(membership, ids, attribute, "word001")
            faults.kill_node(0)
            with pytest.raises(WorkerCrashedError):
                store.pair_degrees(membership, ids, attribute, "word005")
            assert store.failovers == 0
        finally:
            store.close()

    def test_engine_batch_after_kill_with_replication(self, fault_database):
        """Engine-level: a killed node costs queries nothing with R=2."""
        baseline = SubjectiveQueryEngine(database=fault_database)
        with ClusterQueryEngine(
            database=fault_database, num_nodes=2, replication=2, **FAST
        ) as engine:
            engine.execute(QUERIES[0])
            faults = ClusterFaultInjector(engine.sharded_store)
            faults.kill_node(0)
            for sql in QUERIES:
                assert_identical_results(
                    baseline.execute(sql), engine.execute(sql), context=sql
                )
            # The dead node rejoined (respawned) during the fan-outs above
            # or stays dark behind its replica — either way, zero errors.
            assert engine.sharded_store.replication == 2

    def test_rank_frames_fail_over_too(self, fault_database):
        """The pruned path ships rank frames through the same failover
        machinery: a dead node's slices are re-ranked on their replicas."""
        baseline = SubjectiveQueryEngine(database=fault_database)
        with ClusterQueryEngine(
            database=fault_database, num_nodes=2, num_shards=4, replication=2,
            max_inflight_queries=1, **FAST,
        ) as engine:
            engine.execute(QUERIES[0])  # fleet up, every replica hydrated
            store = engine.sharded_store
            ClusterFaultInjector(store).kill_node(1)
            for sql in QUERIES[1:]:
                assert_identical_results(baseline.execute(sql), engine.execute(sql), sql)
            assert store.transport_counters()["slice_failovers"] >= 1
            assert sum(node["rank_requests"] for node in store.node_stats()) >= len(QUERIES)

    def test_mid_query_kill_reranks_on_the_replica_bit_identically(self, fault_database):
        """A node killed while its rank frame is in flight costs the query
        nothing: the frame's slices are re-ranked on the warm replica."""
        sql = QUERIES[2]
        expected = SubjectiveQueryEngine(database=fault_database).execute(sql)
        with ClusterQueryEngine(
            database=fault_database, num_nodes=2, num_shards=4, replication=2,
            max_inflight_queries=1, **FAST,
        ) as engine:
            engine.execute(QUERIES[0])  # fleet up, every replica hydrated
            store = engine.sharded_store
            faults = ClusterFaultInjector(store)
            faults.pause_node(0)  # node 0 provably cannot answer its frame ...
            killer = threading.Timer(0.3, faults.kill_node, args=(0,))
            killer.start()  # ... and dies while the query waits on it
            try:
                result = engine.execute(sql)
            finally:
                killer.join()
                faults.restore()
            assert_identical_results(expected, result)
            assert store.transport_counters()["slice_failovers"] >= 1


# ---------------------------------------------------------------------------
# Connection loss without process loss
# ---------------------------------------------------------------------------


class TestDropConnection:
    def test_severed_connection_reconnects_not_respawns(self, fault_database):
        membership = _membership(fault_database)
        base = ColumnarSummaryStore(fault_database)
        attribute = fault_database.schema.subjective_attributes[0].name
        ids = list(base.columns(attribute).entity_ids)
        store = ClusterShardStore(fault_database, num_nodes=2, num_slices=4, **FAST)
        faults = ClusterFaultInjector(store)
        try:
            store.pair_degrees(membership, ids, attribute, "word001")
            # Measure the delta: no recovery has happened yet.
            spawns_before = store._node_counters[0]["respawns"]
            assert faults.drop_connection(0)
            # The first post-drop fan-out may surface the loss (R=1)...
            try:
                store.pair_degrees(membership, ids, attribute, "word005")
            except WorkerCrashedError:
                pass
            # ...but the node process is alive, so the fleet *reconnects*
            # and serves identically; no respawn happens.
            degrees = store.pair_degrees(membership, ids, attribute, "word006")
            assert degrees == base.pair_degrees(membership, ids, attribute, "word006")
            counters = store._node_counters[0]
            assert counters["reconnects"] >= 1
            assert counters["respawns"] == spawns_before
        finally:
            store.close()

    def test_drop_with_replica_is_invisible(self, fault_database):
        membership = _membership(fault_database)
        base = ColumnarSummaryStore(fault_database)
        attribute = fault_database.schema.subjective_attributes[0].name
        ids = list(base.columns(attribute).entity_ids)
        store = ClusterShardStore(
            fault_database, num_nodes=2, num_slices=4, replication=2, **FAST
        )
        faults = ClusterFaultInjector(store)
        try:
            store.pair_degrees(membership, ids, attribute, "word001")
            faults.drop_connection(0)
            degrees = store.pair_degrees(membership, ids, attribute, "word005")
            assert degrees == base.pair_degrees(membership, ids, attribute, "word005")
        finally:
            store.close()


# ---------------------------------------------------------------------------
# Corrupt and version-skewed delta frames
# ---------------------------------------------------------------------------


def _delta_fixture(database):
    """(base snapshot, new snapshot, delta) over one small ingest."""
    attribute = database.schema.subjective_attributes[0].name
    before = ColumnarSummaryStore(database)
    old_columns = before.columns(attribute)
    old = ColumnSnapshot.of_slice(
        old_columns, 0, 0, old_columns.num_entities, database.data_version
    )
    entity = old_columns.entity_ids[1]
    _store_summary(database, entity, "word003", 0.9)
    after = ColumnarSummaryStore(database)
    new_columns = after.columns(attribute)
    new = ColumnSnapshot.of_slice(
        new_columns, 0, 0, new_columns.num_entities, database.data_version
    )
    delta = SnapshotDelta.between(old, new)
    assert delta is not None and delta.num_rows >= 1
    return old, new, delta


class TestDeltaFaults:
    def test_corrupt_delta_frame_raises_integrity_error(self, mutable_database):
        _old, _new, delta = _delta_fixture(mutable_database)
        payload = delta.pack(compress=True)
        with pytest.raises(SnapshotIntegrityError):
            SnapshotDelta.unpack(corrupt_frame(payload, len(payload) // 2))

    def test_corrupt_delta_is_transported_typed_error(self, mutable_database):
        """A node refuses a corrupt delta and keeps serving its base slice."""
        old, _new, delta = _delta_fixture(mutable_database)
        membership = _membership(mutable_database)
        node = ShardNodeServer(node_id=0, membership=membership)
        response, _ = node.handle_frame(encode_hydrate_request(old.pack()))
        assert Reader(response).read_u8() == STATUS_OK
        payload = delta.pack(compress=True)
        response, _ = node.handle_frame(
            encode_hydrate_delta_request(corrupt_frame(payload, len(payload) // 2))
        )
        reader = Reader(response)
        assert reader.read_u8() != STATUS_OK
        assert "SnapshotIntegrityError" in reader.read_str()
        # The base slice survived the refused delta.
        assert node.owned_slice_ids == [0]
        assert node.data_version == old.data_version

    def test_version_skew_delta_rejected(self, mutable_database):
        old, new, delta = _delta_fixture(mutable_database)
        # Applying a delta to the wrong generation is a typed refusal.
        with pytest.raises(SnapshotError, match="skew"):
            delta.apply(new)
        # A node holding no base at the delta's version asks for a full
        # snapshot instead of guessing.
        membership = _membership(mutable_database)
        node = ShardNodeServer(node_id=0, membership=membership)
        node.handle_frame(encode_hydrate_request(new.pack()))
        response, _ = node.handle_frame(encode_hydrate_delta_request(delta.pack()))
        reader = Reader(response)
        assert reader.read_u8() != STATUS_OK
        assert "ship a full snapshot" in reader.read_str()

    def test_applied_delta_matches_full_snapshot(self, mutable_database):
        _old, new, delta = _delta_fixture(mutable_database)
        old = _old
        applied = delta.apply(old)
        assert applied.pack() == new.pack()


# ---------------------------------------------------------------------------
# Delta and compressed hydration, end to end over TCP
# ---------------------------------------------------------------------------


class TestDeltaHydration:
    def test_small_ingest_ships_delta_frames(self, mutable_database):
        membership = _membership(mutable_database)
        base = ColumnarSummaryStore(mutable_database)
        attribute = mutable_database.schema.subjective_attributes[0].name
        ids = list(base.columns(attribute).entity_ids)
        store = ClusterShardStore(mutable_database, num_nodes=2, num_slices=4, **FAST)
        try:
            store.pair_degrees(membership, ids, attribute, "word003")
            assert store.delta_hydrations == 0
            _store_summary(mutable_database, ids[3], "word003", 0.7)
            fresh = ColumnarSummaryStore(mutable_database)
            expected = fresh.pair_degrees(membership, ids, attribute, "word003")
            degrees = store.pair_degrees(membership, ids, attribute, "word003")
            assert degrees == expected
            assert store.delta_hydrations > 0
            node_stats = store.node_stats()
            assert sum(s["delta_hydrations"] for s in node_stats) > 0
        finally:
            store.close()

    def test_a_slice_skipped_for_one_version_reships_in_full(self, mutable_database):
        """A node keeps one retired generation: no delta against an older one.

        Every delta a version step owes ships in its first fan-out, so a
        slice sits a version out only when that step's change to it was too
        large for a delta: quality's slice 0 below, whose 6 of 10 rows are
        replaced while only service is read.
        """
        membership = _membership(mutable_database)
        quality, service = (a.name for a in mutable_database.schema.subjective_attributes)
        ids = list(ColumnarSummaryStore(mutable_database).columns(quality).entity_ids)
        store = ClusterShardStore(mutable_database, num_nodes=2, num_slices=4, **FAST)
        try:
            for attribute in (quality, service):
                store.pair_degrees(membership, ids, attribute, "word003")
            for entity_id in ids[:6]:  # 6 of slice 0's 10 rows: no delta fits
                _store_summary(mutable_database, entity_id, "word003", 0.7)
            store.pair_degrees(membership, ids, service, "word003")  # quality sits this one out
            _store_summary(mutable_database, ids[3], "word003", 0.6)
            counters = store.transport_counters()
            expected = ColumnarSummaryStore(mutable_database).pair_degrees(
                membership, ids, quality, "word003"
            )
            assert store.pair_degrees(membership, ids, quality, "word003") == expected
            after = store.transport_counters()
            assert after["snapshot_hydrations"] == counters["snapshot_hydrations"] + 1
            # Quality's other three slices, and service's four (unchanged).
            assert (
                after["snapshot_delta_hydrations"]
                == counters["snapshot_delta_hydrations"] + 3 + 4
            )
        finally:
            store.close()

    def test_the_first_read_after_an_ingest_ships_every_owed_delta(self, mutable_database):
        """A second read touching the attribute the first did not sends no hydrate frame."""
        membership = _membership(mutable_database)
        quality, service = (a.name for a in mutable_database.schema.subjective_attributes)
        ids = list(ColumnarSummaryStore(mutable_database).columns(quality).entity_ids)
        store = ClusterShardStore(mutable_database, num_nodes=2, num_slices=4, **FAST)
        try:
            for attribute in (quality, service):
                store.pair_degrees(membership, ids, attribute, "word003")
            _store_summary(mutable_database, ids[3], "word003", 0.7)
            store.pair_degrees(membership, ids, quality, "word003")
            hydrations = store.hydrations
            assert store.transport_counters()["snapshot_delta_hydrations"] == 8  # 2 × 4 slices
            expected = ColumnarSummaryStore(mutable_database).pair_degrees(
                membership, ids, service, "word004"
            )
            assert store.pair_degrees(membership, ids, service, "word004") == expected
            assert store.hydrations == hydrations
        finally:
            store.close()

    def test_compressed_hydration_bit_identical(self, fault_database):
        membership = _membership(fault_database)
        base = ColumnarSummaryStore(fault_database)
        attribute = fault_database.schema.subjective_attributes[0].name
        ids = list(base.columns(attribute).entity_ids)
        expected = base.pair_degrees(membership, ids, attribute, "word003")
        store = ClusterShardStore(
            fault_database, num_nodes=2, num_slices=4, snapshot_compression=True, **FAST
        )
        try:
            assert store.pair_degrees(membership, ids, attribute, "word003") == expected
        finally:
            store.close()

    def test_engine_with_delta_and_compression_stays_identical(self, mutable_database):
        with ClusterQueryEngine(
            database=mutable_database,
            num_nodes=2,
            replication=2,
            snapshot_compression=True,
            **FAST,
        ) as engine:
            sql = QUERIES[0]
            baseline = SubjectiveQueryEngine(database=mutable_database)
            assert_identical_results(baseline.execute(sql), engine.execute(sql))
            _store_summary(mutable_database, "e00005", "word003", 0.8)
            assert_identical_results(baseline.execute(sql), engine.execute(sql))
            counters = engine.sharded_store.transport_counters()
            assert counters["snapshot_delta_hydrations"] > 0


# ---------------------------------------------------------------------------
# partition_stats after respawns and under hostile node ids
# ---------------------------------------------------------------------------


class TestPartitionStatsRegression:
    def test_duplicate_external_node_ids_keep_entries_distinct(self, fault_database):
        """Stats frames attach by channel, never by self-reported node id.

        An external fleet is free to number its servers however it likes —
        here both report ``node_id=7``.  Merging by the reported id used
        to assign one server's frame to at most one (wrong) entry and
        drop the other; keyed by channel index, each entry carries its own
        server's counters.
        """
        membership = _membership(fault_database)
        base = ColumnarSummaryStore(fault_database)
        attribute = fault_database.schema.subjective_attributes[0].name
        ids = list(base.columns(attribute).entity_ids)
        servers = [start_local_node(membership, node_id=7)[0] for _ in range(2)]
        try:
            store = ClusterShardStore(
                fault_database,
                num_slices=4,
                addresses=[server.address for server in servers],
                **FAST,
            )
            try:
                store.pair_degrees(membership, ids, attribute, "word003")
                entries = store.partition_stats()
                assert [entry["node"] for entry in entries] == [0, 1]
                assert all("hydrated_slices" in entry for entry in entries)
                assert sum(entry["hydrated_slices"] for entry in entries) == 4
            finally:
                store.close()
        finally:
            for server in servers:
                server.stop()

    def test_respawn_cycle_keeps_stats_consistent(self, fault_database):
        membership = _membership(fault_database)
        base = ColumnarSummaryStore(fault_database)
        attribute = fault_database.schema.subjective_attributes[0].name
        ids = list(base.columns(attribute).entity_ids)
        store = ClusterShardStore(fault_database, num_nodes=2, num_slices=4, **FAST)
        faults = ClusterFaultInjector(store)
        try:
            store.pair_degrees(membership, ids, attribute, "word001")
            faults.kill_node(0)
            with pytest.raises(WorkerCrashedError):
                store.pair_degrees(membership, ids, attribute, "word005")
            # The next fan-out respawns node 0 and serves correctly.
            degrees = store.pair_degrees(membership, ids, attribute, "word006")
            assert degrees == base.pair_degrees(membership, ids, attribute, "word006")
            entries = store.partition_stats()
            assert [entry["node"] for entry in entries] == [0, 1]
            # One respawn after the kill; the initial spawns are no recovery.
            assert entries[0]["respawns"] == 1
            assert entries[1]["respawns"] == 0
            # The respawned node's frame lands on its own entry: its
            # hydration count restarted, it did not inherit node 1's.
            assert entries[0]["hydrated_slices"] == 2
            assert entries[1]["hydrated_slices"] == 2
        finally:
            store.close()
