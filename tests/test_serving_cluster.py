"""Cluster transport: TCP differential equivalence and failure-mode tests.

The contract of :mod:`repro.serving.cluster` is the stack-wide one: *exact*
equality with the unsharded :class:`repro.serving.SubjectiveQueryEngine` —
same ranked entity ids, bit-identical scores and per-predicate degrees —
over real localhost TCP for every node count, with snapshot hydration
replacing fork as the column-data path.  On top of that the suite pins the
failure modes the service boundary introduces: protocol-version skew is a
typed :class:`HandshakeError`, a lost node surfaces as
:class:`WorkerCrashedError` and the fleet reconnects or respawns on the
next query, a mid-batch ``data_version`` bump re-hydrates nodes before any
stale degree can be served, and the concurrent ``run_batch`` coordinator
returns results bit-identical to serial execution.
"""

from __future__ import annotations

import multiprocessing
import socket
import struct

import numpy as np
import pytest

from repro.core import SubjectiveQueryProcessor
from repro.core.columnar import ColumnSnapshot, ColumnarSummaryStore
from repro.core.interpreter import InterpretationMethod
from repro.core.markers import MarkerSummary
from repro.serving import (
    ClusterQueryEngine,
    ClusterShardStore,
    HandshakeError,
    RpcError,
    ShardNodeServer,
    SubjectiveQueryEngine,
    WorkerCrashedError,
    start_local_node,
)
from repro.serving.protocol import (
    OP_RANK,
    OP_SCORE,
    OP_STATS,
    PROTOCOL_VERSION,
    STATUS_OK,
    TREE_PREDICATE,
    MAX_TREE_DEPTH,
    FrameTooLargeError,
    RankReply,
    Reader,
    encode_hello,
    encode_hydrate_delta_request,
    encode_hydrate_request,
    encode_invalidate_request,
    encode_rank_request,
    encode_score_request,
    read_hello_ack,
    recv_frame,
    send_frame,
)
from repro.testing import (
    assert_engines_agree,
    assert_identical_results,
    build_synthetic_columnar_database,
)

NODE_COUNTS = [1, 2, 4]

#: Gibberish predicates interpret to nothing and must fall back to BM25
#: text retrieval on the coordinator (nodes only serve marker scoring).
FALLBACK_PREDICATE = "zxqv wobbly flurb"

HOTEL_QUERIES = [
    'select * from Entities where "has really clean rooms" limit 5',
    "select * from Entities where city = 'london' and \"friendly staff\" limit 5",
    'select * from Entities where "quiet comfortable rooms" and "great breakfast" limit 8',
    'select * from Entities where not "noisy room" or "spotless room" limit 6',
    f'select * from Entities where "{FALLBACK_PREDICATE}" limit 6',
]

RESTAURANT_QUERIES = [
    'select * from Entities where "delicious fresh food" limit 5',
    'select * from Entities where "friendly attentive service" and "cozy atmosphere" limit 6',
    'select * from Entities where not "slow service" limit 4',
]

#: Tight timeouts so a regression fails fast instead of eating the CI guard.
FAST = {"connect_timeout": 10.0, "io_timeout": 30.0}


def _cluster(num_nodes, **engine_kwargs):
    return lambda database: ClusterQueryEngine(
        database=database, num_nodes=num_nodes, **FAST, **engine_kwargs
    )


# ---------------------------------------------------------------------------
# The hello handshake and node dispatch, driven in-process over real TCP
# ---------------------------------------------------------------------------


@pytest.fixture
def hotel_node(hotel_database):
    processor = SubjectiveQueryProcessor(hotel_database)
    server, _thread = start_local_node(processor.membership, node_id=7)
    yield server
    server.stop()


class TestHandshake:
    def test_hello_roundtrip(self, hotel_node):
        with socket.create_connection(hotel_node.address, timeout=5) as sock:
            send_frame(sock, encode_hello(PROTOCOL_VERSION, 42), 1 << 20)
            version, data_version, owned, local_store = read_hello_ack(
                recv_frame(sock, 1 << 20)
            )
            assert version == PROTOCOL_VERSION
            assert data_version == 0  # nothing hydrated yet
            assert owned == []
            assert local_store is False  # no persistent data directory

    @pytest.mark.parametrize("peer_version", [PROTOCOL_VERSION + 9, 4, 5])
    def test_version_mismatch_is_typed_error(self, hotel_node, peer_version):
        with socket.create_connection(hotel_node.address, timeout=5) as sock:
            send_frame(sock, encode_hello(peer_version, 0), 1 << 20)
            payload = recv_frame(sock, 1 << 20)
            with pytest.raises(HandshakeError) as excinfo:
                read_hello_ack(payload)
            assert "version mismatch" in str(excinfo.value)
            # The node refuses to serve on the skewed connection.
            assert recv_frame(sock, 1 << 20) is None

    def test_non_hello_first_frame_is_refused(self, hotel_node):
        with socket.create_connection(hotel_node.address, timeout=5) as sock:
            send_frame(sock, encode_score_request(0, "x", "y", 0, 1, None), 1 << 20)
            with pytest.raises(HandshakeError):
                read_hello_ack(recv_frame(sock, 1 << 20))

    def test_malformed_hello_ack_is_typed_error(self):
        with pytest.raises(HandshakeError):
            read_hello_ack(struct.pack("!B", STATUS_OK))  # truncated ack


class TestNodeDispatch:
    def _attribute(self, database):
        return next(iter(database.schema.subjective_attributes)).name

    def _node(self, database):
        processor = SubjectiveQueryProcessor(database)
        return ShardNodeServer(node_id=0, membership=processor.membership)

    def test_score_before_hydration_is_transported_error(self, hotel_database):
        node = self._node(hotel_database)
        attribute = self._attribute(hotel_database)
        response, stop = node.handle_frame(
            encode_score_request(0, attribute, "clean", 0, 4, None)
        )
        assert not stop
        reader = Reader(response)
        assert reader.read_u8() != STATUS_OK
        assert "not hydrated" in reader.read_str()

    def test_hydrate_then_score_matches_base_store(self, hotel_database):
        node = self._node(hotel_database)
        attribute = self._attribute(hotel_database)
        base = ColumnarSummaryStore(hotel_database)
        columns = base.columns(attribute)
        processor = SubjectiveQueryProcessor(hotel_database)
        expected = base.pair_degrees(
            processor.membership, columns.entity_ids, attribute, "very clean room"
        )
        snapshot = ColumnSnapshot.of_slice(
            columns, 0, 0, columns.num_entities, hotel_database.data_version
        )
        response, _ = node.handle_frame(encode_hydrate_request(snapshot.pack()))
        reader = Reader(response)
        assert reader.read_u8() == STATUS_OK
        assert reader.read_u64() == hotel_database.data_version
        assert reader.read_u32() == columns.num_entities
        assert node.owned_slice_ids == [0]

        payload = encode_score_request(
            0, attribute, "very clean room", 0, columns.num_entities, None
        )
        response, _ = node.handle_frame(payload)
        reader = Reader(response)
        assert reader.read_u8() == STATUS_OK
        vector = reader.read_f64_array(reader.read_u32())
        assert vector.tolist() == expected
        # A repeated request is a cache hit, not a second kernel call.
        node.handle_frame(payload)
        assert node.kernel_calls == 1
        assert node.score_requests == 2

    def test_corrupted_snapshot_is_transported_error(self, hotel_database):
        node = self._node(hotel_database)
        attribute = self._attribute(hotel_database)
        columns = ColumnarSummaryStore(hotel_database).columns(attribute)
        blob = bytearray(
            ColumnSnapshot.of_slice(columns, 0, 0, 2, hotel_database.data_version).pack()
        )
        blob[-1] ^= 0xFF
        response, stop = node.handle_frame(encode_hydrate_request(bytes(blob)))
        assert not stop
        reader = Reader(response)
        assert reader.read_u8() != STATUS_OK
        assert "SnapshotIntegrityError" in reader.read_str()
        assert node.owned_slice_ids == []

    def test_non_roundtrippable_entity_ids_are_refused_at_pack(self, hotel_database):
        """Tuple ids would silently come back as lists: pack must refuse them."""
        from repro.errors import SnapshotError

        attribute = self._attribute(hotel_database)
        columns = ColumnarSummaryStore(hotel_database).columns(attribute)
        snapshot = ColumnSnapshot.of_slice(columns, 0, 0, 2, hotel_database.data_version)
        snapshot.columns.entity_ids[0] = ("tuple", "id")
        with pytest.raises(SnapshotError) as excinfo:
            snapshot.pack()
        assert "not snapshot-serializable" in str(excinfo.value)

    def test_slice_bounds_mismatch_is_transported_error(self, hotel_database):
        node = self._node(hotel_database)
        attribute = self._attribute(hotel_database)
        columns = ColumnarSummaryStore(hotel_database).columns(attribute)
        snapshot = ColumnSnapshot.of_slice(columns, 0, 0, 4, hotel_database.data_version)
        node.handle_frame(encode_hydrate_request(snapshot.pack()))
        response, _ = node.handle_frame(
            encode_score_request(0, attribute, "clean", 0, 7, None)
        )
        reader = Reader(response)
        assert reader.read_u8() != STATUS_OK
        assert "bounds mismatch" in reader.read_str()

    def test_versioned_invalidate_semantics(self, hotel_database):
        """Same-version invalidate recycles caches; a newer version drops slices."""
        node = self._node(hotel_database)
        attribute = self._attribute(hotel_database)
        columns = ColumnarSummaryStore(hotel_database).columns(attribute)
        version = hotel_database.data_version
        snapshot = ColumnSnapshot.of_slice(columns, 0, 0, 4, version)
        node.handle_frame(encode_hydrate_request(snapshot.pack()))
        node.handle_frame(encode_score_request(0, attribute, "clean", 0, 4, None))

        response, _ = node.handle_frame(encode_invalidate_request(version))
        reader = Reader(response)
        assert reader.read_u8() == STATUS_OK
        assert reader.read_u64() == version
        assert reader.read_u32() == 1  # one memoised vector dropped
        assert node.owned_slice_ids == [0]  # same version: columns stay

        response, _ = node.handle_frame(encode_invalidate_request(version + 1))
        reader = Reader(response)
        assert reader.read_u8() == STATUS_OK
        assert reader.read_u64() == version
        assert node.owned_slice_ids == []  # newer version: slices dropped
        assert node.data_version == version + 1  # node adopts the caller's version
        # The superseded generation is retired as a delta base, not discarded.
        assert node.source._stale_version == version
        assert set(node.source._stale) == {(attribute, 0)}

    def test_a_delta_rehydration_drops_the_slice_rank_memo(self, hotel_database):
        """A node never ranks from the memo of a slice it has re-hydrated since:
        a ``hydrate delta`` frame drops the slice's envelopes and exact degrees
        even with no ``invalidate`` frame ahead of it."""
        from dataclasses import replace

        from repro.core.columnar import SnapshotDelta

        node = self._node(hotel_database)
        attribute = self._attribute(hotel_database)
        columns = ColumnarSummaryStore(hotel_database).columns(attribute)
        version, stop = hotel_database.data_version, columns.num_entities
        base = ColumnSnapshot.of_slice(columns, 0, 0, stop, version)
        node.handle_frame(encode_hydrate_request(base.pack()))
        rows = np.arange(stop)
        rank = encode_rank_request(
            2,
            "product",
            4,
            4,
            [("clean", "and", True, ((attribute, "very clean room"),))],
            [(TREE_PREDICATE, 0)],
            [(0, 0, stop)],
            rows,
            rows,
            [],
        )
        assert node.handle_frame(rank)[0][0] == STATUS_OK
        assert node.cache_entries == 1  # the condition's memo on slice 0
        changed = replace(base.columns, totals=base.columns.totals.copy())
        changed.totals[0] += 2.0
        delta = SnapshotDelta.between(
            base, ColumnSnapshot(version + 1, 0, 0, stop, changed)
        )
        response, _ = node.handle_frame(encode_hydrate_delta_request(delta.pack()))
        assert response[0] == STATUS_OK
        assert node.cache_entries == 0

    def test_cross_version_hydration_drops_older_slices(self, hotel_database):
        node = self._node(hotel_database)
        attribute = self._attribute(hotel_database)
        columns = ColumnarSummaryStore(hotel_database).columns(attribute)
        node.handle_frame(
            encode_hydrate_request(ColumnSnapshot.of_slice(columns, 0, 0, 4, 5).pack())
        )
        node.handle_frame(
            encode_hydrate_request(ColumnSnapshot.of_slice(columns, 1, 4, 8, 5).pack())
        )
        assert node.owned_slice_ids == [0, 1]
        node.handle_frame(
            encode_hydrate_request(ColumnSnapshot.of_slice(columns, 1, 4, 8, 6).pack())
        )
        assert node.owned_slice_ids == [1]
        assert node.data_version == 6


# ---------------------------------------------------------------------------
# Differential equivalence over localhost TCP (managed forked node fleets)
# ---------------------------------------------------------------------------


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("num_nodes", NODE_COUNTS)
    def test_hotels_rankings_identical(self, hotel_database, num_nodes):
        assert_engines_agree(hotel_database, _cluster(num_nodes), HOTEL_QUERIES)

    @pytest.mark.parametrize("num_nodes", NODE_COUNTS)
    def test_restaurants_rankings_identical(self, restaurant_database, num_nodes):
        assert_engines_agree(restaurant_database, _cluster(num_nodes), RESTAURANT_QUERIES)

    def test_more_slices_than_nodes(self, hotel_database):
        """Nodes owning several contiguous slices each serve identically."""
        assert_engines_agree(hotel_database, _cluster(2, num_shards=7), HOTEL_QUERIES[:2])

    def test_more_nodes_than_entities(self, hotel_database):
        """Empty slices ship no snapshots and change nothing (E < num_nodes)."""
        num_entities = len(hotel_database.entity_ids())
        assert_engines_agree(hotel_database, _cluster(num_entities + 3), HOTEL_QUERIES[:2])

    def test_external_unmanaged_fleet(self, hotel_database):
        """Explicitly started TCP nodes (addresses=...) serve identically."""
        processor = SubjectiveQueryProcessor(hotel_database)
        servers = [
            start_local_node(processor.membership, node_id=index)[0] for index in range(2)
        ]
        try:
            baseline = SubjectiveQueryEngine(database=hotel_database)
            with ClusterQueryEngine(
                database=hotel_database,
                processor=processor,
                addresses=[server.address for server in servers],
                **FAST,
            ) as cluster:
                assert not cluster.sharded_store.managed
                for sql in HOTEL_QUERIES[:3]:
                    assert_identical_results(
                        baseline.execute(sql), cluster.execute(sql), context=sql
                    )
        finally:
            for server in servers:
                server.stop()


    @pytest.mark.parametrize(
        "options",
        [{"window": 1}, {"snapshot_compression": True}],
        ids=["one-frame-window", "compressed-snapshots"],
    )
    def test_transport_options_are_lossless(self, hotel_database, options):
        """No pipelining, or zlib-framed hydration: not one bit changes."""
        assert_engines_agree(hotel_database, _cluster(2, num_shards=4, **options), HOTEL_QUERIES)

    def test_external_fleet_with_replicas(self, hotel_database):
        """Replica routing over explicitly started nodes serves identically."""
        processor = SubjectiveQueryProcessor(hotel_database)
        servers = [
            start_local_node(processor.membership, node_id=index)[0] for index in range(3)
        ]
        try:
            baseline = SubjectiveQueryEngine(database=hotel_database)
            with ClusterQueryEngine(
                database=hotel_database,
                processor=processor,
                addresses=[server.address for server in servers],
                replication=2,
                **FAST,
            ) as cluster:
                assert cluster.sharded_store.replication == 2
                for sql in HOTEL_QUERIES[:3]:
                    assert_identical_results(
                        baseline.execute(sql), cluster.execute(sql), context=sql
                    )
                node_stats = cluster.sharded_store.node_stats()
                assert all(stats["hydrated_slices"] > 0 for stats in node_stats)
        finally:
            for server in servers:
                server.stop()

    def test_retrieval_fallback_runs_on_coordinator(self, hotel_database):
        """The BM25 fallback predicate never ships work to the fleet."""
        with ClusterQueryEngine(
            database=hotel_database, num_nodes=2, **FAST
        ) as engine:
            sql = HOTEL_QUERIES[-1]
            engine.execute(sql)
            plan = engine.plan(sql)
            assert (
                plan.interpretations[FALLBACK_PREDICATE].method
                is InterpretationMethod.TEXT_RETRIEVAL
            )
            assert engine.sharded_store.fanouts == 0

    def test_top_k_edge_cases(self, hotel_database):
        sql = 'select * from Entities where "clean room" and "friendly staff"'
        baseline = SubjectiveQueryEngine(database=hotel_database)
        with ClusterQueryEngine(database=hotel_database, num_nodes=3, **FAST) as engine:
            for top_k in (0, 1, 1000):
                assert_identical_results(
                    baseline.execute(sql, top_k=top_k),
                    engine.execute(sql, top_k=top_k),
                    context=f"top_k={top_k}",
                )


    def test_serial_run_batch_identical(self, hotel_database):
        """One query at a time through the batch path, fleet and all."""
        baseline = SubjectiveQueryEngine(database=hotel_database)
        with ClusterQueryEngine(
            database=hotel_database, num_nodes=2, max_inflight_queries=1, **FAST
        ) as engine:
            expected = baseline.run_batch(HOTEL_QUERIES)
            actual = engine.run_batch(HOTEL_QUERIES)
            assert len(actual) == len(expected)
            for exp, act in zip(expected.results, actual.results):
                assert_identical_results(exp, act)


class TestReplicatedFleet:
    """``replication=2`` routes each score to one of two warm replicas; which
    one answers must never change a bit of any result."""

    @pytest.mark.parametrize("num_nodes", [2, 4])
    def test_hotels_rankings_identical(self, hotel_database, num_nodes):
        assert_engines_agree(
            hotel_database, _cluster(num_nodes, replication=2), HOTEL_QUERIES
        )

    @pytest.mark.parametrize("num_nodes", [2, 4])
    def test_restaurants_rankings_identical(self, restaurant_database, num_nodes):
        assert_engines_agree(
            restaurant_database, _cluster(num_nodes, replication=2), RESTAURANT_QUERIES
        )

    def test_more_slices_than_nodes(self, hotel_database):
        assert_engines_agree(
            hotel_database, _cluster(3, num_shards=7, replication=2), HOTEL_QUERIES[:3]
        )

    def test_full_replication_hydrates_every_slice_everywhere(self, hotel_database):
        """At R = N every node holds every slice it was routed, and answers agree."""
        baseline = SubjectiveQueryEngine(database=hotel_database)
        with ClusterQueryEngine(
            database=hotel_database, num_nodes=3, replication=3, **FAST
        ) as engine:
            store = engine.sharded_store
            assert [store._replicas_of(slice_id) for slice_id in range(3)] == [
                [0, 1, 2], [1, 2, 0], [2, 0, 1],
            ]
            for sql in HOTEL_QUERIES[:3]:
                assert_identical_results(baseline.execute(sql), engine.execute(sql), context=sql)
            assert all(stats["owned_slices"] == [0, 1, 2] for stats in store.node_stats())

    def test_concurrent_run_batch_identical(self, hotel_database):
        batch = HOTEL_QUERIES * 2
        baseline = SubjectiveQueryEngine(database=hotel_database)
        with ClusterQueryEngine(
            database=hotel_database,
            num_nodes=2,
            replication=2,
            max_inflight_queries=8,
            **FAST,
        ) as engine:
            expected = baseline.run_batch(batch)
            actual = engine.run_batch(batch)
            assert len(actual) == len(expected)
            for exp, act in zip(expected.results, actual.results):
                assert_identical_results(exp, act)
            assert engine.sharded_store.transport_counters()["slice_failovers"] == 0


class TestConcurrentBatch:
    def test_concurrent_run_batch_bit_identical_to_serial(self, hotel_database):
        """Overlapped fan-outs must not change a single bit of any result."""
        batch = HOTEL_QUERIES * 2
        baseline = SubjectiveQueryEngine(database=hotel_database)
        with ClusterQueryEngine(
            database=hotel_database, num_nodes=2, max_inflight_queries=8, **FAST
        ) as concurrent:
            expected = baseline.run_batch(batch)
            actual = concurrent.run_batch(batch)
            assert len(actual) == len(expected)
            for exp, act in zip(expected.results, actual.results):
                assert_identical_results(exp, act)

    def test_concurrent_cache_stats_match_serial_accounting(self, hotel_database):
        """The concurrent batch reports what a serial execution would count.

        The concurrent batch never prunes (its prefetch already fetched full
        vectors), so the serial reference runs unpruned too: a pruned serial
        query ranks on the nodes and touches no coordinator cache at all.
        """
        batch = HOTEL_QUERIES * 2
        with ClusterQueryEngine(
            database=hotel_database, num_nodes=2, max_inflight_queries=1, **FAST
        ) as serial, ClusterQueryEngine(
            database=hotel_database, num_nodes=2, max_inflight_queries=8, **FAST
        ) as concurrent:
            serial.prune_topk = False
            serial_stats = serial.run_batch(batch).cache_stats
            concurrent_stats = concurrent.run_batch(batch).cache_stats
            for name in (
                "plan_hits",
                "plan_misses",
                "membership_hits",
                "membership_misses",
                "candidate_hits",
                "candidate_misses",
                "rpc_requests",
                "snapshot_hydrations",
            ):
                assert concurrent_stats[name] == serial_stats[name], name

    def test_concurrent_batch_honors_use_markers_ablation(self, hotel_setup):
        """Prefetch must not ship marker degrees when the ablation disables them.

        The marker-free processor (``use_markers=False``) computes raw-
        extraction degrees; a concurrent batch must produce exactly what a
        serial one does — the prefetch may not route around the
        processor's compute path.
        """
        from repro.core.membership import RawExtractionMembership

        database = hotel_setup.database
        bank = [p for p in hotel_setup.predicate_bank if p.in_schema][:20]
        examples = []
        for index, predicate in enumerate(bank):
            entity = hotel_setup.corpus.entities[index % len(hotel_setup.corpus.entities)]
            examples.append(
                (
                    entity.entity_id,
                    predicate.primary_attribute,
                    predicate.text,
                    hotel_setup.oracle(predicate, entity.entity_id),
                )
            )
        if len({label for *_x, label in examples}) < 2:
            pytest.skip("sampled labels degenerate for this seed")
        raw = RawExtractionMembership(
            database=database, embedder=database.phrase_embedder
        ).fit(examples)

        def build():
            processor = SubjectiveQueryProcessor(
                database, use_markers=False, raw_membership=raw
            )
            return ClusterQueryEngine(
                database=database, processor=processor, num_nodes=2, **FAST
            )

        batch = HOTEL_QUERIES[:3] * 2
        with build() as serial, build() as concurrent:
            serial.max_inflight_queries = 1
            concurrent.max_inflight_queries = 8
            expected = serial.run_batch(batch)
            actual = concurrent.run_batch(batch)
            for exp, act in zip(expected.results, actual.results):
                assert_identical_results(exp, act)

    def test_transport_counters_surface_in_batch_stats(self, hotel_database):
        with ClusterQueryEngine(database=hotel_database, num_nodes=2, **FAST) as engine:
            batch = engine.run_batch(HOTEL_QUERIES[:3])
            assert batch.cache_stats["rpc_requests"] > 0
            assert batch.cache_stats["rpc_bytes_sent"] > 0
            assert batch.cache_stats["rpc_bytes_received"] > 0
            assert batch.cache_stats["snapshot_hydrations"] > 0
            # A warm repeat ships nothing: all transport deltas are zero.
            warm = engine.run_batch(HOTEL_QUERIES[:3])
            assert warm.cache_stats["rpc_requests"] == 0
            assert warm.cache_stats["snapshot_hydrations"] == 0


# ---------------------------------------------------------------------------
# Failure modes: node loss, reconnection, respawn
# ---------------------------------------------------------------------------


class TestNodeLoss:
    def test_node_death_mid_query_surfaces_and_recovers(self, hotel_database):
        """A killed node raises WorkerCrashedError; the next query respawns it."""
        processor = SubjectiveQueryProcessor(hotel_database)
        store = ClusterShardStore(hotel_database, num_nodes=2, **FAST)
        try:
            attribute = next(iter(hotel_database.schema.subjective_attributes)).name
            ids = hotel_database.entity_ids()
            first = store.pair_degrees(processor.membership, ids, attribute, "clean")
            assert first is not None
            victim = store.processes[0]
            victim.kill()
            victim.join(timeout=5)
            with pytest.raises(WorkerCrashedError) as excinfo:
                store.pair_degrees(processor.membership, ids, attribute, "spotless")
            assert "cluster node" in str(excinfo.value)

            # The next call respawns the dead node, re-hydrates, and serves
            # exactly the degrees of the first pass.
            again = store.pair_degrees(processor.membership, ids, attribute, "clean")
            assert again == first
            assert store._node_counters[0]["respawns"] == 1
            assert store._node_counters[1]["respawns"] == 0
        finally:
            store.close()

    def test_connection_loss_reconnects_without_respawn(self, hotel_database):
        """Losing only the connection reconnects to the same node process."""
        processor = SubjectiveQueryProcessor(hotel_database)
        store = ClusterShardStore(hotel_database, num_nodes=2, **FAST)
        try:
            attribute = next(iter(hotel_database.schema.subjective_attributes)).name
            ids = hotel_database.entity_ids()
            first = store.pair_degrees(processor.membership, ids, attribute, "clean")
            pids = [process.pid for process in store.processes]
            # Sever the coordinator side of node 0's connection.
            store.channels[0].fail_all(WorkerCrashedError("simulated connection loss"))
            again = store.pair_degrees(processor.membership, ids, attribute, "clean")
            assert again == first
            assert [process.pid for process in store.processes] == pids  # no respawn
            assert store._node_counters[0]["reconnects"] == 1
            assert store._node_counters[0]["respawns"] == 0
        finally:
            store.close()

    def test_stats_call_to_dead_node_fails_cleanly(self, hotel_database):
        """A frame to a killed node fails with a WorkerCrashedError naming it."""
        with ClusterQueryEngine(database=hotel_database, num_nodes=2, **FAST) as engine:
            engine.execute(HOTEL_QUERIES[0])
            store = engine.sharded_store
            victim = store.processes[0]
            victim.kill()
            victim.join(timeout=5)
            reply = store.channels[0].enqueue(bytes([OP_STATS]), lambda reader: reader)
            with pytest.raises(WorkerCrashedError) as excinfo:
                store._pump_until([reply])
            assert "cluster node 0" in str(excinfo.value)
            # The statistics surface skips the dead node instead of raising.
            assert len(store.node_stats()) == 1

    def test_transported_node_error_raises_without_failover(
        self, hotel_database, monkeypatch
    ):
        """A node-side scoring fault is a bug signal: it raises, even with a
        warm replica to fail over to, and leaves the streams in sync — the
        next query on the same engine is exact."""
        faults = multiprocessing.get_context("fork").Value("i", 0)
        dispatch = ShardNodeServer.dispatch

        def flaky(server, opcode, reader):
            if opcode in (OP_SCORE, OP_RANK):
                with faults.get_lock():
                    if faults.value:
                        faults.value -= 1
                        raise RuntimeError("injected node fault")
            return dispatch(server, opcode, reader)

        # The forks inherit the patched class and share the fault counter.
        monkeypatch.setattr(ShardNodeServer, "dispatch", flaky)
        sql = HOTEL_QUERIES[2]
        expected = SubjectiveQueryEngine(database=hotel_database).execute(sql)
        with ClusterQueryEngine(
            database=hotel_database, num_nodes=2, replication=2, **FAST
        ) as engine:
            engine.execute(HOTEL_QUERIES[0])  # fleet up and hydrated
            faults.value = 1
            with pytest.raises(RpcError) as excinfo:
                engine.execute(sql)
            assert not isinstance(excinfo.value, WorkerCrashedError)
            assert "injected node fault" in str(excinfo.value)
            assert faults.value == 0
            assert engine.sharded_store.transport_counters()["slice_failovers"] == 0
            assert_identical_results(expected, engine.execute(sql))

    def test_unmanaged_fleet_cannot_respawn(self, hotel_database):
        processor = SubjectiveQueryProcessor(hotel_database)
        server, _thread = start_local_node(processor.membership)
        store = ClusterShardStore(
            hotel_database,
            addresses=[server.address],
            connect_timeout=1.0,
            io_timeout=5.0,
        )
        try:
            attribute = next(iter(hotel_database.schema.subjective_attributes)).name
            ids = hotel_database.entity_ids()
            first = store.pair_degrees(processor.membership, ids, attribute, "clean")
            assert first is not None
            server.stop()
            store.channels[0].fail_all(WorkerCrashedError("node went away"))
            with pytest.raises(WorkerCrashedError):
                store.pair_degrees(processor.membership, ids, attribute, "clean")
        finally:
            store.close()
            server.stop()


# ---------------------------------------------------------------------------
# Invalidation: data_version bumps re-hydrate, never re-fork
# ---------------------------------------------------------------------------


class TestInvalidation:
    def test_version_bump_rehydrates_without_respawn(self):
        from test_serving_sharded import build_mutable_database

        database = build_mutable_database(num_entities=6)
        with ClusterQueryEngine(database=database, num_nodes=2, **FAST) as engine:
            store = engine.sharded_store
            sql = 'select * from Entities where "clean room" limit 6'
            engine.execute(sql)
            pids = [process.pid for process in store.processes]
            hydrations_before = store.hydrations

            summary = MarkerSummary(
                "room_cleanliness",
                list(
                    database.marker_summary(
                        database.entity_ids()[0], "room_cleanliness"
                    ).markers
                ),
            )
            summary.add_phrase("clean", sentiment=0.9)
            database.store_summary(database.entity_ids()[0], summary)

            result = engine.execute(sql)
            # Same processes, fresh snapshots: re-hydration, not re-fork.
            assert [process.pid for process in store.processes] == pids
            assert store.hydrations > hydrations_before
            assert store.data_version == database.data_version
            for stats in store.node_stats():
                assert stats["data_version"] == database.data_version
            fresh = SubjectiveQueryEngine(database=database).execute(sql)
            assert_identical_results(fresh, result)

    def test_mid_batch_ingest_rehydrates_and_serves_fresh(self):
        """A ``data_version`` bump racing an in-flight batch leaves no stale degree."""
        from test_serving_sharded import (
            MARKERS,
            _IngestingBatch,
            build_mutable_database,
        )

        database = build_mutable_database()
        with ClusterQueryEngine(
            database=database, num_nodes=3, max_inflight_queries=4, **FAST
        ) as engine:
            store = engine.sharded_store
            sql = 'select * from Entities where "clean room" limit 6'
            stale = engine.execute(sql)
            version_before = database.data_version

            def ingest():
                for index, entity in enumerate(sorted(database.entity_ids())):
                    summary = MarkerSummary("room_cleanliness", list(MARKERS))
                    summary.add_phrase(
                        "dirty" if index % 2 else "clean",
                        sentiment=-0.6 if index % 2 else 0.6,
                    )
                    database.store_summary(entity, summary)

            batch = engine.run_batch(_IngestingBatch([sql, sql], ingest))
            assert database.data_version > version_before
            assert store.data_version == database.data_version
            assert store.invalidations >= 1

            fresh = SubjectiveQueryEngine(database=database).execute(sql)
            assert_identical_results(fresh, batch.results[1])
            stale_degrees = [entity.predicate_degrees for entity in stale.entities]
            fresh_degrees = [entity.predicate_degrees for entity in fresh.entities]
            assert stale_degrees != fresh_degrees

            # Every cached degree equals an uncached recomputation.
            checker = SubjectiveQueryProcessor(database)
            for key in list(engine.membership_cache.keys()):
                entity_id, attribute, phrase = key
                cached = engine.membership_cache.peek(key)
                if attribute is None:
                    recomputed = checker.retrieval_degrees([entity_id], phrase)[0]
                else:
                    recomputed = checker.pair_degrees([entity_id], attribute, phrase)[0]
                assert cached == recomputed, key

            # Straight after another ingest, with nothing in between, the
            # pruned query ranks on the nodes' post-ingest envelopes: a stale
            # bound could justify a wrong prune.
            summary = MarkerSummary("room_cleanliness", list(MARKERS))
            summary.add_phrase("dirty", sentiment=-0.9)
            database.store_summary(sorted(database.entity_ids())[-1], summary)
            ranks_before = sum(node["rank_requests"] for node in store.node_stats())
            ranked = engine.execute(sql)
            assert sum(node["rank_requests"] for node in store.node_stats()) > ranks_before
            assert_identical_results(SubjectiveQueryEngine(database=database).execute(sql), ranked)


    def test_version_bump_rehydrates_every_replica(self):
        """After an ingest no replica may answer from the old snapshot."""
        from test_serving_sharded import build_mutable_database

        database = build_mutable_database(num_entities=6)
        sql = 'select * from Entities where "clean room" limit 6'
        with ClusterQueryEngine(
            database=database, num_nodes=2, replication=2, **FAST
        ) as engine:
            store = engine.sharded_store
            engine.execute(sql)
            entity = database.entity_ids()[0]
            summary = MarkerSummary(
                "room_cleanliness",
                list(database.marker_summary(entity, "room_cleanliness").markers),
            )
            summary.add_phrase("clean", sentiment=0.9)
            database.store_summary(entity, summary)

            fresh = SubjectiveQueryEngine(database=database).execute(sql)
            # Each repeat may be routed to the other replica.
            for _ in range(3):
                assert_identical_results(fresh, engine.execute(sql))
                engine.membership_cache.clear()
                store.invalidate_node_caches()
            for stats in store.node_stats():
                assert stats["data_version"] == database.data_version

    def test_invalidate_node_caches_in_place(self, hotel_database):
        """Cache recycling within a snapshot keeps hydrated slices in place."""
        with ClusterQueryEngine(database=hotel_database, num_nodes=2, **FAST) as engine:
            store = engine.sharded_store
            engine.execute(HOTEL_QUERIES[0])
            cached_before = sum(
                stats["cache_entries"] for stats in store.node_stats()
            )
            assert cached_before > 0
            hydrated_before = [stats["hydrated_slices"] for stats in store.node_stats()]
            dropped = store.invalidate_node_caches()
            assert dropped == cached_before
            after = store.node_stats()
            assert all(stats["cache_entries"] == 0 for stats in after)
            assert [stats["hydrated_slices"] for stats in after] == hydrated_before


# ---------------------------------------------------------------------------
# What a cold query costs: no Nagle stall, no columns inherited by the forks
# ---------------------------------------------------------------------------

PRUNABLE_QUERY = 'select * from Entities where "has really clean rooms" limit 5'


class TestColdQueryCost:
    def test_local_node_disables_nagle_on_accepted_sockets(self, hotel_database, hotel_node):
        processor = SubjectiveQueryProcessor(hotel_database)
        with ClusterQueryEngine(
            database=hotel_database,
            processor=processor,
            addresses=[hotel_node.address],
            **FAST,
        ) as cluster:
            cluster.execute(PRUNABLE_QUERY)
            accepted = hotel_node._active
            assert accepted.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0

    def test_forked_nodes_disable_nagle_on_accepted_sockets(self, hotel_database, monkeypatch):
        # The forks inherit the patched class; shared memory carries each
        # node's socket option back to the test process.
        observed = multiprocessing.get_context("fork").Array("i", [-1, -1])
        handle_frame = ShardNodeServer.handle_frame

        def spy(server, payload):
            observed[server.node_id] = server._active.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            )
            return handle_frame(server, payload)

        monkeypatch.setattr(ShardNodeServer, "handle_frame", spy)
        with ClusterQueryEngine(database=hotel_database, num_nodes=2, **FAST) as cluster:
            cluster.execute(PRUNABLE_QUERY)
        assert all(value not in (-1, 0) for value in observed), list(observed)

    @pytest.mark.parametrize("entry", ["pruned_query", "full_query", "rank", "batch"])
    def test_fleet_forks_before_the_coordinator_builds_columns(
        self, hotel_database, monkeypatch, entry
    ):
        """A node forked after the column build would inherit tensors it never reads."""
        built_at_fork: list[dict] = []
        spawn_node = ClusterShardStore._spawn_node

        def spy(store, index, membership):
            built_at_fork.append(dict(store.base.stats_snapshot()["attributes"]))
            return spawn_node(store, index, membership)

        monkeypatch.setattr(ClusterShardStore, "_spawn_node", spy)
        with ClusterQueryEngine(
            database=hotel_database, num_nodes=2, max_inflight_queries=1, **FAST
        ) as cluster:
            store = cluster.sharded_store
            membership = cluster.processor.membership
            attribute = next(iter(hotel_database.schema.subjective_attributes)).name
            ids = hotel_database.entity_ids()
            if entry == "pruned_query":
                cluster.execute(PRUNABLE_QUERY)
            elif entry == "full_query":
                cluster.execute(PRUNABLE_QUERY.replace(" limit 5", ""))
            elif entry == "rank":
                plan = cluster.plan(PRUNABLE_QUERY)
                candidates = cluster._candidate_rows(plan)
                predicates = cluster._pruned_predicates(plan)
                assert cluster._scan_pruned(plan, candidates, predicates, 5) is not None
            else:
                assert store.request_degrees(membership, ids, attribute, "clean") is not None
            assert store.base.stats_snapshot()["attributes"]  # built by now
        assert built_at_fork == [{}, {}]

    def test_cold_pruned_query_is_one_rank_frame_per_node(self, hotel_database):
        """A pruned query cold at the coordinator costs one frame per node: the
        nodes rank their own slices, no bounded score frame is sent."""
        with ClusterQueryEngine(
            database=hotel_database, num_nodes=2, max_inflight_queries=1, **FAST
        ) as cluster:
            expected = SubjectiveQueryEngine(database=hotel_database).execute(PRUNABLE_QUERY)
            cluster.execute(PRUNABLE_QUERY)  # fleet up and hydrated
            cluster.membership_cache.clear()
            cluster.plan_cache.clear()
            store = cluster.sharded_store
            before = store.transport_counters()["rpc_requests"]
            assert_identical_results(expected, cluster.execute(PRUNABLE_QUERY))
            assert store.transport_counters()["rpc_requests"] - before == 2
            stats = store.node_stats()
            assert [node.get("bounded_requests", 0) for node in stats] == [0, 0]
            assert all(node["rank_requests"] == 2 for node in stats)

    def test_a_cold_rank_frame_scores_less_than_one_chunk(self):
        """Each node seeds its scan from its own lower envelopes: one cold
        rank frame per node over 1600 entities scores fewer rows, summed over
        the nodes, than one coordinator chunk holds."""
        database = build_synthetic_columnar_database(num_entities=1600, seed=11)
        sql = 'select * from Entities where "word003" and "word019" limit 10'
        with ClusterQueryEngine(
            database=database, num_nodes=2, max_inflight_queries=1, **FAST
        ) as cluster:
            # Fleet up, both attributes hydrated, neither queried phrase seen.
            cluster.execute('select * from Entities where "word001" and "word017" limit 3')
            store = cluster.sharded_store

            def scored() -> int:
                return sum(node["entities_scored"] for node in store.node_stats())

            before, requests = scored(), store.transport_counters()["rpc_requests"]
            expected = SubjectiveQueryEngine(database=database).execute(sql)
            assert_identical_results(expected, cluster.execute(sql))
            assert store.transport_counters()["rpc_requests"] - requests == 2
            assert 0 < scored() - before < cluster.prune_chunk_size

    def test_the_coordinator_folds_no_envelope_for_a_ranked_query(
        self, hotel_database, monkeypatch
    ):
        """The scan bound is the nodes' work now: the coordinator's columnar
        store is never asked for a degree envelope."""
        calls: list[tuple] = []
        envelope = ColumnarSummaryStore.degree_envelope

        def spy(store, membership, attribute, phrase):
            calls.append((attribute, phrase))
            return envelope(store, membership, attribute, phrase)

        monkeypatch.setattr(ColumnarSummaryStore, "degree_envelope", spy)
        with ClusterQueryEngine(
            database=hotel_database, num_nodes=2, max_inflight_queries=1, **FAST
        ) as cluster:
            expected = SubjectiveQueryEngine(database=hotel_database).execute(PRUNABLE_QUERY)
            calls.clear()  # the reference engine above may use the envelope
            assert_identical_results(expected, cluster.execute(PRUNABLE_QUERY))
            stats = cluster.sharded_store.node_stats()
            assert all(node.get("rank_requests", 0) == 1 for node in stats)  # the pruned path
        assert calls == []

    @pytest.mark.parametrize("nots", [MAX_TREE_DEPTH - 2, MAX_TREE_DEPTH + 6])
    def test_a_tree_deeper_than_a_node_accepts_is_never_shipped(self, hotel_database, nots):
        """A NOT chain the nodes would refuse as too deep takes the unpruned
        fan-out instead of failing on every node; a shallower one still ranks
        on the nodes.  Both answer like the in-process engine."""
        sql = 'select * from Entities where ' + "not " * nots + '"has really clean rooms" limit 3'
        expected = SubjectiveQueryProcessor(hotel_database).execute(sql)
        with ClusterQueryEngine(
            database=hotel_database, num_nodes=2, max_inflight_queries=1, **FAST
        ) as cluster:
            assert_identical_results(expected, cluster.execute(sql))
            ranked = [node["rank_requests"] for node in cluster.sharded_store.node_stats()]
        assert ranked == ([1, 1] if nots + 1 <= MAX_TREE_DEPTH else [0, 0])

    def test_a_query_the_coordinator_cache_holds_sends_no_frame(self, hotel_database):
        """Every degree already cached on the coordinator (an unpruned ranking
        left the columns): the pruned query is answered from the cache, no frame."""
        with ClusterQueryEngine(
            database=hotel_database, num_nodes=2, max_inflight_queries=1, **FAST
        ) as cluster:
            expected = SubjectiveQueryEngine(database=hotel_database).execute(PRUNABLE_QUERY)
            cluster.prune_topk = False
            cluster.execute(PRUNABLE_QUERY)  # fills the columns
            cluster.prune_topk = True
            store = cluster.sharded_store
            before = store.transport_counters()["rpc_requests"]
            assert_identical_results(expected, cluster.execute(PRUNABLE_QUERY))
            assert store.transport_counters()["rpc_requests"] == before
            assert [node["rank_requests"] for node in store.node_stats()] == [0, 0]

    @pytest.mark.parametrize("width", [0, 2])
    def test_a_rank_reply_of_the_wrong_width_is_a_typed_error(
        self, hotel_database, monkeypatch, width
    ):
        """A reply with more or fewer degree columns than the query has
        predicates is refused as an ``RpcError``, never merged."""
        with ClusterQueryEngine(
            database=hotel_database, num_nodes=2, max_inflight_queries=1, **FAST
        ) as cluster:
            reply = RankReply(
                np.array([0], dtype=np.uint32), np.array([0.5]), np.zeros((1, width)), 1, 1, 0
            )
            monkeypatch.setattr(cluster.sharded_store, "rank", lambda *args: [reply])
            plan = cluster.plan(PRUNABLE_QUERY)
            candidates = cluster._candidate_rows(plan)
            predicates = cluster._pruned_predicates(plan)
            assert len(predicates) == 1
            with pytest.raises(RpcError, match="rank reply"):
                cluster._scan_pruned(plan, candidates, predicates, 5)

    def test_oversized_hydrate_frame_names_the_slice_and_the_remedy(self, hotel_database):
        processor = SubjectiveQueryProcessor(hotel_database)
        store = ClusterShardStore(hotel_database, num_nodes=1, max_frame_bytes=4096, **FAST)
        try:
            attribute = next(iter(hotel_database.schema.subjective_attributes)).name
            ids = hotel_database.entity_ids()
            with pytest.raises(FrameTooLargeError) as raised:
                store.pair_degrees(processor.membership, ids, attribute, "clean")
            message = str(raised.value)
            assert repr(attribute) in message and "slice 0" in message
            assert f"({len(store.base.columns(attribute).entity_ids)} entities)" in message
            assert "raise `max_frame_bytes` or `num_shards`" in message
        finally:
            store.close()


# ---------------------------------------------------------------------------
# Statistics and lifecycle
# ---------------------------------------------------------------------------


class TestStatsAndLifecycle:
    def test_partition_stats_carry_rpc_counters(self, hotel_database):
        with ClusterQueryEngine(database=hotel_database, num_nodes=2, **FAST) as engine:
            engine.execute(HOTEL_QUERIES[0])
            engine.execute(HOTEL_QUERIES[0])  # warm: node cache hits
            partitions = engine.partition_stats()
            assert len(partitions) == 2
            for entry in partitions:
                assert entry["connected"]
                assert entry["requests"] > 0
                assert entry["bytes_sent"] > 0
                assert entry["bytes_received"] > 0
                assert entry["reconnects"] == 0  # a healthy fleet's start is no recovery
                assert entry["respawns"] == 0
            snapshot = engine.stats_snapshot()
            assert snapshot["num_nodes"] == 2
            assert len(snapshot["nodes"]) == 2
            store_stats = engine.sharded_store.stats_snapshot()
            assert store_stats["backend"] == "cluster"
            assert store_stats["connected_nodes"] == 2
            assert store_stats["fanouts"] >= 1

    def test_close_is_idempotent_and_reaps_nodes(self, hotel_database):
        engine = ClusterQueryEngine(database=hotel_database, num_nodes=2, **FAST)
        engine.execute(HOTEL_QUERIES[0])
        processes = [process for process in engine.sharded_store.processes]
        engine.close()
        engine.close()
        assert all(not process.is_alive() for process in processes)

    def test_invalid_counts(self, hotel_database):
        with pytest.raises(ValueError):
            ClusterQueryEngine(database=hotel_database, num_nodes=0)
        with pytest.raises(ValueError):
            ClusterShardStore(hotel_database, num_nodes=4, num_slices=2)
        with pytest.raises(ValueError):
            ClusterQueryEngine(
                database=hotel_database, num_nodes=2, max_inflight_queries=0
            )
        with pytest.raises(ValueError):
            ClusterShardStore(
                hotel_database, num_nodes=3, addresses=[("127.0.0.1", 1)]
            )


    def test_replication_is_positive_and_clamped_to_the_fleet(self, hotel_database):
        with pytest.raises(ValueError, match="replication must be positive"):
            ClusterShardStore(hotel_database, num_nodes=2, replication=0)
        store = ClusterShardStore(hotel_database, num_nodes=2, replication=5)
        try:
            assert store.replication == 2
            snapshot = store.stats_snapshot()
            assert (snapshot["replication"], snapshot["managed"]) == (2, True)
            assert snapshot["connected_nodes"] == 0  # nothing forks before a query
        finally:
            store.close()

    def test_engine_refuses_num_nodes_contradicting_addresses(self, hotel_database):
        """The engine refuses what its store refuses, before anything connects."""
        addresses = [("127.0.0.1", 1), ("127.0.0.1", 2)]
        with pytest.raises(ValueError, match="contradicts the 2 addresses"):
            ClusterQueryEngine(database=hotel_database, num_nodes=3, addresses=addresses)
        engine = ClusterQueryEngine(database=hotel_database, num_nodes=2, addresses=addresses)
        assert engine.num_nodes == 2
        engine.close()

    def test_unreachable_address_is_worker_crash(self, hotel_database):
        processor = SubjectiveQueryProcessor(hotel_database)
        # Bind-then-close yields a port with nothing listening.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_address = probe.getsockname()
        probe.close()
        store = ClusterShardStore(
            hotel_database,
            addresses=[dead_address],
            connect_timeout=0.5,
            io_timeout=2.0,
        )
        try:
            attribute = next(iter(hotel_database.schema.subjective_attributes)).name
            with pytest.raises(WorkerCrashedError):
                store.pair_degrees(
                    processor.membership, hotel_database.entity_ids(), attribute, "x"
                )
        finally:
            store.close()
