"""Shard-service RPC layer: differential equivalence and failure-mode tests.

The contract of :mod:`repro.serving.rpc` is the same as every other serving
layer's: *exact* equality with the unsharded
:class:`repro.serving.SubjectiveQueryEngine` — same ranked entity ids,
bit-identical scores and per-predicate degrees — for every worker count,
plus clean failure modes at the service boundary: a worker crash surfaces
a :class:`WorkerCrashedError` (and the fleet recovers on the next query),
oversized frames are rejected on both ends, empty slices and
tiny-entity-count fleets serve correctly, and a ``data_version`` bump
racing an in-flight batch tears stale-snapshot workers down before any
stale degree can be served.
"""

from __future__ import annotations

import socket
import struct
import threading

import pytest

from repro.core import SubjectiveQueryProcessor
from repro.core.columnar import ColumnarSummaryStore
from repro.core.interpreter import InterpretationMethod
from repro.core.markers import MarkerSummary
from repro.serving import (
    CoordinatorQueryEngine,
    FrameTooLargeError,
    RpcError,
    RpcShardStore,
    ShardServiceWorker,
    SubjectiveQueryEngine,
    WorkerCrashedError,
)
from repro.serving.protocol import (
    OP_SHUTDOWN,
    OP_STATS,
    STATUS_OK,
    Reader,
    encode_score_request,
    pack_str,
    recv_frame,
    send_frame,
)
from repro.testing import assert_identical_results

WORKER_COUNTS = [1, 2, 4]

#: Gibberish predicates interpret to nothing and must fall back to BM25
#: text retrieval on the coordinator (workers only serve marker scoring).
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


def _assert_engines_agree(database, sqls, num_workers, **engine_kwargs):
    baseline = SubjectiveQueryEngine(database=database)
    with CoordinatorQueryEngine(
        database=database, num_workers=num_workers, **engine_kwargs
    ) as coordinator:
        for sql in sqls:
            expected = baseline.execute(sql)
            actual = coordinator.execute(sql)
            assert_identical_results(
                expected, actual, context=f"{sql!r} workers={num_workers}"
            )
            # Warm (fully cached) executions must agree too.
            assert_identical_results(
                expected, coordinator.execute(sql), context=f"warm {sql!r}"
            )


# ---------------------------------------------------------------------------
# Frame protocol
# ---------------------------------------------------------------------------


class TestFrameProtocol:
    def test_frame_roundtrip(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, b"hello frames", 1024)
            assert recv_frame(right, 1024) == b"hello frames"
            send_frame(left, b"", 1024)
            assert recv_frame(right, 1024) == b""
        finally:
            left.close()
            right.close()

    def test_clean_eof_is_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert recv_frame(right, 1024) is None
        finally:
            right.close()

    def test_send_rejects_oversized_payload(self):
        left, right = socket.socketpair()
        try:
            with pytest.raises(FrameTooLargeError):
                send_frame(left, b"x" * 100, max_frame_bytes=10)
        finally:
            left.close()
            right.close()

    def test_recv_rejects_oversized_announcement(self):
        """A hostile/corrupt length prefix is refused before any allocation."""
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack("!I", 1 << 30))
            with pytest.raises(FrameTooLargeError):
                recv_frame(right, max_frame_bytes=1024)
        finally:
            left.close()
            right.close()

    def test_mid_frame_eof_raises(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack("!I", 100) + b"partial")
            left.close()
            with pytest.raises(RpcError):
                recv_frame(right, max_frame_bytes=1024)
        finally:
            right.close()

    def test_score_request_roundtrip(self):
        payload = encode_score_request(3, "rooms", "very clean", 10, 20, [0, 5, 9])
        reader = Reader(payload)
        assert reader.read_u8() == 1  # OP_SCORE
        assert reader.read_u32() == 3
        assert reader.read_str() == "rooms"
        assert reader.read_str() == "very clean"
        assert reader.read_u32() == 10
        assert reader.read_u32() == 20
        assert reader.read_u8() == 1
        assert reader.read_u32_array(reader.read_u32()) == [0, 5, 9]

    def test_truncated_payload_raises(self):
        reader = Reader(pack_str("abc")[:-1])
        with pytest.raises(RpcError):
            reader.read_str()


# ---------------------------------------------------------------------------
# Worker dispatch, driven in-process (deterministic, no fork)
# ---------------------------------------------------------------------------


@pytest.fixture
def hotel_worker(hotel_database):
    processor = SubjectiveQueryProcessor(hotel_database)
    return ShardServiceWorker(
        index=0,
        database=hotel_database,
        membership=processor.membership,
        owned_slice_ids=[0, 1],
    )


class TestWorkerDispatch:
    def _attribute(self, database):
        return next(iter(database.schema.subjective_attributes)).name

    def test_score_matches_base_store(self, hotel_database, hotel_worker):
        attribute = self._attribute(hotel_database)
        base = ColumnarSummaryStore(hotel_database)
        columns = base.columns(attribute)
        processor = SubjectiveQueryProcessor(hotel_database)
        expected = base.pair_degrees(
            processor.membership, columns.entity_ids, attribute, "very clean room"
        )
        payload = encode_score_request(
            0, attribute, "very clean room", 0, columns.num_entities, None
        )
        response, stop = hotel_worker.handle_frame(payload)
        assert not stop
        reader = Reader(response)
        assert reader.read_u8() == STATUS_OK
        vector = reader.read_f64_array(reader.read_u32())
        assert vector.tolist() == expected
        # A repeated request is a cache hit, not a second kernel call.
        hotel_worker.handle_frame(payload)
        assert hotel_worker.kernel_calls == 1
        assert hotel_worker.score_requests == 2

    def test_empty_slice_scores_empty_vector(self, hotel_database, hotel_worker):
        attribute = self._attribute(hotel_database)
        payload = encode_score_request(0, attribute, "clean", 4, 4, None)
        response, _ = hotel_worker.handle_frame(payload)
        reader = Reader(response)
        assert reader.read_u8() == STATUS_OK
        assert reader.read_u32() == 0

    def test_unknown_attribute_is_transported_error(self, hotel_database, hotel_worker):
        response, stop = hotel_worker.handle_frame(
            encode_score_request(0, "no_such_attribute", "x", 0, 1, None)
        )
        assert not stop
        reader = Reader(response)
        assert reader.read_u8() != STATUS_OK
        assert "no_such_attribute" in reader.read_str()

    def test_out_of_range_slice_is_transported_error(self, hotel_database, hotel_worker):
        attribute = self._attribute(hotel_database)
        response, _ = hotel_worker.handle_frame(
            encode_score_request(0, attribute, "x", 0, 10_000, None)
        )
        assert Reader(response).read_u8() != STATUS_OK

    def test_unknown_opcode_is_transported_error(self, hotel_worker):
        response, stop = hotel_worker.handle_frame(bytes([250]))
        assert not stop
        assert Reader(response).read_u8() != STATUS_OK

    def test_invalidate_drops_cache_and_reports_version(
        self, hotel_database, hotel_worker
    ):
        attribute = self._attribute(hotel_database)
        hotel_worker.handle_frame(encode_score_request(0, attribute, "clean", 0, 4, None))
        assert hotel_worker.cache_entries == 1
        response, _ = hotel_worker.handle_frame(
            bytes([2]) + struct.pack("!Q", hotel_database.data_version)
        )
        reader = Reader(response)
        assert reader.read_u8() == STATUS_OK
        assert reader.read_u64() == hotel_database.data_version
        assert reader.read_u32() == 1  # entries dropped
        assert hotel_worker.cache_entries == 0

    def test_serve_loop_over_socketpair(self, hotel_database, hotel_worker):
        """The framed socket loop end-to-end, including shutdown."""
        attribute = self._attribute(hotel_database)
        server, client = socket.socketpair()
        thread = threading.Thread(target=hotel_worker.serve, args=(server,))
        thread.start()
        try:
            send_frame(client, bytes([OP_STATS]), hotel_worker.max_frame_bytes)
            reader = Reader(recv_frame(client, hotel_worker.max_frame_bytes))
            assert reader.read_u8() == STATUS_OK
            send_frame(
                client,
                encode_score_request(0, attribute, "clean", 0, 2, None),
                hotel_worker.max_frame_bytes,
            )
            reader = Reader(recv_frame(client, hotel_worker.max_frame_bytes))
            assert reader.read_u8() == STATUS_OK
            assert reader.read_u32() == 2
            send_frame(client, bytes([OP_SHUTDOWN]), hotel_worker.max_frame_bytes)
            assert Reader(
                recv_frame(client, hotel_worker.max_frame_bytes)
            ).read_u8() == STATUS_OK
        finally:
            thread.join(timeout=5)
            client.close()
            server.close()
        assert not thread.is_alive()

    def test_serve_rejects_oversized_frame_and_closes(self, hotel_database):
        """An oversized frame gets an error response, then the connection dies."""
        processor = SubjectiveQueryProcessor(hotel_database)
        worker = ShardServiceWorker(
            index=0,
            database=hotel_database,
            membership=processor.membership,
            owned_slice_ids=[0],
            max_frame_bytes=64,
        )
        server, client = socket.socketpair()
        thread = threading.Thread(target=worker.serve, args=(server,))
        thread.start()
        try:
            client.sendall(struct.pack("!I", 1 << 20))  # announce 1 MiB
            reader = Reader(recv_frame(client, 1024))
            assert reader.read_u8() != STATUS_OK
            assert "limit" in reader.read_str()
            # The serve loop refuses to continue on the poisoned stream (the
            # forked entry point closes the socket right after it returns).
            thread.join(timeout=5)
            assert not thread.is_alive()
            server.close()
            assert recv_frame(client, 1024) is None
        finally:
            thread.join(timeout=5)
            client.close()
            server.close()


# ---------------------------------------------------------------------------
# Differential equivalence (forked worker fleets)
# ---------------------------------------------------------------------------


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("num_workers", WORKER_COUNTS)
    def test_hotels_rankings_identical(self, hotel_database, num_workers):
        _assert_engines_agree(hotel_database, HOTEL_QUERIES, num_workers)

    @pytest.mark.parametrize("num_workers", WORKER_COUNTS)
    def test_restaurants_rankings_identical(self, restaurant_database, num_workers):
        _assert_engines_agree(restaurant_database, RESTAURANT_QUERIES, num_workers)

    def test_more_slices_than_workers(self, hotel_database):
        """Workers owning several contiguous slices each serve identically."""
        _assert_engines_agree(hotel_database, HOTEL_QUERIES[:2], 2, num_shards=7)

    def test_more_workers_than_entities(self, hotel_database):
        """Empty slices ship no work and change nothing (E < num_workers)."""
        num_entities = len(hotel_database.entity_ids())
        _assert_engines_agree(
            hotel_database, HOTEL_QUERIES[:2], num_entities + 3
        )

    def test_retrieval_fallback_runs_on_coordinator(self, hotel_database):
        """The BM25 fallback predicate never ships work to the fleet."""
        with CoordinatorQueryEngine(database=hotel_database, num_workers=2) as engine:
            sql = HOTEL_QUERIES[-1]
            engine.execute(sql)
            plan = engine.plan(sql)
            assert (
                plan.interpretations[FALLBACK_PREDICATE].method
                is InterpretationMethod.TEXT_RETRIEVAL
            )
            assert engine.sharded_store.fanouts == 0

    def test_run_batch_identical(self, hotel_database):
        baseline = SubjectiveQueryEngine(database=hotel_database)
        with CoordinatorQueryEngine(database=hotel_database, num_workers=2) as engine:
            expected = baseline.run_batch(HOTEL_QUERIES)
            actual = engine.run_batch(HOTEL_QUERIES)
            assert len(actual) == len(expected)
            for exp, act in zip(expected.results, actual.results):
                assert_identical_results(exp, act)

    def test_top_k_edge_cases(self, hotel_database):
        sql = 'select * from Entities where "clean room" and "friendly staff"'
        baseline = SubjectiveQueryEngine(database=hotel_database)
        with CoordinatorQueryEngine(database=hotel_database, num_workers=3) as engine:
            for top_k in (0, 1, 1000):
                assert_identical_results(
                    baseline.execute(sql, top_k=top_k),
                    engine.execute(sql, top_k=top_k),
                    context=f"top_k={top_k}",
                )


# ---------------------------------------------------------------------------
# Failure modes and invalidation races (forked worker fleets)
# ---------------------------------------------------------------------------


class TestWorkerCrash:
    def test_crash_mid_query_surfaces_clean_error(self, hotel_database, monkeypatch):
        """A worker dying with a request in flight raises WorkerCrashedError.

        The liveness sweep in ``_ensure_workers`` is disabled so the kill
        lands *mid-query* — after the fleet check, before the fan-out —
        which is the window a real crash during kernel execution occupies.
        """
        processor = SubjectiveQueryProcessor(hotel_database)
        store = RpcShardStore(hotel_database, num_workers=2)
        try:
            attribute = next(iter(hotel_database.schema.subjective_attributes)).name
            ids = hotel_database.entity_ids()
            first = store.pair_degrees(processor.membership, ids, attribute, "clean")
            assert first is not None
            store.workers[0].process.kill()
            store.workers[0].process.join(timeout=5)
            monkeypatch.setattr(store, "_ensure_workers", lambda membership: None)
            with pytest.raises(WorkerCrashedError) as excinfo:
                store.pair_degrees(processor.membership, ids, attribute, "spotless")
            assert "shard worker" in str(excinfo.value)
            assert store.workers == []  # the whole fleet was torn down
            monkeypatch.undo()

            # The next call re-forks the fleet and serves exact degrees.
            again = store.pair_degrees(processor.membership, ids, attribute, "clean")
            assert again == first
            assert store.respawns == 2
        finally:
            store.close()

    def test_client_rpc_to_dead_worker_raises_cleanly(self, hotel_database):
        with CoordinatorQueryEngine(database=hotel_database, num_workers=2) as engine:
            engine.execute(HOTEL_QUERIES[0])
            client = engine.sharded_store.workers[0]
            client.process.kill()
            client.process.join(timeout=5)
            with pytest.raises(WorkerCrashedError) as excinfo:
                client.stats()
            assert f"shard worker {client.index}" in str(excinfo.value)

    def test_transported_error_mid_fanout_tears_fleet_down(
        self, hotel_database, monkeypatch
    ):
        """A non-crash RPC failure mid-fan-out must not leave the framed
        streams desynchronised: unread responses may sit in healthy workers'
        sockets, so the whole fleet is killed and re-forked on next use."""
        processor = SubjectiveQueryProcessor(hotel_database)
        store = RpcShardStore(hotel_database, num_workers=2)
        try:
            attribute = next(iter(hotel_database.schema.subjective_attributes)).name
            ids = hotel_database.entity_ids()
            first = store.pair_degrees(processor.membership, ids, attribute, "clean")
            monkeypatch.setattr(
                store.workers[0],
                "read_score_vector",
                lambda: (_ for _ in ()).throw(RpcError("transported worker error")),
            )
            with pytest.raises(RpcError):
                store.pair_degrees(processor.membership, ids, attribute, "spotless")
            assert store.workers == []  # fleet torn down, no stale frames survive
            again = store.pair_degrees(processor.membership, ids, attribute, "clean")
            assert again == first
        finally:
            store.close()

    def test_dead_worker_is_replaced_between_queries(self, hotel_database):
        """A worker that died between queries is replaced, not spoken to."""
        processor = SubjectiveQueryProcessor(hotel_database)
        store = RpcShardStore(hotel_database, num_workers=2)
        try:
            attribute = next(iter(hotel_database.schema.subjective_attributes)).name
            ids = hotel_database.entity_ids()
            first = store.pair_degrees(processor.membership, ids, attribute, "clean")
            store.workers[1].process.kill()
            store.workers[1].process.join(timeout=5)
            again = store.pair_degrees(processor.membership, ids, attribute, "clean")
            assert again == first
            assert store.respawns == 2
        finally:
            store.close()


class TestInvalidation:
    def test_version_bump_respawns_fleet(self):
        from test_serving_sharded import build_mutable_database

        database = build_mutable_database(num_entities=6)
        with CoordinatorQueryEngine(database=database, num_workers=2) as engine:
            store = engine.sharded_store
            sql = 'select * from Entities where "clean room" limit 6'
            engine.execute(sql)
            assert store.respawns == 1
            first_pids = [client.process.pid for client in store.workers]

            summary = MarkerSummary("room_cleanliness", list(database.marker_summary(
                database.entity_ids()[0], "room_cleanliness").markers))
            summary.add_phrase("clean", sentiment=0.9)
            database.store_summary(database.entity_ids()[0], summary)

            result = engine.execute(sql)
            assert store.respawns == 2
            assert [c.process.pid for c in store.workers] != first_pids
            assert store.data_version == database.data_version
            fresh = SubjectiveQueryEngine(database=database).execute(sql)
            assert_identical_results(fresh, result)

    def test_mid_batch_ingest_drops_fleet_and_serves_fresh(self):
        """A ``data_version`` bump racing an in-flight batch leaves no stale degree."""
        from test_serving_sharded import (
            MARKERS,
            _IngestingBatch,
            assert_envelope_tracks_ingest,
            build_mutable_database,
        )

        database = build_mutable_database()
        with CoordinatorQueryEngine(database=database, num_workers=3) as engine:
            store = engine.sharded_store
            sql = 'select * from Entities where "clean room" limit 6'
            stale = engine.execute(sql)
            version_before = database.data_version
            assert store.data_version == version_before

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

            assert_envelope_tracks_ingest(database, engine)

    def test_invalidate_rpc_drops_worker_caches_in_place(self, hotel_database):
        """The ``invalidate`` op recycles caches without re-forking the fleet."""
        with CoordinatorQueryEngine(database=hotel_database, num_workers=2) as engine:
            store = engine.sharded_store
            engine.execute(HOTEL_QUERIES[0])
            pids = [client.process.pid for client in store.workers]
            cached_before = sum(
                stats["cache_entries"] for stats in store.worker_stats()
            )
            assert cached_before > 0
            dropped = store.invalidate_worker_caches()
            assert dropped == cached_before
            assert [c.process.pid for c in store.workers] == pids  # no respawn
            assert all(
                stats["cache_entries"] == 0 for stats in store.worker_stats()
            )


class TestStatsAndLifecycle:
    def test_stats_snapshot_includes_workers(self, hotel_database):
        with CoordinatorQueryEngine(database=hotel_database, num_workers=2) as engine:
            engine.execute(HOTEL_QUERIES[0])
            snapshot = engine.stats_snapshot()
            assert snapshot["num_workers"] == 2
            assert len(snapshot["workers"]) == 2
            for worker in snapshot["workers"]:
                assert worker["data_version"] == hotel_database.data_version
            store_stats = engine.sharded_store.stats_snapshot()
            assert store_stats["backend"] == "rpc"
            assert store_stats["live_workers"] == 2
            assert store_stats["fanouts"] >= 1

    def test_close_is_idempotent_and_reaps_workers(self, hotel_database):
        engine = CoordinatorQueryEngine(database=hotel_database, num_workers=2)
        engine.execute(HOTEL_QUERIES[0])
        processes = [client.process for client in engine.sharded_store.workers]
        engine.close()
        engine.close()
        assert all(not process.is_alive() for process in processes)

    def test_invalid_worker_and_slice_counts(self, hotel_database):
        with pytest.raises(ValueError):
            CoordinatorQueryEngine(database=hotel_database, num_workers=0)
        with pytest.raises(ValueError):
            RpcShardStore(hotel_database, num_workers=4, num_slices=2)
