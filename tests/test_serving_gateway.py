"""Serving gateway: differential equivalence, coalescing, overload, stats.

The gateway's contract extends the stack-wide one across the client
boundary: every transported response is **bit-identical** to executing the
same query on the engine directly — coalescing only shares a response all
waiters would have computed, and micro-batching is the engine's own
``run_batch``.  On top of that the suite pins the behaviours the front
door introduces: identical in-flight requests collapse into one execution
(and *only* identical ones — normalization-equal SQL shares, different
``top_k`` does not), concurrent arrivals fold into one ``run_batch``,
admission control rejects over-limit requests with a typed
:class:`GatewayOverloadedError` *before* any work while never dropping an
accepted request, and the ``stats`` opcode keeps answering while the
engine thread is saturated.

Engine blocking: the gateway executes all engine work on its single
``engine_executor`` thread, so submitting one ``Event.wait`` to that
executor deterministically stalls execution — arrivals accumulate (or get
rejected) without any sleep-based raciness, then release and assert.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.core import SubjectiveQueryProcessor
from repro.serving import (
    AdmissionController,
    AsyncGatewayClient,
    ClusterQueryEngine,
    GatewayClient,
    GatewayOverloadedError,
    ServingGateway,
    SubjectiveQueryEngine,
    coalescing_key,
    start_gateway,
)
from repro.serving.gateway import GatewayReply, serialize_result
from repro.serving.protocol import (
    RpcError,
    encode_gateway_error,
    encode_gateway_overload,
    encode_gateway_query,
    encode_gateway_response,
    encode_gateway_stats_request,
    read_gateway_response,
)

HOTEL_QUERIES = [
    'select * from Entities where "has really clean rooms" limit 5',
    "select * from Entities where city = 'london' and \"friendly staff\" limit 5",
    'select * from Entities where "quiet comfortable rooms" and "great breakfast" limit 8',
    'select * from Entities where not "noisy room" or "spotless room" limit 6',
]

#: Tight timeouts so a hung gateway fails the test, not the CI guard.
FAST = {"connect_timeout": 10.0, "io_timeout": 30.0}


def run(coroutine):
    """Drive one async test body to completion on a fresh event loop."""
    return asyncio.run(asyncio.wait_for(coroutine, timeout=60))


def assert_reply_matches(reply: GatewayReply, expected) -> None:
    """Bit-identical equality of a transported reply and a direct result."""
    assert reply.sql == expected.sql
    assert reply.entity_ids == [str(entity.entity_id) for entity in expected.entities]
    assert reply.scores == [entity.score for entity in expected.entities]
    assert reply.predicate_degrees == [
        dict(entity.predicate_degrees) for entity in expected.entities
    ]


class BlockedEngine:
    """Stall the gateway's engine thread until released (context manager)."""

    def __init__(self, gateway: ServingGateway) -> None:
        self._gate = threading.Event()
        gateway.engine_executor.submit(self._gate.wait)

    def release(self) -> None:
        self._gate.set()

    def __enter__(self) -> "BlockedEngine":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.release()


# ---------------------------------------------------------------------------
# Frame codec round trips
# ---------------------------------------------------------------------------


class TestGatewayCodec:
    def test_response_roundtrip(self):
        request_id, body = read_gateway_response(encode_gateway_response(7, '{"a": 1}'))
        assert (request_id, body) == (7, '{"a": 1}')

    def test_error_roundtrip(self):
        with pytest.raises(RpcError, match="boom") as excinfo:
            read_gateway_response(encode_gateway_error(9, "boom"))
        assert not isinstance(excinfo.value, GatewayOverloadedError)
        assert excinfo.value.request_id == 9

    def test_overload_is_typed(self):
        with pytest.raises(GatewayOverloadedError, match="saturated") as excinfo:
            read_gateway_response(encode_gateway_overload(3, "queue saturated"))
        assert excinfo.value.request_id == 3

    def test_query_frames_distinguish_topk(self):
        assert encode_gateway_query(1, "select 1", None) != encode_gateway_query(
            1, "select 1", 5
        )
        assert encode_gateway_stats_request(1)[0] != encode_gateway_query(1, "x")[0]


# ---------------------------------------------------------------------------
# The coalescing key
# ---------------------------------------------------------------------------


class TestCoalescingKey:
    def test_whitespace_and_keyword_case_collapse(self):
        a = coalescing_key('select * from Entities where "clean rooms" limit 5')
        b = coalescing_key('SELECT *  FROM Entities\n WHERE "clean rooms"   LIMIT 5')
        assert a == b

    def test_quoted_predicates_stay_exact(self):
        a = coalescing_key('select * from Entities where "clean rooms" limit 5')
        b = coalescing_key('select * from Entities where "clean  rooms" limit 5')
        assert a != b

    def test_topk_is_part_of_the_key(self):
        sql = 'select * from Entities where "clean rooms"'
        assert coalescing_key(sql, 5) != coalescing_key(sql, 6)
        assert coalescing_key(sql, None) != coalescing_key(sql, 5)


# ---------------------------------------------------------------------------
# The admission controller (pure bookkeeping)
# ---------------------------------------------------------------------------


class TestAdmissionController:
    def test_global_bound(self):
        control = AdmissionController(max_queue_depth=2, max_inflight_per_connection=5)
        assert control.try_admit("a") is None
        assert control.try_admit("b") is None
        assert control.try_admit("c") == "gateway"
        control.release("a")
        assert control.try_admit("c") is None

    def test_per_connection_bound(self):
        control = AdmissionController(max_queue_depth=10, max_inflight_per_connection=2)
        assert control.try_admit("a") is None
        assert control.try_admit("a") is None
        assert control.try_admit("a") == "connection"
        assert control.try_admit("b") is None  # other connections unaffected

    def test_global_bound_checked_first(self):
        control = AdmissionController(max_queue_depth=1, max_inflight_per_connection=1)
        assert control.try_admit("a") is None
        assert control.try_admit("a") == "gateway"

    def test_over_release_raises(self):
        control = AdmissionController(max_queue_depth=2, max_inflight_per_connection=2)
        control.try_admit("a")
        control.release("a")
        with pytest.raises(ValueError, match="release without admission"):
            control.release("a")

    def test_rejection_changes_no_state(self):
        control = AdmissionController(max_queue_depth=1, max_inflight_per_connection=1)
        control.try_admit("a")
        control.try_admit("b")
        assert control.queue_depth == 1
        assert control.inflight_of("b") == 0

    def test_bounds_must_be_positive(self):
        with pytest.raises(ValueError):
            AdmissionController(max_queue_depth=0, max_inflight_per_connection=1)
        with pytest.raises(ValueError):
            AdmissionController(max_queue_depth=1, max_inflight_per_connection=0)


# ---------------------------------------------------------------------------
# Differential equivalence over real TCP
# ---------------------------------------------------------------------------


class TestDifferential:
    def test_gateway_matches_direct_engine(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)
        expected = {sql: engine.execute(sql, top_k=5) for sql in HOTEL_QUERIES}
        with start_gateway(engine) as handle, GatewayClient(*handle.address) as client:
            for sql in HOTEL_QUERIES:
                assert_reply_matches(client.query(sql, top_k=5), expected[sql])
                # Warm (fully cached) responses must agree too.
                assert_reply_matches(client.query(sql, top_k=5), expected[sql])

    def test_gateway_matches_direct_cluster_engine(self, hotel_database):
        baseline = SubjectiveQueryEngine(database=hotel_database)
        with ClusterQueryEngine(database=hotel_database, num_nodes=2, **FAST) as engine:
            with start_gateway(engine) as handle, GatewayClient(*handle.address) as client:
                for sql in HOTEL_QUERIES:
                    assert_reply_matches(
                        client.query(sql, top_k=5), baseline.execute(sql, top_k=5)
                    )

    def test_naive_configuration_is_still_exact(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)
        with start_gateway(
            engine, coalesce=False, batch_window=0.0, max_batch_size=1
        ) as handle, GatewayClient(*handle.address) as client:
            for sql in HOTEL_QUERIES:
                assert_reply_matches(client.query(sql, top_k=5), engine.execute(sql, top_k=5))

    def test_default_topk_matches(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)
        sql = HOTEL_QUERIES[0]
        with start_gateway(engine) as handle, GatewayClient(*handle.address) as client:
            assert_reply_matches(client.query(sql), engine.execute(sql))

    def test_serialize_result_round_trips_floats_exactly(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)
        result = engine.execute(HOTEL_QUERIES[2], top_k=8)
        decoded = json.loads(json.dumps(serialize_result(result)))
        assert decoded["scores"] == [entity.score for entity in result.entities]


# ---------------------------------------------------------------------------
# Coalescing and micro-batching (deterministic via a blocked engine thread)
# ---------------------------------------------------------------------------


class TestCoalescing:
    def test_identical_inflight_requests_share_one_execution(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)
        sql = HOTEL_QUERIES[0]
        expected = engine.execute(sql, top_k=5)

        async def body():
            gateway = ServingGateway(engine, batch_window=0.005)
            host, port = await gateway.start()
            try:
                with BlockedEngine(gateway) as blocked:
                    clients = [await AsyncGatewayClient.connect(host, port) for _ in range(4)]
                    tasks = [
                        asyncio.ensure_future(client.query(sql, top_k=5))
                        for client in clients
                        for _ in range(3)
                    ]
                    while gateway.counters.requests < 12:
                        await asyncio.sleep(0.005)
                    blocked.release()
                    replies = await asyncio.gather(*tasks)
                for client in clients:
                    await client.close()
            finally:
                await gateway.stop()
            return replies, gateway.counters

        replies, counters = run(body())
        for reply in replies:
            assert_reply_matches(reply, expected)
        assert counters.coalesced_hits == 11  # one leader, eleven waiters
        assert counters.shared_requests == 11
        assert counters.batched_queries == 1  # the engine saw exactly one query

    def test_normalization_equal_sql_coalesces_but_distinct_topk_does_not(
        self, hotel_database
    ):
        engine = SubjectiveQueryEngine(database=hotel_database)
        spaced = 'select   *  from Entities where "has really clean rooms"   limit 5'

        async def body():
            gateway = ServingGateway(engine, batch_window=0.005)
            host, port = await gateway.start()
            try:
                with BlockedEngine(gateway) as blocked:
                    client = await AsyncGatewayClient.connect(host, port)
                    tasks = [
                        asyncio.ensure_future(client.query(HOTEL_QUERIES[0], top_k=5)),
                        asyncio.ensure_future(client.query(spaced, top_k=5)),
                        asyncio.ensure_future(client.query(HOTEL_QUERIES[0], top_k=4)),
                    ]
                    while gateway.counters.requests < 3:
                        await asyncio.sleep(0.005)
                    blocked.release()
                    await asyncio.gather(*tasks)
                await client.close()
            finally:
                await gateway.stop()
            return gateway.counters

        counters = run(body())
        assert counters.coalesced_hits == 1  # only the whitespace variant coalesced
        assert counters.batched_queries == 2  # distinct top_k executed separately

    def test_coalescing_disabled_executes_every_request(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)
        sql = HOTEL_QUERIES[0]

        async def body():
            gateway = ServingGateway(engine, coalesce=False, batch_window=0.005)
            host, port = await gateway.start()
            try:
                with BlockedEngine(gateway) as blocked:
                    client = await AsyncGatewayClient.connect(host, port)
                    tasks = [
                        asyncio.ensure_future(client.query(sql, top_k=5)) for _ in range(4)
                    ]
                    while gateway.counters.requests < 4:
                        await asyncio.sleep(0.005)
                    blocked.release()
                    await asyncio.gather(*tasks)
                await client.close()
            finally:
                await gateway.stop()
            return gateway.counters

        counters = run(body())
        assert counters.coalesced_hits == 0
        assert counters.batched_queries == 4


def flush_once(engine, top_k=None):
    """Send every ``HOTEL_QUERIES`` query while the engine thread is stalled,
    so the gateway runs them as one flush; returns (replies, counters)."""

    async def body():
        gateway = ServingGateway(engine, batch_window=0.005)
        host, port = await gateway.start()
        try:
            with BlockedEngine(gateway) as blocked:
                client = await AsyncGatewayClient.connect(host, port)
                tasks = [
                    asyncio.ensure_future(client.query(sql, top_k=top_k)) for sql in HOTEL_QUERIES
                ]
                while gateway.counters.requests < len(HOTEL_QUERIES):
                    await asyncio.sleep(0.005)
                blocked.release()
                replies = await asyncio.gather(*tasks)
            await client.close()
        finally:
            await gateway.stop()
        return replies, gateway.counters

    return run(body())


class TestMicroBatching:
    def test_concurrent_distinct_queries_fold_into_one_run_batch(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)
        expected = {sql: engine.execute(sql, top_k=5) for sql in HOTEL_QUERIES}
        replies, counters = flush_once(engine, top_k=5)
        for sql, reply in zip(HOTEL_QUERIES, replies):
            assert_reply_matches(reply, expected[sql])
        assert counters.batches == 1
        assert counters.batched_queries == len(HOTEL_QUERIES)
        assert counters.shared_batch_queries == len(HOTEL_QUERIES)
        assert counters.max_batch_size == len(HOTEL_QUERIES)

    def test_a_fleet_flush_ranks_every_query_on_the_nodes(self, hotel_database):
        """One flush of distinct queries over a 2-node fleet is one pruned
        ``execute`` per query: bit-identical to the processor, one rank
        frame per node for each query, and no degree cached on the
        coordinator."""
        processor = SubjectiveQueryProcessor(hotel_database)
        expected = {sql: processor.execute(sql) for sql in HOTEL_QUERIES}
        with ClusterQueryEngine(database=hotel_database, num_nodes=2, **FAST) as engine:
            replies, counters = flush_once(engine)
            ranked = [node["rank_requests"] for node in engine.sharded_store.node_stats()]
            cached = len(engine.membership_cache)
        for sql, reply in zip(HOTEL_QUERIES, replies):
            assert_reply_matches(reply, expected[sql])
        assert counters.batches == 1
        assert counters.max_batch_size == len(HOTEL_QUERIES)
        assert ranked == [len(HOTEL_QUERIES)] * 2
        assert cached == 0

    def test_one_bad_query_does_not_poison_its_batchmates(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)
        good = HOTEL_QUERIES[0]
        bad = "select * from Entities where nonsense_column = 'x' limit 5"
        expected = engine.execute(good, top_k=5)

        async def body():
            gateway = ServingGateway(engine, batch_window=0.005)
            host, port = await gateway.start()
            try:
                with BlockedEngine(gateway) as blocked:
                    client = await AsyncGatewayClient.connect(host, port)
                    good_task = asyncio.ensure_future(client.query(good, top_k=5))
                    bad_task = asyncio.ensure_future(client.query(bad, top_k=5))
                    while gateway.counters.requests < 2:
                        await asyncio.sleep(0.005)
                    blocked.release()
                    reply = await good_task
                    with pytest.raises(RpcError, match="nonsense_column"):
                        await bad_task
                    # The connection survives a transported failure.
                    follow_up = await client.query(good, top_k=5)
                await client.close()
            finally:
                await gateway.stop()
            return reply, follow_up

        reply, follow_up = run(body())
        assert_reply_matches(reply, expected)
        assert_reply_matches(follow_up, expected)


# ---------------------------------------------------------------------------
# Admission control and overload behaviour over the wire
# ---------------------------------------------------------------------------


class TestOverload:
    def test_saturated_queue_rejects_typed_and_stats_still_answers(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)
        sql = HOTEL_QUERIES[0]
        expected = engine.execute(sql, top_k=5)

        async def body():
            gateway = ServingGateway(
                engine, coalesce=False, batch_window=0.005, max_queue_depth=2
            )
            host, port = await gateway.start()
            try:
                with BlockedEngine(gateway) as blocked:
                    client = await AsyncGatewayClient.connect(host, port)
                    accepted = [
                        asyncio.ensure_future(client.query(sql, top_k=5)) for _ in range(2)
                    ]
                    while gateway.admission.queue_depth < 2:
                        await asyncio.sleep(0.005)
                    rejected = asyncio.ensure_future(client.query(sql, top_k=5))
                    with pytest.raises(GatewayOverloadedError, match="queue depth"):
                        await rejected
                    # The stats opcode answers while the engine is saturated.
                    stats = await asyncio.wait_for(client.stats(), timeout=5)
                    assert stats["gateway"]["rejected_gateway"] == 1
                    assert stats["gateway"]["queue_depth"] == 2
                    blocked.release()
                    replies = await asyncio.gather(*accepted)
                for reply in replies:
                    assert_reply_matches(reply, expected)
                # Capacity is restored: the same connection succeeds again.
                assert_reply_matches(await client.query(sql, top_k=5), expected)
                await client.close()
            finally:
                await gateway.stop()
            return gateway.counters

        counters = run(body())
        assert counters.rejected_gateway == 1
        assert counters.responses == 3  # every accepted request was answered

    def test_per_connection_cap_rejects_only_the_greedy_connection(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)
        sql = HOTEL_QUERIES[0]

        async def body():
            gateway = ServingGateway(
                engine,
                coalesce=False,
                batch_window=0.005,
                max_inflight_per_connection=2,
                max_queue_depth=100,
            )
            host, port = await gateway.start()
            try:
                with BlockedEngine(gateway) as blocked:
                    greedy = await AsyncGatewayClient.connect(host, port)
                    polite = await AsyncGatewayClient.connect(host, port)
                    accepted = [
                        asyncio.ensure_future(greedy.query(sql, top_k=5)) for _ in range(2)
                    ]
                    while gateway.admission.queue_depth < 2:
                        await asyncio.sleep(0.005)
                    with pytest.raises(GatewayOverloadedError, match="in-flight cap"):
                        await greedy.query(sql, top_k=5)
                    polite_task = asyncio.ensure_future(polite.query(sql, top_k=5))
                    while gateway.admission.queue_depth < 3:
                        await asyncio.sleep(0.005)
                    blocked.release()
                    await asyncio.gather(*accepted, polite_task)
                await greedy.close()
                await polite.close()
            finally:
                await gateway.stop()
            return gateway.counters

        counters = run(body())
        assert counters.rejected_connection == 1
        assert counters.rejected_gateway == 0
        assert counters.responses == 3


# ---------------------------------------------------------------------------
# The stats opcode payload
# ---------------------------------------------------------------------------


class TestStats:
    def test_stats_reports_engine_and_gateway_sections(self, hotel_database):
        with ClusterQueryEngine(database=hotel_database, num_nodes=2, **FAST) as engine:
            with start_gateway(engine) as handle, GatewayClient(*handle.address) as client:
                client.query(HOTEL_QUERIES[0], top_k=5)
                stats = client.stats()
        gateway = stats["gateway"]
        assert gateway["requests"] == 1
        assert gateway["responses"] == 1
        assert gateway["rejections"] == 0
        assert gateway["latency_p50_ms"] > 0
        assert gateway["latency_p99_ms"] >= gateway["latency_p50_ms"]
        engine_section = stats["engine"]
        assert engine_section["stats"]["queries"] >= 1
        # partition_stats() of the cluster store rides along.
        assert len(engine_section["partitions"]) == 2

    def test_in_process_snapshot_mirrors_counters(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)
        with start_gateway(engine) as handle, GatewayClient(*handle.address) as client:
            client.query(HOTEL_QUERIES[0], top_k=5)
            snapshot = handle.gateway.stats_snapshot()
        assert snapshot["requests"] == 1
        assert snapshot["queue_depth"] == 0

    def test_fresh_engine_snapshot_is_not_stale(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)
        with start_gateway(engine) as handle, GatewayClient(*handle.address) as client:
            client.query(HOTEL_QUERIES[0], top_k=5)
            stats = client.stats()
        section = stats["engine"]
        assert section["stale"] is False
        assert section["snapshot_age_seconds"] >= 0.0

    def test_saturated_engine_serves_cached_snapshot_marked_stale(self, hotel_database):
        # The satellite fix from ISSUE 10: while the engine thread is
        # busy, the stats opcode serves the cached engine snapshot — and
        # must say so, with the snapshot's age, instead of passing the
        # cache off as live data.
        engine = SubjectiveQueryEngine(database=hotel_database)

        async def body():
            gateway = ServingGateway(engine, batch_window=0.005)
            host, port = await gateway.start()
            try:
                client = await AsyncGatewayClient.connect(host, port)
                fresh = await client.stats()  # caches a snapshot while idle
                assert fresh["engine"]["stale"] is False
                with BlockedEngine(gateway) as blocked:
                    task = asyncio.ensure_future(
                        client.query(HOTEL_QUERIES[0], top_k=5)
                    )
                    while gateway.counters.requests < 1:
                        await asyncio.sleep(0.005)
                    stale = await asyncio.wait_for(client.stats(), timeout=5)
                    assert stale["engine"]["stale"] is True
                    assert stale["engine"]["snapshot_age_seconds"] >= 0.0
                    blocked.release()
                    await task
                # Engine idle again: the next payload refreshes and clears
                # the marker.
                recovered = await client.stats()
                assert recovered["engine"]["stale"] is False
                await client.close()
            finally:
                await gateway.stop()

        run(body())


# ---------------------------------------------------------------------------
# Transport edges
# ---------------------------------------------------------------------------


class TestTransportEdges:
    def test_unknown_opcode_is_a_transported_error(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)

        async def body():
            gateway = ServingGateway(engine)
            host, port = await gateway.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                from repro.serving.protocol import _U8, _U32, frame_bytes

                writer.write(frame_bytes(_U8.pack(99) + _U32.pack(1), 1 << 20))
                await writer.drain()
                from repro.serving.gateway import read_frame_async

                payload = await read_frame_async(reader, 1 << 20)
                with pytest.raises(RpcError, match="unknown opcode"):
                    read_gateway_response(payload)
                writer.close()
                await writer.wait_closed()
            finally:
                await gateway.stop()

        run(body())

    def test_stop_is_idempotent_and_fails_outstanding_requests(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)

        async def body():
            gateway = ServingGateway(engine, batch_window=0.005)
            host, port = await gateway.start()
            with BlockedEngine(gateway):
                client = await AsyncGatewayClient.connect(host, port)
                task = asyncio.ensure_future(client.query(HOTEL_QUERIES[0], top_k=5))
                while gateway.counters.requests < 1:
                    await asyncio.sleep(0.005)
                await gateway.stop()
                await gateway.stop()  # idempotent
                with pytest.raises(RpcError):
                    await asyncio.wait_for(task, timeout=5)
                await client.close()

        run(body())
