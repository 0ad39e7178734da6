"""Distributed tracing: spans, wire propagation, OP_TRACES, forensics tools.

Pins the tracing half of the observability layer (ISSUE 10):

* :func:`span` is free when disabled and parents automatically when
  enabled; :func:`activate` carries a context across thread hops;
  :func:`record_span` is the wire-side primitive that records regardless
  of the local flag (the coordinator's flag travels with the traffic).
* The optional trailing trace field encodes to **zero bytes** when
  absent, so a v4 frame and an untraced v5 frame are the same bytes.
* A query through the cluster leaves node spans in the node processes,
  fetchable over ``OP_TRACES`` and sharing the coordinator's trace id;
  and the ISSUE's acceptance path — a
  gateway-to-cluster-node query — yields one trace holding the gateway
  root span, the coordinator stage spans, and the remote node spans.
* The slow-query log captures SQL, span tree, and pruning counters for
  queries over the threshold, and ``tools/trace_report.py`` renders the
  exported spans as a tree with self-times.
* ``save`` and ``open`` of the storage tier each leave one span tree whose
  children account for the root's duration.
* The first answer after an ingest carries a ``columns_patch`` span
  (attribute, rows) where it used to pay a column build.
* The pruned ranking path emits a ``merge`` span under ``score``, like the
  full-vector path; its ``candidates`` and ``scanned`` attributes show
  where the scan stopped.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.obs import (
    SpanRecord,
    TraceContext,
    TraceStore,
    activate,
    configure_slow_query_log,
    current_context,
    current_wire_trace,
    disable_tracing,
    enable_tracing,
    global_slow_query_log,
    global_trace_store,
    record_span,
    span,
    tracing_enabled,
)
from repro.serving import (
    ClusterQueryEngine,
    GatewayClient,
    SubjectiveQueryEngine,
    start_gateway,
)
from repro.serving.protocol import Reader, pack_trace_field, read_trace_field

HOTEL_SQL = 'select * from Entities where "has really clean rooms" limit 5'


@pytest.fixture(autouse=True)
def _tracing_reset():
    """Leave the process-global tracing state clean after every test."""
    original_store = global_trace_store()
    yield
    disable_tracing()
    enable_tracing(original_store)
    disable_tracing()
    original_store.clear()
    configure_slow_query_log(None)
    global_slow_query_log().clear()


def _fresh_tracing() -> TraceStore:
    """Enable tracing into a fresh store and return it."""
    store = TraceStore()
    enable_tracing(store)
    return store


class TestTraceContext:
    def test_new_root_ids_are_nonzero_and_distinct(self):
        a, b = TraceContext.new_root(), TraceContext.new_root()
        assert a.trace_id and a.span_id and a.parent_id == 0
        assert (a.trace_id, a.span_id) != (b.trace_id, b.span_id)

    def test_child_shares_trace_and_parents_on_span(self):
        root = TraceContext.new_root()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id

    def test_wire_pair(self):
        context = TraceContext(trace_id=7, span_id=9, parent_id=3)
        assert context.wire_pair() == (7, 9)


class TestSpan:
    def test_disabled_span_records_nothing(self):
        store = global_trace_store()
        before = len(store)
        assert not tracing_enabled()
        with span("query", sql="select 1"):
            assert current_context() is None
            assert current_wire_trace() is None
        assert len(store) == before

    def test_enabled_spans_nest_and_parent(self):
        store = _fresh_tracing()
        with span("query") as outer:
            with span("score", slice_id=3):
                pass
        records = {record.name: record for record in store.spans()}
        assert set(records) == {"query", "score"}
        assert records["score"].trace_id == records["query"].trace_id
        assert records["score"].parent_id == records["query"].span_id
        assert records["query"].parent_id == 0
        assert records["score"].attrs == {"slice_id": 3}
        assert outer.context.span_id == records["query"].span_id
        assert records["query"].duration >= records["score"].duration >= 0.0

    def test_handle_set_attaches_late_attributes(self):
        store = _fresh_tracing()
        with span("score") as handle:
            handle.set("scored", 12)
        assert store.spans()[0].attrs == {"scored": 12}

    def test_activate_carries_a_context_across_a_hop(self):
        store = _fresh_tracing()
        context = TraceContext.new_root()
        with activate(context):
            assert current_context() is context
            assert current_wire_trace() == context.wire_pair()
            with span("stage"):
                pass
        assert current_context() is None
        record = store.spans()[0]
        assert record.trace_id == context.trace_id
        assert record.parent_id == context.span_id

    def test_record_span_is_unconditional_and_mints_its_own_id(self):
        # Wire-side recording: the remote process's flag does not gate it.
        assert not tracing_enabled()
        record = record_span("node_score", trace_id=11, parent_id=5, duration=0.25, node=1)
        assert record in global_trace_store().spans(trace_id=11)
        assert record.parent_id == 5
        assert record.span_id not in (0, 5, 11)
        assert record.attrs == {"node": 1}


class TestTraceStore:
    def _record(self, store, trace_id, name="s"):
        store.record(
            SpanRecord(
                name=name, trace_id=trace_id, span_id=trace_id * 10,
                parent_id=0, start=0.0, duration=0.1,
            )
        )

    def test_ring_drops_oldest(self):
        store = TraceStore(capacity=2)
        for trace_id in (1, 2, 3):
            self._record(store, trace_id)
        assert [record.trace_id for record in store.spans()] == [2, 3]
        assert store.trace_ids() == [2, 3]

    def test_filter_and_limit(self):
        store = TraceStore()
        for trace_id in (1, 2, 1, 1):
            self._record(store, trace_id)
        assert len(store.spans(trace_id=1)) == 3
        assert len(store.spans(trace_id=1, limit=2)) == 2
        assert store.spans(trace_id=9) == []

    def test_invalid_capacity_raises(self):
        with pytest.raises(ValueError, match="capacity"):
            TraceStore(capacity=0)

    def test_json_exports_round_trip(self):
        import json

        store = TraceStore()
        store.record(
            SpanRecord(
                name="query", trace_id=3, span_id=4, parent_id=0,
                start=1.5, duration=0.25, attrs={"sql": "select 1"},
            )
        )
        rebuilt = [SpanRecord.from_dict(row) for row in json.loads(store.to_json())]
        assert rebuilt == store.spans()
        lines = store.to_json_lines().splitlines()
        assert [SpanRecord.from_dict(json.loads(line)) for line in lines] == store.spans()


class TestWireCodec:
    def test_absent_trace_field_is_zero_bytes(self):
        # An untraced v5 frame is byte-identical to a v4 frame.
        assert pack_trace_field(None) == b""
        assert read_trace_field(Reader(b"")) is None

    def test_trace_field_round_trip(self):
        payload = pack_trace_field((123456789, 987654321))
        assert read_trace_field(Reader(payload)) == (123456789, 987654321)

    def test_explicit_absent_marker(self):
        assert read_trace_field(Reader(b"\x00")) is None


class TestClusterNodeTraces:
    def test_node_spans_share_the_coordinator_trace_id(self, hotel_database):
        store = _fresh_tracing()
        with ClusterQueryEngine(database=hotel_database, num_nodes=2) as engine:
            cluster_store = engine.sharded_store
            engine.execute(HOTEL_SQL)
            local = store.spans()
            trace_id = next(r.trace_id for r in local if r.name == "query")
            remote = cluster_store.node_traces(trace_id=trace_id)
        node_names = {row["name"] for row in remote}
        assert node_names & {"node_score", "node_rank"}
        assert all(row["trace_id"] == trace_id for row in remote)
        local_ids = {r.span_id for r in local}
        assert all(row["parent_id"] in local_ids for row in remote)


    def test_a_ranked_query_records_one_node_rank_span_per_node(self, hotel_database):
        """The pruned fleet query: each node's ``node_rank`` span carries its
        work and parents onto the coordinator's ``transport`` span, and the
        ``merge`` span counts the node lists it merged."""
        store = _fresh_tracing()
        with ClusterQueryEngine(
            database=hotel_database, num_nodes=2, max_inflight_queries=1
        ) as engine:
            engine.execute(HOTEL_SQL)
            local = store.spans()
            trace_id = next(r.trace_id for r in local if r.name == "query")
            remote = engine.sharded_store.node_traces(trace_id=trace_id)
        ranks = [row for row in remote if row["name"] == "node_rank"]
        assert sorted(row["attrs"]["node"] for row in ranks) == [0, 1]
        candidates = len(hotel_database.entity_ids())
        assert sum(row["attrs"]["candidates"] for row in ranks) == candidates
        for row in ranks:
            attrs = row["attrs"]
            assert attrs["slices"] >= 1
            assert 0 < attrs["scanned"] <= attrs["candidates"]
            assert 0 <= attrs["scored"]
        transport = {r.span_id for r in local if r.name == "transport" and r.attrs.get("rank")}
        assert len(transport) == 1
        assert all(row["parent_id"] in transport for row in ranks)
        (merge,) = [r for r in local if r.name == "merge" and r.trace_id == trace_id]
        assert merge.attrs["nodes"] == 2
        assert merge.attrs["candidates"] == candidates

    def test_replica_spans_share_the_coordinator_trace_id(self, hotel_database):
        """Whichever replica answers, its spans join the one query trace."""
        store = _fresh_tracing()
        with ClusterQueryEngine(
            database=hotel_database, num_nodes=3, replication=2
        ) as engine:
            engine.execute(HOTEL_SQL)
            local = store.spans()
            trace_id = next(r.trace_id for r in local if r.name == "query")
            remote = engine.sharded_store.node_traces(trace_id=trace_id)
        assert {row["name"] for row in remote} & {"node_score", "node_rank"}
        assert all(row["trace_id"] == trace_id for row in remote)
        local_ids = {r.span_id for r in local}
        assert all(row["parent_id"] in local_ids for row in remote)
        assert {row["attrs"]["node"] for row in remote} <= {0, 1, 2}

    def test_forked_nodes_do_not_inherit_coordinator_spans(self, hotel_database):
        # Tracing is enabled *before* the engine exists, so any node
        # process forked after the first spans were recorded starts with
        # a copy of the coordinator's buffer — node_traces() must not
        # re-serve those parent spans as duplicates.
        store = _fresh_tracing()
        with ClusterQueryEngine(database=hotel_database, num_nodes=2) as engine:
            engine.execute(HOTEL_SQL)
            trace_id = next(r.trace_id for r in store.spans() if r.name == "query")
            remote = engine.sharded_store.node_traces(trace_id=trace_id)
        local_ids = {r.span_id for r in store.spans(trace_id=trace_id)}
        remote_ids = [row["span_id"] for row in remote]
        assert len(remote_ids) == len(set(remote_ids))
        assert not local_ids & set(remote_ids)
        assert all(row["name"].startswith("node_") for row in remote)


class TestGatewayTraces:
    def test_gateway_to_node_query_yields_one_stitched_trace(self, hotel_database):
        # The ISSUE's acceptance path: client -> gateway -> cluster node,
        # one trace id across the gateway root span, the coordinator's
        # stage spans, and the remote node's spans.
        with ClusterQueryEngine(database=hotel_database, num_nodes=2) as engine:
            with start_gateway(engine) as handle, GatewayClient(*handle.address) as client:
                _fresh_tracing()
                client.query(HOTEL_SQL)
                records = client.traces()
        by_trace: dict[int, set[str]] = {}
        for row in records:
            by_trace.setdefault(row["trace_id"], set()).add(row["name"])
        stitched = [
            trace_id
            for trace_id, names in by_trace.items()
            if "gateway_request" in names
            and names & {"query", "score"}
            and names & {"node_score", "node_rank"}
        ]
        assert stitched, f"no stitched gateway trace in {by_trace!r}"
        # Engine spans parent onto the gateway root span (same trace tree,
        # not merely the same id).
        trace_id = stitched[0]
        rows = [row for row in records if row["trace_id"] == trace_id]
        root = next(row for row in rows if row["name"] == "gateway_request")
        assert any(row["parent_id"] == root["span_id"] for row in rows)

    def test_client_trace_filter_matches_server_side(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)
        with start_gateway(engine) as handle, GatewayClient(*handle.address) as client:
            _fresh_tracing()
            client.query(HOTEL_SQL)
            client.query('select * from Entities where "friendly staff" limit 3')
            everything = client.traces()
            trace_ids = {row["trace_id"] for row in everything}
            assert len(trace_ids) >= 2
            one = sorted(trace_ids)[0]
            filtered = client.traces(trace_id=one)
            assert filtered and {row["trace_id"] for row in filtered} == {one}
            limited = client.traces(trace_id=one, limit=1)
            assert len(limited) == 1


class TestStorageSpans:
    """``database.save`` / ``SubjectiveDatabase.open`` as span trees (ROADMAP 6a)."""

    @staticmethod
    def _tree(store: TraceStore, root_name: str):
        (root,) = [record for record in store.spans() if record.name == root_name]
        children = [record for record in store.spans() if record.parent_id == root.span_id]
        assert {child.trace_id for child in children} == {root.trace_id}
        return root, children

    def test_save_and_open_each_leave_one_covered_tree(self, tmp_path):
        from repro.core.database import SubjectiveDatabase
        from repro.testing import build_synthetic_columnar_database

        database = build_synthetic_columnar_database(num_entities=400, seed=2)
        directory = str(tmp_path / "store")
        database.save(directory)  # tracing off: nothing recorded
        assert len(global_trace_store()) == 0

        store = _fresh_tracing()
        database.store_summary("e00001", database.marker_summary("e00002", "quality"))
        database.save(directory)  # one attribute rewritten, one reused
        root, children = self._tree(store, "storage_save")
        assert {child.name for child in children} == {
            "storage_columns",
            "storage_pack",
            "storage_write",
            "storage_catalog",
        }
        assert [c.attrs["file"] for c in children if c.name == "storage_write"] == [
            "00_quality.v2.snap"
        ]
        assert sum(child.duration for child in children) >= 0.9 * root.duration

        store.clear()
        SubjectiveDatabase.open(directory)
        root, children = self._tree(store, "storage_open")
        assert [child.name for child in children] == [
            "storage_map",
            "storage_relational_load",
            "storage_text_indexes",
        ]
        assert sum(child.duration for child in children) >= 0.9 * root.duration


class TestColumnsPatchSpan:
    def test_a_fresh_answer_shows_the_patch_inside_its_query_trace(self):
        from repro.testing import build_synthetic_columnar_database

        database = build_synthetic_columnar_database(num_entities=40, seed=2)
        sql = 'select * from Entities where "word003" and "word019" limit 5'
        with SubjectiveQueryEngine(database=database) as engine:
            engine.execute(sql)
            database.store_summary("e00001", database.marker_summary("e00002", "quality"))
            database.store_summary("e00003", database.marker_summary("e00002", "quality"))
            store = _fresh_tracing()
            engine.execute(sql)
        (patch,) = [record for record in store.spans() if record.name == "columns_patch"]
        assert patch.attrs == {"attribute": "quality", "rows": 2}
        (query,) = [record for record in store.spans() if record.name == "query"]
        assert patch.trace_id == query.trace_id
        snapshot = engine.processor.columnar_store.stats_snapshot()
        assert (snapshot["patches"], snapshot["rows_patched"], snapshot["builds"]) == (1, 2, 2)


class TestPrunedMergeSpan:
    def test_the_pruned_path_emits_merge_under_score(self):
        from repro.serving import ShardedSubjectiveQueryEngine
        from repro.testing import build_synthetic_columnar_database

        database = build_synthetic_columnar_database(num_entities=300, seed=11)
        sql = 'select * from Entities where "word003" and "word019" limit 5'
        with ShardedSubjectiveQueryEngine(database=database, num_shards=2) as engine:
            engine.execute(sql)  # builds columns and bounds outside the traced query
            engine.membership_cache.clear()
            store = _fresh_tracing()
            pruned_before = engine.entities_pruned
            result = engine.execute(sql)
            assert engine.entities_pruned > pruned_before  # the pruned path answered
        (merge,) = [record for record in store.spans() if record.name == "merge"]
        (score,) = [record for record in store.spans() if record.name == "score"]
        assert merge.parent_id == score.span_id
        # ``rows`` is what the scan offered to the top-k heap, not the candidates.
        assert len(result.entities) == 5 <= merge.attrs["rows"] < 300
        assert merge.attrs["num_shards"] == 2

    def test_the_merge_span_shows_an_or_query_stopping_early(self):
        """One trace tells how much of the candidate set an OR query fetched."""
        from repro.serving import ShardedSubjectiveQueryEngine
        from repro.testing import build_synthetic_columnar_database

        database = build_synthetic_columnar_database(num_entities=300, seed=11)
        sql = 'select * from Entities where "word005" or "word017" limit 6'
        with ShardedSubjectiveQueryEngine(database=database, num_shards=2) as engine:
            engine.execute(sql)
            engine.membership_cache.clear()
            store = _fresh_tracing()
            engine.execute(sql)
        (merge,) = [record for record in store.spans() if record.name == "merge"]
        assert merge.attrs["candidates"] == 300
        # ``scanned`` counts the rows whose degrees were fetched; the heap
        # was offered a subset of them, and the rest were never touched.
        assert 6 <= merge.attrs["rows"] <= merge.attrs["scanned"] < merge.attrs["candidates"]


class TestSlowQueryForensics:
    def test_engine_captures_slow_queries_with_spans(self, hotel_database):
        store = _fresh_tracing()
        configure_slow_query_log(0.0)  # every query is "slow"
        engine = SubjectiveQueryEngine(database=hotel_database)
        engine.execute(HOTEL_SQL)
        records = global_slow_query_log().records()
        assert records, "threshold 0 must capture every query"
        record = records[-1]
        assert record.sql == HOTEL_SQL
        assert record.seconds >= 0.0
        assert record.trace_id in store.trace_ids()
        assert {span_row["name"] for span_row in record.spans} >= {"query", "plan"}

    def test_disabled_log_costs_nothing_on_the_query_path(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)
        assert engine.slow_query_log.threshold_seconds is None
        engine.execute(HOTEL_SQL)
        assert engine.slow_query_log.records() == []


def _load_trace_report():
    path = Path(__file__).resolve().parent.parent / "tools" / "trace_report.py"
    spec = importlib.util.spec_from_file_location("trace_report", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("trace_report", module)
    spec.loader.exec_module(module)
    return module


class TestTraceReport:
    def test_renders_tree_with_self_times(self):
        trace_report = _load_trace_report()
        store = TraceStore()
        store.record(
            SpanRecord(
                name="query", trace_id=7, span_id=1, parent_id=0,
                start=0.0, duration=0.010, attrs={"sql": "select 1"},
            )
        )
        store.record(
            SpanRecord(
                name="score", trace_id=7, span_id=2, parent_id=1,
                start=0.002, duration=0.006,
            )
        )
        spans = trace_report.parse_spans(store.to_json())
        text = trace_report.report(spans)
        assert "trace 7" in text
        assert "- query  10.000 ms  (self 4.000 ms)" in text
        assert "  - score  6.000 ms  (self 6.000 ms)" in text.splitlines()[2]

    def test_parses_both_export_formats_identically(self):
        trace_report = _load_trace_report()
        store = TraceStore()
        store.record(
            SpanRecord(name="a", trace_id=1, span_id=1, parent_id=0, start=0.0, duration=0.1)
        )
        assert trace_report.parse_spans(store.to_json()) == trace_report.parse_spans(
            store.to_json_lines()
        )

    def test_orphan_spans_render_as_roots(self):
        trace_report = _load_trace_report()
        spans = [
            {
                "name": "node_score", "trace_id": 5, "span_id": 9,
                "parent_id": 1234, "start": 0.0, "duration": 0.004, "attrs": {},
            }
        ]
        text = trace_report.report(spans)
        assert "(orphan)" in text

    def test_trace_filter(self):
        trace_report = _load_trace_report()
        spans = [
            {"name": "a", "trace_id": 1, "span_id": 1, "parent_id": 0,
             "start": 0.0, "duration": 0.1, "attrs": {}},
            {"name": "b", "trace_id": 2, "span_id": 2, "parent_id": 0,
             "start": 0.0, "duration": 0.1, "attrs": {}},
        ]
        assert "trace 2" not in trace_report.report(spans, trace_filter=1)
        assert trace_report.report(spans, trace_filter=9) == "no spans for trace 9"
