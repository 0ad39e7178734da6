"""The shard service and its wire protocol, driven without a cluster.

:class:`repro.serving.service.ShardService` answers every scoring frame a
cluster node serves.  These tests pin the framing and codec, the frame
layouts (against bytes captured from the encoders of the commit before the
worker and node handlers were merged), and one frame script through a
service over hydrated slices, whose answers must be the in-process
:meth:`ColumnarSummaryStore.pair_degrees` bit for bit.
"""

from __future__ import annotations

import json
import socket
import struct
import threading

import numpy as np
import pytest

from repro.core import SubjectiveQueryProcessor
from repro.core.columnar import ColumnarSummaryStore, ColumnSnapshot
from repro.obs import global_trace_store
from repro.serving import FrameTooLargeError, RpcError, ShardService, partition_bounds
from repro.serving.protocol import (
    OP_SHUTDOWN,
    OP_STATS,
    STATUS_ERROR,
    STATUS_OK,
    TREE_PREDICATE,
    Reader,
    encode_error,
    encode_hello,
    encode_hello_ack,
    encode_invalidate_request,
    encode_rank_request,
    encode_score_bounded_response,
    encode_score_request,
    encode_traces_request,
    pack_str,
    read_rank_response,
    recv_frame,
    send_frame,
)
from repro.serving.service import HydratedSlices


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


#: Frames captured from the encoders of the commit before the worker and node
#: handlers were merged (protocol v4+v5); the frames protocol v6 kept must
#: still be these very bytes.
PARENT_FRAMES = {
    "score": "010000000300000004726f6f6d00000005636c65616e000000000000000400",
    "score_rows_traced": (
        "010000000300000004726f6f6d0000000b7472c3a87320636c65616e0000000200000009"
        "010000000200000001000000030100000000000000070000000000000009"
    ),
    "invalidate": "020000000000000005",
    "traces": "0b000000000000000700000002",
    "hello": "05000000050000000000000009",
    "hello_ack": "0000000005000000000000000900000002000000000000000201",
    "bounded_response": (
        "00000000033fe00000000000003fc00000000000003ff00000000000000100010000000200000001"
    ),
    "error": "0100000004626f6f6d",
}


def test_wire_bytes_equal_the_parent_encoders():
    frames = {
        "score": encode_score_request(3, "room", "clean", 0, 4, None),
        "score_rows_traced": encode_score_request(
            3, "room", "très clean", 2, 9, [1, 3], trace=(7, 9)
        ),
        "invalidate": encode_invalidate_request(5),
        "traces": encode_traces_request(7, 2),
        "hello": encode_hello(5, 9),
        "hello_ack": encode_hello_ack(5, 9, [0, 2], True),
        "bounded_response": encode_score_bounded_response(
            np.array([0.5, 0.125, 1.0]), np.array([True, False, True]), 2, 1
        ),
        "error": encode_error("boom"),
    }
    assert {name: frame.hex() for name, frame in frames.items()} == PARENT_FRAMES


NUM_SLICES = 2
PHRASE = "very clean room"


@pytest.fixture
def slices(hotel_database):
    """(membership, attribute, columns, [(slice_id, start, stop), ...])."""
    membership = SubjectiveQueryProcessor(hotel_database).membership
    attribute = next(iter(hotel_database.schema.subjective_attributes)).name
    columns = ColumnarSummaryStore(hotel_database).columns(attribute)
    bounds = partition_bounds(columns.num_entities, NUM_SLICES)
    return membership, attribute, columns, list(enumerate(zip(bounds, bounds[1:])))


def _service(hotel_database, slices, **kwargs) -> ShardService:
    """A service over the slices, each shipped through a packed snapshot."""
    membership, _attribute, columns, ranges = slices
    hydrated = HydratedSlices()
    for slice_id, (start, stop) in ranges:
        shipped = ColumnSnapshot.of_slice(
            columns, slice_id, start, stop, hotel_database.data_version
        )
        hydrated.install(ColumnSnapshot.unpack(shipped.pack()))
    return ShardService(0, membership, hydrated, **kwargs)


def _rank_frame(attribute, ranges, limit, phrase=PHRASE, chunk=128, trace=None):
    """A one-predicate ``rank`` frame over every row of ``ranges`` (position = row)."""
    rows = np.concatenate([np.arange(start, stop) for _, (start, stop) in ranges])
    return encode_rank_request(
        limit,
        "product",
        chunk,
        4,
        [(phrase, "and", True, ((attribute, phrase),))],
        [(TREE_PREDICATE, 0)],
        [(slice_id, start, stop) for slice_id, (start, stop) in ranges],
        rows,
        rows,
        [],
        trace=trace,
    )


def _expected_top(degrees, entity_ids, limit):
    """Positions of the processor's top-``limit`` by ``(-score, str(id), position)``."""
    order = sorted(range(len(degrees)), key=lambda row: (-degrees[row], str(entity_ids[row]), row))
    return order[:limit]


def _script(hotel_database, slices, trace):
    """The frame script: every opcode, both cache states, four malformed frames."""
    _membership, attribute, _columns, ranges = slices
    (first, (start0, stop0)), (second, (start1, stop1)) = ranges
    sparse = [0, 2]
    score_full = encode_score_request(first, attribute, PHRASE, start0, stop0, None, trace=trace)
    rank_all = _rank_frame(attribute, ranges, 3, chunk=2, trace=trace)
    return [
        ("score full slice", score_full),
        ("score sparse rows", encode_score_request(
            first, attribute, PHRASE, start0, stop0, sparse, trace=trace
        )),
        ("score repeated: cache hit", score_full),
        ("rank over both slices", rank_all),
        ("rank repeated: served from the node's memo", rank_all),
        ("rank over a slice an exact score cached", _rank_frame(
            attribute, ranges[:1], 2, trace=trace
        )),
        ("traces", encode_traces_request(trace[0] if trace else 0, 0)),
        ("invalidate at the current version",
         encode_invalidate_request(hotel_database.data_version)),
        ("score after invalidate: kernel runs again", score_full),
        ("unknown opcode", bytes([250])),
        ("truncated frame", score_full[: len(score_full) // 2]),
        ("trailing bytes after the last field", encode_score_request(
            first, attribute, PHRASE, start0, stop0, None, trace=(1, 2)
        ) + b"xx"),
        ("rank frame missing its last field", _rank_frame(attribute, ranges, 3)[:-4]),
        ("stats", bytes([OP_STATS])),
    ]


@pytest.mark.parametrize("trace", [None, (11, 13)], ids=["untraced", "traced"])
def test_frame_script_answers_are_the_in_process_kernel(hotel_database, slices, trace):
    membership, attribute, columns, ranges = slices
    service = _service(hotel_database, slices)
    script = _script(hotel_database, slices, trace)
    global_trace_store().clear()
    by_name: dict[str, bytes] = {}
    for name, frame in script:
        response, stop = service.handle_frame(frame)
        assert not stop, name
        by_name[name] = response

    # The answers are the in-process kernel's, bit for bit.
    base = ColumnarSummaryStore(hotel_database)
    (_, (start0, stop0)), (_, (start1, stop1)) = ranges
    expected = base.pair_degrees(membership, columns.entity_ids[start0:stop0], attribute, PHRASE)
    wire = np.asarray(expected, dtype=">f8").tobytes()
    assert by_name["score full slice"] == bytes([STATUS_OK]) + struct.pack("!I", len(expected)) + wire
    assert by_name["score repeated: cache hit"] == by_name["score full slice"]
    assert by_name["score after invalidate: kernel runs again"] == by_name["score full slice"]
    reader = Reader(by_name["score sparse rows"][1:])
    assert reader.read_f64_array(reader.read_u32()).tolist() == [expected[0], expected[2]]
    everything = base.pair_degrees(membership, columns.entity_ids, attribute, PHRASE)
    first_rank = read_rank_response(Reader(by_name["rank over both slices"][1:]))
    top = _expected_top(everything, columns.entity_ids, 3)
    assert first_rank.positions.tolist() == top
    assert first_rank.scores.tolist() == [everything[row] for row in top]
    assert first_rank.degrees[:, 0].tolist() == first_rank.scores.tolist()
    assert 0 < first_rank.scored < len(everything)  # the envelope spared some kernel work
    again = read_rank_response(Reader(by_name["rank repeated: served from the node's memo"][1:]))
    assert (again.positions.tolist(), again.scores.tolist()) == (top, first_rank.scores.tolist())
    assert again.scored == 0  # every degree it needed was memoised
    cached = read_rank_response(Reader(by_name["rank over a slice an exact score cached"][1:]))
    assert cached.positions.tolist() == _expected_top(expected, columns.entity_ids, 2)
    assert cached.scored == 0  # the score frame's full-slice vector answered

    # Malformed frames are transported errors, never served answers.
    for name in (
        "unknown opcode",
        "truncated frame",
        "trailing bytes after the last field",
        "rank frame missing its last field",
    ):
        assert by_name[name][0] == STATUS_ERROR, name
    assert "trailing bytes" in Reader(by_name["trailing bytes after the last field"][1:]).read_str()

    assert (service.score_requests, service.rank_requests, service.invalidations) == (4, 3, 1)
    stats = json.loads(Reader(by_name["stats"][1:]).read_str())
    assert stats["node"] == 0
    assert stats["owned_slices"] == [0, 1]
    assert stats["hydrated_slices"] == NUM_SLICES
    assert stats["score_requests"] == service.score_requests
    assert stats["kernel_calls"] == service.kernel_calls
    spans = json.loads(Reader(by_name["traces"][1:]).read_str())
    if trace is not None:
        assert [span["name"] for span in spans] == ["node_score"] * 3 + ["node_rank"] * 3
        rank_span = spans[3]["attrs"]
        assert (rank_span["slices"], rank_span["candidates"]) == (NUM_SLICES, len(everything))
        assert rank_span["scored"] == first_rank.scored
        assert rank_span["scanned"] == first_rank.scanned
        assert all(span["attrs"]["node"] == 0 for span in spans)
    else:
        assert spans == []


def test_empty_slice_scores_empty_vector(hotel_database, slices):
    membership, attribute, columns, _ranges = slices
    hydrated = HydratedSlices()
    hydrated.install(ColumnSnapshot.of_slice(columns, 0, 4, 4, hotel_database.data_version))
    service = ShardService(0, membership, hydrated)
    response, _ = service.handle_frame(encode_score_request(0, attribute, "clean", 4, 4, None))
    reader = Reader(response)
    assert reader.read_u8() == STATUS_OK
    assert reader.read_u32() == 0


def test_out_of_range_slice_is_transported_error(hotel_database, slices):
    _membership, attribute, columns, _ranges = slices
    service = _service(hotel_database, slices)
    response, stop = service.handle_frame(
        encode_score_request(0, attribute, "x", 0, 10_000, None)
    )
    assert not stop
    reader = Reader(response)
    assert reader.read_u8() == STATUS_ERROR
    assert "bounds mismatch" in reader.read_str()


def test_only_a_bare_shutdown_opcode_stops_the_service(hotel_database, slices):
    """A shutdown opcode followed by bytes is a mangled frame: refused, not obeyed."""
    service = _service(hotel_database, slices)
    response, stop = service.handle_frame(bytes([OP_SHUTDOWN, 0]))
    assert not stop
    reader = Reader(response)
    assert reader.read_u8() == STATUS_ERROR
    assert "trailing bytes" in reader.read_str()
    assert service.handle_frame(bytes([OP_SHUTDOWN])) == (bytes([STATUS_OK]), True)


def test_serve_loop_over_socketpair(hotel_database, slices):
    """The framed socket loop end-to-end, including shutdown."""
    _membership, attribute, _columns, ranges = slices
    service = _service(hotel_database, slices)
    _, (start, stop) = ranges[0]
    server, client = socket.socketpair()
    thread = threading.Thread(target=service.serve, args=(server,))
    thread.start()
    try:
        send_frame(client, bytes([OP_STATS]), service.max_frame_bytes)
        reader = Reader(recv_frame(client, service.max_frame_bytes))
        assert reader.read_u8() == STATUS_OK
        send_frame(
            client,
            encode_score_request(0, attribute, "clean", start, stop, None),
            service.max_frame_bytes,
        )
        reader = Reader(recv_frame(client, service.max_frame_bytes))
        assert reader.read_u8() == STATUS_OK
        assert reader.read_u32() == stop - start
        send_frame(client, bytes([OP_SHUTDOWN]), service.max_frame_bytes)
        assert Reader(recv_frame(client, service.max_frame_bytes)).read_u8() == STATUS_OK
    finally:
        thread.join(timeout=5)
        client.close()
        server.close()
    assert not thread.is_alive()


def test_serve_rejects_oversized_frame_and_closes(hotel_database, slices):
    """An oversized frame gets an error response, then the connection dies."""
    service = _service(hotel_database, slices, max_frame_bytes=64)
    server, client = socket.socketpair()
    thread = threading.Thread(target=service.serve, args=(server,))
    thread.start()
    try:
        client.sendall(struct.pack("!I", 1 << 20))  # announce 1 MiB
        reader = Reader(recv_frame(client, 1024))
        assert reader.read_u8() != STATUS_OK
        assert "limit" in reader.read_str()
        # The serve loop refuses to continue on the poisoned stream (the
        # node's accept loop closes the socket right after it returns).
        thread.join(timeout=5)
        assert not thread.is_alive()
        server.close()
        assert recv_frame(client, 1024) is None
    finally:
        thread.join(timeout=5)
        client.close()
        server.close()


def test_unhydrated_attribute_is_transported_error(hotel_database, slices):
    """A score for an attribute no snapshot carried names it in the error."""
    service = _service(hotel_database, slices)
    response, stop = service.handle_frame(
        encode_score_request(0, "no_such_attribute", "x", 0, 1, None)
    )
    assert not stop
    reader = Reader(response)
    assert reader.read_u8() == STATUS_ERROR
    message = reader.read_str()
    assert "no_such_attribute" in message and "not hydrated" in message


def test_membership_without_a_columnar_kernel_is_transported_error(hotel_database, slices):
    """Both scoring opcodes refuse a service whose membership has no kernel."""
    _membership, attribute, _columns, ranges = slices
    service = _service(hotel_database, slices)
    service.membership = None
    _, (start, stop) = ranges[0]
    for frame in (
        encode_score_request(0, attribute, PHRASE, start, stop, None),
        _rank_frame(attribute, ranges, 2),
    ):
        response, _ = service.handle_frame(frame)
        reader = Reader(response)
        assert reader.read_u8() == STATUS_ERROR
        assert "columnar kernel" in reader.read_str()
    assert service.kernel_calls == 0


def test_invalidate_to_a_new_version_reports_the_old_and_retires_slices(
    hotel_database, slices
):
    """The response carries the version *before* the call and the entries it
    dropped; a newer caller version retires every hydrated slice."""
    _membership, attribute, _columns, ranges = slices
    service = _service(hotel_database, slices)
    for slice_id, (start, stop) in ranges:
        service.handle_frame(encode_score_request(slice_id, attribute, PHRASE, start, stop, None))
    assert service.cache_entries == NUM_SLICES
    version = hotel_database.data_version
    response, _ = service.handle_frame(encode_invalidate_request(version + 1))
    reader = Reader(response)
    assert reader.read_u8() == STATUS_OK
    assert reader.read_u64() == version
    assert reader.read_u32() == NUM_SLICES
    assert service.cache_entries == 0
    assert service.data_version == version + 1
    stats = service.stats()
    assert (stats["hydrated_slices"], stats["stale_slices"]) == (0, NUM_SLICES)
    # A retired slice is never served, only kept as a delta base.
    _, (start, stop) = ranges[0]
    response, _ = service.handle_frame(
        encode_score_request(0, attribute, PHRASE, start, stop, None)
    )
    reader = Reader(response)
    assert reader.read_u8() == STATUS_ERROR
    assert "not hydrated" in reader.read_str()


def test_caches_are_bounded_per_slice(hotel_database, slices):
    """Pressure on one slice's cache never evicts another slice's vectors."""
    _membership, attribute, _columns, ranges = slices
    service = _service(hotel_database, slices, cache_size=1)
    (first, (start0, stop0)), (second, (start1, stop1)) = ranges
    cold = encode_score_request(second, attribute, PHRASE, start1, stop1, None)
    service.handle_frame(cold)
    for phrase in ("clean", "spotless", "dirty"):
        service.handle_frame(encode_score_request(first, attribute, phrase, start0, stop0, None))
    assert service.cache_entries == 2  # one per slice, at cache_size=1
    calls = service.kernel_calls
    service.handle_frame(cold)
    assert service.kernel_calls == calls  # the other slice's vector survived
    service.handle_frame(encode_score_request(first, attribute, "clean", start0, stop0, None))
    assert service.kernel_calls == calls + 1  # evicted by "dirty"


def test_row_subsets_are_cached_apart_from_the_full_slice(hotel_database, slices):
    _membership, attribute, _columns, ranges = slices
    service = _service(hotel_database, slices)
    _, (start, stop) = ranges[0]
    full = encode_score_request(0, attribute, PHRASE, start, stop, None)
    sparse = encode_score_request(0, attribute, PHRASE, start, stop, [1])
    answers = [service.handle_frame(frame)[0] for frame in (full, sparse, sparse, full)]
    assert service.kernel_calls == 2
    assert service.cache_entries == 2
    assert answers[1] == answers[2] and answers[0] == answers[3]
    reader = Reader(answers[1][1:])
    assert reader.read_u32() == 1


def test_a_pruned_rank_row_is_never_memoised_as_a_degree(hotel_database, slices):
    """A bound is not a degree: rows a rank frame dismissed stay unknown, and a
    later frame that needs them scores them exactly."""
    membership, attribute, columns, ranges = slices
    service = _service(hotel_database, slices)
    narrow = read_rank_response(
        Reader(service.handle_frame(_rank_frame(attribute, ranges, 1, chunk=1))[0][1:])
    )
    assert narrow.pruned > 0
    memo = [cache.peek(key) for cache in service._ranked.values() for key in cache.keys()]
    known = sum(int(state.known.sum()) for state in memo)
    assert known < columns.num_entities
    everything = ColumnarSummaryStore(hotel_database).pair_degrees(
        membership, columns.entity_ids, attribute, PHRASE
    )
    wide = read_rank_response(
        Reader(service.handle_frame(_rank_frame(attribute, ranges, columns.num_entities))[0][1:])
    )
    top = _expected_top(everything, columns.entity_ids, columns.num_entities)
    assert wide.positions.tolist() == top
    assert wide.scores.tolist() == [everything[row] for row in top]
    assert wide.scored == columns.num_entities - known  # exactly the rows left unknown


def test_a_score_frame_reads_the_degrees_a_rank_frame_found(hotel_database, slices):
    """Exact degrees a rank frame scored answer a later score frame over
    the same rows: the kernel does not run again."""
    membership, attribute, columns, ranges = slices
    service = _service(hotel_database, slices)
    service.handle_frame(_rank_frame(attribute, ranges, columns.num_entities))  # every row
    calls = service.kernel_calls
    (first, (start, stop)), _ = ranges
    full, sparse = (
        service.handle_frame(encode_score_request(first, attribute, PHRASE, start, stop, rows))[0]
        for rows in (None, [0, 2])
    )
    assert service.kernel_calls == calls
    expected = ColumnarSummaryStore(hotel_database).pair_degrees(
        membership, columns.entity_ids[start:stop], attribute, PHRASE
    )
    reader = Reader(full[1:])
    assert reader.read_f64_array(reader.read_u32()).tolist() == expected
    reader = Reader(sparse[1:])
    assert reader.read_f64_array(reader.read_u32()).tolist() == [expected[0], expected[2]]


def test_traces_filter_by_trace_id_and_limit(hotel_database, slices):
    _membership, attribute, _columns, ranges = slices
    service = _service(hotel_database, slices)
    _, (start, stop) = ranges[0]
    global_trace_store().clear()
    for trace_id, parent in ((21, 1), (21, 2), (22, 3)):
        service.handle_frame(
            encode_score_request(0, attribute, PHRASE, start, stop, None, trace=(trace_id, parent))
        )

    def spans(trace_id, limit):
        response, _ = service.handle_frame(encode_traces_request(trace_id, limit))
        return json.loads(Reader(response[1:]).read_str())

    assert [span["trace_id"] for span in spans(21, 0)] == [21, 21]
    assert [span["parent_id"] for span in spans(21, 1)] == [2]
    assert sorted(span["trace_id"] for span in spans(0, 0)) == [21, 21, 22]
    assert [span["attrs"]["cached"] for span in spans(21, 0)] == [False, True]


def test_serve_reports_why_it_stopped(hotel_database, slices):
    """``serve`` is True after a shutdown, False when the peer goes away."""
    service = _service(hotel_database, slices)
    outcomes = []
    for ending in ("shutdown", "clean eof", "mid-frame eof"):
        server, client = socket.socketpair()
        try:
            if ending == "shutdown":
                send_frame(client, bytes([OP_SHUTDOWN]), service.max_frame_bytes)
            elif ending == "mid-frame eof":
                client.sendall(struct.pack("!I", 100) + b"partial")
            client.shutdown(socket.SHUT_WR)
            outcomes.append(service.serve(server))
        finally:
            client.close()
            server.close()
    assert outcomes == [True, False, False]


def test_a_delta_patches_its_base_live_or_retired_and_refuses_without_one(
    hotel_database, slices
):
    """The base a delta names is looked up among the live slices, then the
    retired generation; with neither, the slice is refused, never guessed."""
    from dataclasses import replace

    from repro.core.columnar import SnapshotDelta
    from repro.errors import SnapshotError

    _membership, _attribute, columns, ranges = slices
    _, (start, stop) = ranges[0]
    version = hotel_database.data_version
    base = ColumnSnapshot.of_slice(columns, 0, start, stop, version)
    perturbed = replace(base.columns, totals=base.columns.totals.copy())
    perturbed.totals[0] += 2.0
    new = ColumnSnapshot(
        data_version=version + 1, slice_id=0, start=start, stop=stop, columns=perturbed
    )
    delta = SnapshotDelta.between(base, new)
    assert delta is not None and list(delta.rows) == [0]

    live = HydratedSlices()
    live.install(base)
    assert live.apply_delta(delta)[0].pack() == new.pack()

    retired = HydratedSlices()
    retired.install(base)
    retired.invalidate(version + 1)
    assert retired.owned_slice_ids == []
    assert retired.apply_delta(delta)[0].pack() == new.pack()

    with pytest.raises(SnapshotError, match="ship a full snapshot"):
        HydratedSlices().apply_delta(delta)


def test_a_one_row_delta_shares_all_but_one_block_with_its_base():
    """A node applying a one-row delta copies the one centroid block holding it."""
    from dataclasses import replace

    from repro.core.columnar import AttributeColumns, SnapshotDelta
    from repro.core.markers import Marker

    rng = np.random.default_rng(5)
    num_entities, num_markers, dimension = 1600, 4, 3
    columns = AttributeColumns(
        attribute="quality",
        entity_ids=[f"e{row}" for row in range(num_entities)],
        markers=[Marker(f"m{index}", index, 0.0) for index in range(num_markers)],
        marker_sentiments=np.zeros(num_markers),
        fractions=rng.random((num_entities, num_markers)),
        average_sentiments=rng.random((num_entities, num_markers)),
        totals=rng.random(num_entities),
        unmatched=rng.random(num_entities),
        overall_sentiments=rng.random(num_entities),
        centroids_unit=rng.normal(size=(num_entities, num_markers, dimension)),
        name_units=rng.normal(size=(num_markers, dimension)),
    )
    base = ColumnSnapshot.of_slice(columns, 2, 0, num_entities, 7)
    node = HydratedSlices()
    node.install(ColumnSnapshot.unpack(base.pack()))  # as a hydrate frame lands
    held = node.slice_columns(2, "quality", 0, num_entities)
    centroids = np.array(columns.centroids_unit)
    centroids[700] += 1.0  # row 700 lives in block 1 of 4
    new = ColumnSnapshot(
        data_version=8,
        slice_id=2,
        start=0,
        stop=num_entities,
        columns=replace(columns, centroids_unit=centroids),
    )
    delta = SnapshotDelta.unpack(SnapshotDelta.between(base, new).pack())
    assert delta.rows == (700,)

    patched, _ = node.apply_delta(delta)
    shared = [
        mine is theirs
        for mine, theirs in zip(held.centroids_unit.blocks, patched.columns.centroids_unit.blocks)
    ]
    assert shared == [True, False, True, True]
    assert node.stats()["tensor_blocks_copied"] == 1
    assert patched.columns.entity_ids is held.entity_ids
    assert patched.pack() == new.pack()
