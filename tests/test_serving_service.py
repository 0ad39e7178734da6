"""One shard service, two slice sources: the contract both transports share.

:class:`repro.serving.service.ShardService` answers every scoring frame for
the forked RPC worker and the TCP cluster node alike; the two differ only in
their slice source.  The contract test drives one frame script through a
worker-sourced and a node-sourced service over the same slice data and
requires byte-identical responses and equal counters — whatever a fix to the
bounded path changes, it changes for both.  The frame layouts themselves are
pinned against bytes captured from the encoders of the commit before the two
handlers were merged.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from repro.core import SubjectiveQueryProcessor
from repro.core.columnar import ColumnarSummaryStore, ColumnSnapshot
from repro.obs import global_trace_store
from repro.serving import ShardService, partition_bounds
from repro.serving.protocol import (
    OP_STATS,
    STATUS_ERROR,
    STATUS_OK,
    Reader,
    encode_error,
    encode_hello,
    encode_hello_ack,
    encode_invalidate_request,
    encode_score_bounded_request,
    encode_score_bounded_response,
    encode_score_request,
    encode_traces_request,
    read_score_bounded_response,
)
from repro.serving.service import HydratedSliceSource, StoreSliceSource

#: Frames captured from the encoders of the parent commit (two handler
#: classes, protocol v4+v5): a v5 peer must see the very same bytes.
PARENT_FRAMES = {
    "score": "010000000300000004726f6f6d00000005636c65616e000000000000000400",
    "score_rows_traced": (
        "010000000300000004726f6f6d0000000b7472c3a87320636c65616e0000000200000009"
        "010000000200000001000000030100000000000000070000000000000009"
    ),
    "bounded": (
        "090000000100000004726f6f6d00000005636c65616e0000000000000004003fd0000000000000"
    ),
    "bounded_rows_traced": (
        "090000000100000004726f6f6d00000005636c65616e00000000000000040100000002"
        "00000000000000023fe80000000000000180000000000000000000000000000001"
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
        "bounded": encode_score_bounded_request(1, "room", "clean", 0, 4, None, 0.25),
        "bounded_rows_traced": encode_score_bounded_request(
            1, "room", "clean", 0, 4, [0, 2], 0.75, trace=(2**63, 1)
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


def _services(hotel_database, slices) -> dict[str, ShardService]:
    """The same slices behind a worker-sourced and a node-sourced service."""
    membership, _attribute, columns, ranges = slices
    hydrated = HydratedSliceSource()
    for slice_id, (start, stop) in ranges:
        shipped = ColumnSnapshot.of_slice(
            columns, slice_id, start, stop, hotel_database.data_version
        )
        hydrated.install(ColumnSnapshot.unpack(shipped.pack()))
    worker_source = StoreSliceSource(hotel_database, [slice_id for slice_id, _ in ranges])
    return {
        "worker": ShardService("worker", 0, membership, worker_source),
        "node": ShardService("node", 0, membership, hydrated),
    }


def _script(hotel_database, slices, trace):
    """The frame script: every opcode, both cache states, four malformed frames."""
    _membership, attribute, _columns, ranges = slices
    (first, (start0, stop0)), (second, (start1, stop1)) = ranges
    sparse = [0, 2]
    score_full = encode_score_request(first, attribute, PHRASE, start0, stop0, None, trace=trace)
    bounded_high = encode_score_bounded_request(
        second, attribute, PHRASE, start1, stop1, None, 2.0, trace=trace
    )
    return [
        ("score full slice", score_full),
        ("score sparse rows", encode_score_request(
            first, attribute, PHRASE, start0, stop0, sparse, trace=trace
        )),
        ("score repeated: cache hit", score_full),
        ("bounded, threshold above every bound: all pruned", bounded_high),
        ("bounded, threshold 0: all exact", encode_score_bounded_request(
            second, attribute, PHRASE, start1, stop1, None, 0.0, trace=trace
        )),
        ("bounded repeated: served from the exact vector", bounded_high),
        ("bounded sparse rows", encode_score_bounded_request(
            second, attribute, "spotless", start1, stop1, sparse, 0.5, trace=trace
        )),
        ("bounded over a slice an exact score cached", encode_score_bounded_request(
            first, attribute, PHRASE, start0, stop0, None, 0.9, trace=trace
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
        ("bounded frame missing its threshold", encode_score_bounded_request(
            second, attribute, PHRASE, start1, stop1, None, 0.5
        )[:-8]),
        ("stats", bytes([OP_STATS])),
    ]


#: ``stats`` entries that name the process or belong to one source only.
_PER_SERVICE_STATS = {
    "worker", "node", "pid", "hydrated_slices", "stale_slices", "local_store",
    "local_hydrations",
}


def _comparable(name: str, response: bytes):
    """A response in the form the two services must agree on."""
    if name == "stats":
        stats = json.loads(Reader(response[1:]).read_str())
        return {key: value for key, value in stats.items() if key not in _PER_SERVICE_STATS}
    if name == "traces":
        # Both services share this process's span buffer, and each records
        # under its own role name: compare what the spans say, not who.
        spans = json.loads(Reader(response[1:]).read_str())
        return [
            (
                span["name"].split("_", 1)[1],
                {
                    key: value
                    for key, value in span["attrs"].items()
                    if key not in ("worker", "node")
                },
            )
            for span in spans
        ]
    return response


@pytest.mark.parametrize("trace", [None, (11, 13)], ids=["untraced", "traced"])
def test_worker_and_node_sourced_services_answer_identically(hotel_database, slices, trace):
    membership, attribute, columns, ranges = slices
    services = _services(hotel_database, slices)
    script = _script(hotel_database, slices, trace)
    responses: dict[str, list] = {}
    for role, service in services.items():
        global_trace_store().clear()
        responses[role] = []
        for name, frame in script:
            response, stop = service.handle_frame(frame)
            assert not stop, name
            responses[role].append(_comparable(name, response))
    for (name, _frame), worker, node in zip(script, responses["worker"], responses["node"]):
        assert worker == node, name
    by_name = dict(zip((name for name, _ in script), responses["worker"]))

    # The answers are the in-process kernel's, bit for bit.
    base = ColumnarSummaryStore(hotel_database)
    (_, (start0, stop0)), (_, (start1, stop1)) = ranges
    expected = base.pair_degrees(membership, columns.entity_ids[start0:stop0], attribute, PHRASE)
    wire = np.asarray(expected, dtype=">f8").tobytes()
    assert by_name["score full slice"] == bytes([STATUS_OK]) + struct.pack("!I", len(expected)) + wire
    assert by_name["score repeated: cache hit"] == by_name["score full slice"]
    assert by_name["score after invalidate: kernel runs again"] == by_name["score full slice"]
    values, mask, scored, pruned = read_score_bounded_response(
        Reader(by_name["bounded, threshold above every bound: all pruned"][1:])
    )
    assert (scored, pruned, mask.any()) == (0, stop1 - start1, False)
    exact = base.pair_degrees(membership, columns.entity_ids[start1:stop1], attribute, PHRASE)
    assert (values >= np.asarray(exact)).all()  # a returned bound is an upper bound
    values, mask, scored, pruned = read_score_bounded_response(
        Reader(by_name["bounded, threshold 0: all exact"][1:])
    )
    assert (values.tolist(), mask.all(), scored, pruned) == (exact, True, stop1 - start1, 0)
    values, mask, scored, pruned = read_score_bounded_response(
        Reader(by_name["bounded repeated: served from the exact vector"][1:])
    )
    assert (values.tolist(), mask.all(), scored, pruned) == (exact, True, 0, 0)

    # Malformed frames are transported errors, never served answers.
    for name in (
        "unknown opcode",
        "truncated frame",
        "trailing bytes after the last field",
        "bounded frame missing its threshold",
    ):
        assert by_name[name][0] == STATUS_ERROR, name
    assert "trailing bytes" in Reader(by_name["trailing bytes after the last field"][1:]).read_str()

    # Equal counters, under each transport's own names.
    worker, node = services["worker"], services["node"]
    for counter in (
        "score_requests", "bounded_requests", "kernel_calls", "entities_scored",
        "entities_pruned", "invalidations", "cache_entries",
    ):
        assert getattr(worker, counter) == getattr(node, counter), counter
    assert (worker.score_requests, worker.bounded_requests, worker.invalidations) == (4, 5, 1)
    assert worker.stats()["worker"] == node.stats()["node"] == 0
    if trace is not None:
        kinds = [kind for kind, _attrs in by_name["traces"]]
        assert kinds == ["score"] * 3 + ["score_bounded"] * 5
        assert {span.name for span in global_trace_store().spans()} == {
            "node_score", "node_score_bounded",
        }
    else:
        assert by_name["traces"] == []
