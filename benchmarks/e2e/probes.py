"""Benchmark-side timings of layers that emit no spans of their own.

Each probe times direct calls into a layer's **public** functions on the
workload's real database — the median of repeated calls — so the per-layer
table has a row for the interpreter, the columnar kernels, the snapshot and
frame codecs and the gateway serialiser without any change under ``src/``.
They run in the traced pass of every workload, after its answers were
verified: the snapshot-delta probe ingests into the database.
"""

from __future__ import annotations

import json
import random
from typing import Callable, Hashable

import numpy as np

from benchmarks.e2e import queries, spec
from benchmarks.e2e.stats import median
from repro.utils.timing import now

def seconds(action: Callable[[], object]) -> float:
    """Wall time of one call."""
    started = now()
    action()
    return now() - started


def median_seconds(actions: list[Callable[[], object]]) -> float:
    """Median wall time over one call of each action."""
    return median([seconds(action) for action in actions])


def ingest_target(database, serial: int) -> Hashable:
    """The existing entity the ``serial``-th ingest touches."""
    entity_ids = database.entity_ids()
    return entity_ids[(7919 * (serial + 1)) % len(entity_ids)]


def ingest_one(database, serial: int) -> Hashable:
    """One single-entity ingest: a review plus a replaced marker summary.

    Touches an *existing* entity, so the fleet can ship a ``SnapshotDelta``
    (an added entity moves the partition bounds and re-ships every slice).
    Bumps ``data_version`` (once per call into the database).  Returns the
    entity id.
    """
    from repro.core.database import ReviewRecord
    from repro.core.markers import MarkerSummary

    entity_id = ingest_target(database, serial)
    attributes = database.schema.subjective_attributes
    attribute = attributes[serial % len(attributes)]
    marker = attribute.markers[serial % len(attribute.markers)].name
    review_id = 10_000_000 + database.num_reviews()  # reviews are only ever added
    database.add_review(ReviewRecord(review_id, entity_id, f"{marker} {marker} word100"))
    summary = MarkerSummary(attribute.name, list(attribute.markers))
    for _ in range(4):
        summary.add_phrase(marker, sentiment=0.9)
    database.store_summary(entity_id, summary)
    return entity_id


def layer_probes(database) -> dict[str, float]:
    """Every workload-independent per-layer probe, by metric name."""
    from repro.core import SubjectiveQueryProcessor
    from repro.core.columnar import ColumnarSummaryStore, ColumnSnapshot, SnapshotDelta
    from repro.serving import merge_shard_topk, partition_bounds, protocol
    from repro.serving.gateway import serialize_result

    processor = SubjectiveQueryProcessor(database)
    store = processor.columnar_store
    membership = processor.membership
    entity_ids = database.entity_ids()
    stream = queries.cold_stream(seed=-1)
    deck = queries.PhraseDeck(random.Random("probes"))
    attributes = [attribute.name for attribute in database.schema.subjective_attributes]
    attribute = attributes[0]
    metrics: dict[str, float] = {}

    statements = [processor.prepare_statement(next(stream)) for _ in range(12)]
    metrics["interpreter.interpret_ms"] = 1e3 * median_seconds(
        [lambda s=s: processor.interpret_predicates(s) for s in statements]
    )

    columns = store.columns(attribute)  # built here; the kernel probe times scoring only
    kernel_s = median_seconds(
        [
            lambda p=deck.draw(): store.pair_degrees(membership, entity_ids, attribute, p)
            for _ in range(8)
        ]
    )
    metrics["columnar.kernel_us_per_entity"] = 1e6 * kernel_s / len(entity_ids)
    metrics["columnar.envelope_ms"] = 1e3 * median_seconds(
        [
            lambda p=deck.draw(): store.pair_degree_envelope(membership, entity_ids, attribute, p)
            for _ in range(8)
        ]
    )

    scores = np.asarray(store.pair_degrees(membership, entity_ids, attribute, deck.draw()))
    metrics["sharded.merge_ms"] = 1e3 * median_seconds(
        [lambda: merge_shard_topk(scores, entity_ids, spec.INPROC["num_shards"], spec.TOP_K)] * 8
    )

    # One fleet slice — the one the ingest below touches — as the cluster ships it.
    serial = 0  # ingest_one(serial=0) replaces a summary of the first attribute
    bounds = partition_bounds(columns.num_entities, spec.FLEET["num_shards"])
    row = columns.row_of[ingest_target(database, serial)]
    slice_id = max(index for index, bound in enumerate(bounds[:-1]) if bound <= row)
    start, stop = bounds[slice_id], bounds[slice_id + 1]
    base = ColumnSnapshot.of_slice(columns, slice_id, start, stop, database.data_version)
    packed = base.pack()
    metrics["columnar.snapshot_bytes"] = float(len(packed))
    metrics["columnar.snapshot_pack_ms"] = 1e3 * median_seconds([base.pack] * 5)
    metrics["columnar.snapshot_unpack_ms"] = 1e3 * median_seconds(
        [lambda: ColumnSnapshot.unpack(packed)] * 5
    )

    # One score frame of that slice: values + exactness mask + counters.
    values = np.asarray(
        store.pair_degrees(membership, entity_ids[start:stop], attribute, deck.draw()),
        dtype=np.float64,
    )
    mask = values >= float(np.median(values))
    scored = int(mask.sum())

    def encode() -> bytes:
        return protocol.encode_score_bounded_response(values, mask, scored, len(mask) - scored)

    frame = encode()

    def decode() -> object:
        reader = protocol.Reader(frame)
        reader.read_u8()
        return protocol.read_score_bounded_response(reader)

    metrics["protocol.encode_ms"] = 1e3 * median_seconds([encode] * 50)
    metrics["protocol.decode_ms"] = 1e3 * median_seconds([decode] * 50)

    result = processor.execute(next(stream))
    metrics["gateway.serialize_ms"] = 1e3 * median_seconds(
        [lambda: json.dumps(serialize_result(result))] * 200
    )

    # Column build on fresh stores, then the delta that one-entity ingest ships.
    ingest_one(database, serial)
    builds = []
    for _ in range(2):
        fresh = ColumnarSummaryStore(database)
        builds.extend(seconds(lambda name=name: fresh.columns(name)) for name in attributes)
    metrics["columnar.build_ms"] = 1e3 * median(builds)
    rebuilt = ColumnSnapshot.of_slice(
        fresh.columns(attribute), slice_id, start, stop, database.data_version
    )
    delta = SnapshotDelta.between(base, rebuilt)
    metrics["columnar.delta_bytes"] = float(len(delta.pack())) if delta is not None else 0.0
    return metrics
