"""Interleaved ingests on every engine kind, against a fresh serial processor.

A journaled ingest no longer drops the columnar store: the next read patches
the replaced rows into a *new* column generation (``ColumnarSummaryStore.sync``).
This suite pins the two halves of that contract on the serial engine, the
in-process sharded engine at 1/2/4 shards, the TCP cluster (with and
without slice replicas) and a database saved and opened from disk: after
each of N interleaved ingests every answer equals a fresh
``SubjectiveQueryProcessor`` bit for bit, and a reader still holding the
previous generation's arrays sees the values it saw before.

Set ``REPRO_STORAGE_DIR`` to relocate the persisted variant's directory (the
CI storage matrix points it at tmpfs and at real disk).
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager, nullcontext
from dataclasses import fields

import numpy as np
import pytest

from repro.core import SubjectiveQueryProcessor
from repro.core.columnar import AttributeColumns
from repro.core.database import ReviewRecord, SubjectiveDatabase
from repro.core.markers import MarkerSummary
from repro.serving import (
    ClusterQueryEngine,
    ShardedSubjectiveQueryEngine,
    SubjectiveQueryEngine,
)
from repro.testing import assert_identical_results, build_synthetic_columnar_database

QUERIES = [
    'select * from Entities where "word003" and "word019" limit 5',
    'select * from Entities where "word005" or "word017" limit 6',
    "select * from Entities where city = 'rome' and (\"word004\" or \"word020\") limit 5",
    'select * from Entities where "word002" and "word001"',
]

ROUNDS = 6


def _base_store(engine):
    """The ``ColumnarSummaryStore`` at the bottom of any engine kind."""
    store = engine.processor.columnar_store
    return getattr(store, "base", store)


def _frozen(columns: AttributeColumns) -> dict[str, np.ndarray]:
    """Copies of every array of one generation, as a reader saw them."""
    return {
        field.name: np.array(getattr(columns, field.name))
        for field in fields(columns)
        if isinstance(getattr(columns, field.name), np.ndarray)
    }


def _ingest(database: SubjectiveDatabase, serial: int) -> set[str]:
    """One ingest of a rotating shape; the attributes whose summaries it replaced."""
    entity_ids = database.entity_ids()
    entity_id = entity_ids[(31 * (serial + 1)) % len(entity_ids)]
    review_id = 1_000_000 + database.num_reviews()
    database.add_review(ReviewRecord(review_id, entity_id, f"word{serial:03d} word100"))
    attributes = list(database.schema.subjective_attributes)
    touched = [[], [attributes[(serial // 3) % len(attributes)]], attributes][serial % 3]
    for attribute in touched:
        summary = MarkerSummary(
            attribute.name,
            list(attribute.markers),
            embedding_dimension=database.embedding_dimension,
        )
        vector = database.phrase_vector(f"word{serial + 40:03d}")
        for offset in range(3):
            marker = attribute.markers[(serial + offset) % len(attribute.markers)].name
            summary.add_phrase(marker, sentiment=0.9 - 0.6 * offset, vector=vector)
        database.store_summary(entity_id, summary)
    return {attribute.name for attribute in touched}


@contextmanager
def _persisted(database: SubjectiveDatabase):
    base = os.environ.get("REPRO_STORAGE_DIR") or None
    if base:
        os.makedirs(base, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="repro-ingest-", dir=base) as directory:
        database.save(directory)
        yield SubjectiveDatabase.open(directory)


def _sharded(num_shards: int):
    return lambda db: ShardedSubjectiveQueryEngine(
        database=db, num_shards=num_shards, backend="thread"
    )


ENGINE_KINDS = {
    "serial": lambda db: SubjectiveQueryEngine(database=db),
    "sharded-1": _sharded(1),
    "sharded-2": _sharded(2),
    "sharded-4": _sharded(4),
    "cluster": lambda db: ClusterQueryEngine(database=db, num_nodes=2, num_shards=4),
    "cluster-replicated": lambda db: ClusterQueryEngine(
        database=db, num_nodes=3, num_shards=4, replication=2
    ),
    "persisted": _sharded(2),  # over a database saved and opened from disk
}


class TestInterleavedIngestDifferential:
    @pytest.mark.parametrize("kind", list(ENGINE_KINDS))
    def test_every_answer_is_fresh_and_old_generations_keep_their_values(self, kind):
        database = build_synthetic_columnar_database(num_entities=90, seed=17)
        with _persisted(database) if kind == "persisted" else nullcontext(database) as live:
            with ENGINE_KINDS[kind](live) as engine:
                self._run_rounds(kind, live, engine)

    def _run_rounds(self, kind, database, engine) -> None:
        store = _base_store(engine)
        names = [attribute.name for attribute in database.schema.subjective_attributes]
        for sql in QUERIES:  # builds columns, hydrates nodes
            engine.execute(sql)
        builds = store.builds
        transport = getattr(engine.processor.columnar_store, "transport_counters", None)
        full_frames = transport()["snapshot_hydrations"] if kind.startswith("cluster") else None
        for serial in range(ROUNDS):
            held = {name: store.columns(name) for name in names}
            seen = {name: _frozen(columns) for name, columns in held.items()}
            replaced = _ingest(database, serial)
            oracle = SubjectiveQueryProcessor(database)
            for sql in QUERIES:
                assert_identical_results(
                    oracle.execute(sql), engine.execute(sql), f"{kind} round {serial} {sql!r}"
                )
            for name in names:
                for array_name, values in seen[name].items():
                    assert np.array_equal(getattr(held[name], array_name), values), (
                        f"{kind} round {serial}: the held generation of {name!r} "
                        f"changed in {array_name}"
                    )
                assert (store.columns(name) is held[name]) == (name not in replaced)
        assert store.builds == builds and store.invalidations == 0
        assert store.patches == sum(serial % 3 for serial in range(ROUNDS))
        if kind == "persisted":
            assert store.mmap_serves == len(names)
        if kind.startswith("cluster"):  # every slice re-ships as a delta, none in full
            assert transport()["snapshot_hydrations"] == full_frames > 0
            assert transport()["snapshot_delta_hydrations"] > 0
            assert engine.sharded_store.hydrations == (
                full_frames + transport()["snapshot_delta_hydrations"]
            )
