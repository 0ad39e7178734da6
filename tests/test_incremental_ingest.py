"""Interleaved ingests on every engine kind, against a fresh serial processor.

A journaled ingest no longer drops the columnar store: the next read patches
the replaced rows into a *new* column generation (``ColumnarSummaryStore.sync``).
This suite pins the two halves of that contract on the serial engine, the
in-process sharded engine at 1/2/4 shards, the TCP cluster (with and
without slice replicas) and a database saved and opened from disk: after
each of N interleaved ingests every answer equals a fresh
``SubjectiveQueryProcessor`` bit for bit, and a reader still holding the
previous generation's arrays sees the values it saw before.

It also pins what an ingest must *not* throw away: a journaled ingest keeps
the candidate sets of join-free statements (without pinning the generation
a patch replaced), and cluster nodes patch their slice bounds from delta
rows instead of rebuilding them.

Set ``REPRO_STORAGE_DIR`` to relocate the persisted variant's directory (the
CI storage matrix points it at tmpfs and at real disk).
"""

from __future__ import annotations

import gc
import os
import tempfile
import weakref
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


def _replace_summary(database: SubjectiveDatabase, entity_id: str, name: str) -> None:
    """One journaled ingest: a fresh, conforming summary of ``(entity_id, name)``."""
    attribute = database.schema.subjective(name)
    summary = MarkerSummary(
        name, list(attribute.markers), embedding_dimension=database.embedding_dimension
    )
    summary.add_phrase(
        attribute.markers[1].name, sentiment=0.75, vector=database.phrase_vector("word050")
    )
    database.store_summary(entity_id, summary)


def _add_review(database: SubjectiveDatabase, entity_id: str) -> None:
    """One journaled ingest that replaces no summary."""
    review_id = 1_000_000 + database.num_reviews()
    database.add_review(ReviewRecord(review_id, entity_id, "word001 word100"))


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


ROME = "select * from Entities where city = 'rome' and \"{}\" limit 5"
ROME_JOINED = (
    "select * from Entities e join reviews r on e.eid = r.eid "
    "where e.city = 'rome' and \"{}\" limit 5"
)


class TestCandidateSetsSurviveJournaledIngests:
    """A journaled ingest keeps the candidate sets of join-free statements.

    ``add_review`` and ``store_summary`` never write the entities table — all
    a join-free pre-filter reads — so the first objective-shape query after
    one reuses its set.  ``add_entity``, ``invalidate()`` and a statement with
    a join still recompute theirs; every answer equals a fresh processor's.
    """

    CHANGES = {
        "add_review": lambda database: _add_review(database, "e00002"),
        "store_summary": lambda database: _replace_summary(database, "e00002", "quality"),
        "add_entity": lambda database: database.add_entity(
            "late", {"city": "rome", "price": 75.0}
        ),
        "invalidate": None,
    }

    @pytest.mark.parametrize("change", list(CHANGES))
    def test_the_first_query_after_a_change_hits_only_when_journaled(self, change):
        database = build_synthetic_columnar_database(num_entities=30, seed=5)
        engine = SubjectiveQueryEngine(database=database)
        engine.execute(ROME.format("word003"))
        stats = engine.candidate_cache.stats
        hits, misses = stats.hits, stats.misses
        if change == "invalidate":
            engine.invalidate()
        else:
            self.CHANGES[change](database)
        sql = ROME.format("word004")
        result = engine.execute(sql)
        journaled = change in ("add_review", "store_summary")
        assert (stats.hits - hits, stats.misses - misses) == ((1, 0) if journaled else (0, 1))
        assert_identical_results(SubjectiveQueryProcessor(database).execute(sql), result, change)

    def test_a_join_statement_recomputes_its_set(self):
        database = build_synthetic_columnar_database(num_entities=30, seed=5)
        engine = SubjectiveQueryEngine(database=database)
        engine.execute(ROME_JOINED.format("word003"))
        key = engine.plan(ROME_JOINED.format("word003")).candidate_key
        joined_rows = len(engine.candidate_cache.peek(key).rows)
        _add_review(database, "e00002")  # one more joined row for a rome entity
        sql = ROME_JOINED.format("word004")
        misses = engine.candidate_cache.stats.misses
        result = engine.execute(sql)
        assert engine.candidate_cache.stats.misses == misses + 1
        assert len(engine.candidate_cache.peek(key).rows) == joined_rows + 1
        assert_identical_results(SubjectiveQueryProcessor(database).execute(sql), result)

    def test_a_kept_set_does_not_pin_the_replaced_generation(self):
        """The kept set's row memo follows ``row_of``, which a patch shares."""
        database = build_synthetic_columnar_database(num_entities=90, seed=17)
        with ShardedSubjectiveQueryEngine(database=database, num_shards=2) as engine:
            store = _base_store(engine)
            both = 'select * from Entities where "word004" and "word020" limit 5'
            engine.execute(both)
            kept = engine.candidate_cache.peek(engine.plan(both).candidate_key)
            assert set(kept._store_rows) == {"quality", "service"}  # the pruned scan's memo
            quality_rows = kept.store_rows(store.columns("quality"))
            replaced = weakref.ref(store.columns("quality"))
            _replace_summary(database, "e00001", "quality")
            # Same objective skeleton, service phrases only: the kept set is
            # used while the quality generation is patched underneath it.
            sql = 'select * from Entities where "word020" and "word021" limit 5'
            hits = engine.candidate_cache.stats.hits
            result = engine.execute(sql)
            assert engine.candidate_cache.stats.hits == hits + 1
            assert_identical_results(SubjectiveQueryProcessor(database).execute(sql), result)
            gc.collect()
            assert replaced() is None
            assert kept.store_rows(store.columns("quality")) is quality_rows


class TestFleetPatchesSliceBounds:
    """Nodes patch slice bounds from delta rows instead of rebuilding them.

    Readable from the fleet's ``stats`` alone: across ingest-then-query
    rounds ``bounds_builds`` stays flat while ``bounds_patches`` grows, and
    no slice re-ships in full.
    """

    SQLS = [
        'select * from Entities where "word003" and "word019" limit 5',
        'select * from Entities where "word002" and "word020" limit 4',
    ]

    @staticmethod
    def _bound_counters(engine) -> tuple[int, int]:
        partitions = engine.partition_stats()
        return (
            sum(entry["bounds_builds"] for entry in partitions),
            sum(entry["bounds_patches"] for entry in partitions),
        )

    def test_builds_stay_flat_while_patches_grow(self):
        database = build_synthetic_columnar_database(num_entities=90, seed=17)
        with ClusterQueryEngine(database=database, num_nodes=2, num_shards=4) as engine:
            for sql in self.SQLS:
                engine.execute(sql)
            builds, patches = self._bound_counters(engine)
            assert builds > 0 and patches == 0
            full_frames = engine.sharded_store.transport_counters()["snapshot_hydrations"]
            for serial, name in enumerate(["quality", "service", "quality"]):
                _replace_summary(database, f"e{11 * serial + 1:05d}", name)
                oracle = SubjectiveQueryProcessor(database)
                for sql in self.SQLS:
                    assert_identical_results(
                        oracle.execute(sql), engine.execute(sql), f"round {serial} {sql!r}"
                    )
                now_builds, now_patches = self._bound_counters(engine)
                assert now_builds == builds, f"round {serial} rebuilt slice bounds"
                assert now_patches > patches
                patches = now_patches
            counters = engine.sharded_store.transport_counters()
            assert counters["snapshot_hydrations"] == full_frames
            assert counters["node_respawns"] == counters["node_reconnects"] == 0
