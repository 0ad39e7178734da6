"""Differential equivalence tests: the sharded engine vs the single engine.

The contract of :mod:`repro.serving.sharded` is *exact* equality — not
approximate — with the unsharded :class:`repro.serving.SubjectiveQueryEngine`:
same ranked entity ids, bit-identical scores and per-predicate degrees, for
every shard count and execution backend.  These tests pin that contract on
the two fully built domain fixtures (hotels, restaurants), including the
BM25 text-retrieval fallback path, ``top_k`` edge cases, score ties, the
array-connective ranking fallback, and the interleaved ingest + batch
serving regression (a ``data_version`` bump mid-``run_batch`` must drop
shard caches and columnar slices together).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SubjectiveQueryProcessor
from repro.core.attributes import ObjectiveAttribute, SubjectiveAttribute, SubjectiveSchema
from repro.core.columnar import ColumnarSummaryStore
from repro.core.database import ReviewRecord, SubjectiveDatabase
from repro.core.interpreter import InterpretationMethod
from repro.engine.types import ColumnType
from repro.core.markers import Marker, MarkerSummary
from repro.serving import (
    ShardedColumnarStore,
    ShardedSubjectiveQueryEngine,
    SubjectiveQueryEngine,
    partition_bounds,
)
from repro.testing import assert_engines_agree, assert_identical_results

SHARD_COUNTS = [1, 2, 3, 7]

#: Gibberish predicates interpret to nothing and must fall back to BM25
#: text retrieval; the suite asserts the fallback actually triggered.
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
    f'select * from Entities where "{FALLBACK_PREDICATE}" limit 5',
]


def _sharded(num_shards, backend="serial"):
    return lambda database: ShardedSubjectiveQueryEngine(
        database=database, num_shards=num_shards, backend=backend
    )


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_hotels_rankings_identical(self, hotel_database, num_shards):
        assert_engines_agree(hotel_database, _sharded(num_shards), HOTEL_QUERIES)

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_restaurants_rankings_identical(self, restaurant_database, num_shards):
        assert_engines_agree(restaurant_database, _sharded(num_shards), RESTAURANT_QUERIES)

    @pytest.mark.parametrize("num_shards", [2, 7])
    def test_thread_backend_identical(self, hotel_database, num_shards):
        assert_engines_agree(hotel_database, _sharded(num_shards, "thread"), HOTEL_QUERIES)

    def test_retrieval_fallback_is_exercised(self, hotel_database):
        """The gibberish predicate really takes the BM25 fallback path."""
        engine = ShardedSubjectiveQueryEngine(database=hotel_database, num_shards=3)
        sql = HOTEL_QUERIES[-1]
        engine.execute(sql)
        plan = engine.plan(sql)
        assert (
            plan.interpretations[FALLBACK_PREDICATE].method
            is InterpretationMethod.TEXT_RETRIEVAL
        )

    @pytest.mark.parametrize("top_k", [0, 1, 1000])
    def test_top_k_edge_cases(self, hotel_database, top_k):
        """``top_k`` of 0 (falls back to the default), 1, and far above E."""
        sql = 'select * from Entities where "clean room" and "friendly staff"'
        baseline = SubjectiveQueryEngine(database=hotel_database)
        sharded = ShardedSubjectiveQueryEngine(database=hotel_database, num_shards=3)
        assert_identical_results(
            baseline.execute(sql, top_k=top_k),
            sharded.execute(sql, top_k=top_k),
            context=f"top_k={top_k}",
        )

    def test_run_batch_identical(self, hotel_database):
        baseline = SubjectiveQueryEngine(database=hotel_database)
        sharded = ShardedSubjectiveQueryEngine(database=hotel_database, num_shards=3)
        expected = baseline.run_batch(HOTEL_QUERIES)
        actual = sharded.run_batch(HOTEL_QUERIES)
        assert len(actual) == len(expected)
        for exp, act in zip(expected.results, actual.results):
            assert_identical_results(exp, act)

    def test_array_logic_fallback_identical(self, hotel_database):
        """A logic without array connectives ranks through the scalar path."""
        processor = SubjectiveQueryProcessor(hotel_database)
        processor.logic.supports_arrays = False  # instance-level override
        baseline = SubjectiveQueryEngine(database=hotel_database)
        sharded = ShardedSubjectiveQueryEngine(processor=processor, num_shards=3)
        for sql in HOTEL_QUERIES:
            assert_identical_results(
                baseline.execute(sql), sharded.execute(sql), context=sql
            )


class TestShardedStoreDegrees:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_pair_degrees_exactly_equal(self, hotel_database, num_shards):
        """Sharded degrees are bit-identical to the base store's, full and sparse."""
        processor = SubjectiveQueryProcessor(hotel_database)
        base = ColumnarSummaryStore(hotel_database)
        sharded = ShardedColumnarStore(hotel_database, num_shards=num_shards)
        attribute = next(
            iter(hotel_database.schema.subjective_attributes)
        ).name
        entity_ids = hotel_database.entity_ids()
        for phrase in ("very clean room", "noisy at night"):
            for ids in (entity_ids, entity_ids[::3], entity_ids[:2]):
                expected = base.pair_degrees(processor.membership, ids, attribute, phrase)
                actual = sharded.pair_degrees(processor.membership, ids, attribute, phrase)
                assert actual == expected

    def test_processor_store_routing(self, hotel_database):
        """``pair_degrees(store=...)`` routes one computation through a sharded store."""
        processor = SubjectiveQueryProcessor(hotel_database)
        sharded = ShardedColumnarStore(hotel_database, num_shards=3)
        attribute = next(iter(hotel_database.schema.subjective_attributes)).name
        ids = hotel_database.entity_ids()
        expected = processor.pair_degrees(ids, attribute, "spotless room")
        routed = processor.pair_degrees(ids, attribute, "spotless room", store=sharded)
        assert routed == expected
        assert sharded.fanouts == 1

    def test_missing_attribute_returns_none(self, hotel_database):
        processor = SubjectiveQueryProcessor(hotel_database)
        sharded = ShardedColumnarStore(hotel_database, num_shards=2)
        assert (
            sharded.pair_degrees(
                processor.membership, hotel_database.entity_ids(), "no_such_attr", "x"
            )
            is None
        )


# ---------------------------------------------------------------------------
# A small mutable database (the session fixtures must stay read-only)
# ---------------------------------------------------------------------------

MARKERS = [Marker("clean", 0, 0.7), Marker("dirty", 1, -0.7)]


def build_mutable_database(num_entities: int = 9) -> SubjectiveDatabase:
    attribute = SubjectiveAttribute(name="room_cleanliness", markers=list(MARKERS))
    # Variations in the linguistic domain make "clean room"/"dirty room"
    # interpretable through the word2vec method (not the BM25 fallback).
    attribute.domain.add_many(["clean room", "dirty room"])
    schema = SubjectiveSchema(
        name="hotels",
        entity_key="hotelname",
        objective_attributes=[
            ObjectiveAttribute("city", ColumnType.TEXT),
            ObjectiveAttribute("price_pn", ColumnType.FLOAT),
        ],
        subjective_attributes=[attribute],
    )
    database = SubjectiveDatabase(schema, embedding_dimension=12)
    texts = [
        "the room was very clean and the staff was friendly",
        "dirty room with a bad smell and rude staff",
        "spotless clean room and a great location",
        "the room was clean and the breakfast was good",
    ]
    review_id = 0
    for index in range(num_entities):
        entity = f"h{index}"
        database.add_entity(
            entity, {"city": "london" if index % 2 else "paris", "price_pn": 100.0 + index}
        )
        for text in texts:
            database.add_review(ReviewRecord(review_id, entity, text))
            review_id += 1
        summary = MarkerSummary("room_cleanliness", list(MARKERS))
        # Entities 0-2 share one summary, so their degrees tie exactly and
        # rankings exercise the deterministic (-score, str(id)) tie-break.
        tier = min(index, 3)
        summary.add_phrase("clean" if tier % 2 else "dirty", sentiment=0.4 if tier % 2 else -0.4)
        summary.add_phrase("clean", sentiment=0.1 * tier)
        database.store_summary(entity, summary)
    database.set_variation_marker("room_cleanliness", "clean room", "clean")
    database.set_variation_marker("room_cleanliness", "dirty room", "dirty")
    database.fit_text_models()
    return database


INGEST_QUERY = 'select * from Entities where "clean room" limit 6'


class _IngestingBatch(list):
    """A query batch whose iteration ingests new data between two queries.

    ``run_batch`` iterates its input sequence lazily, so yielding triggers
    the ingest exactly between the first and second ``execute`` — the
    mid-batch ``data_version`` bump of the regression test.
    """

    def __init__(self, sqls, ingest):
        super().__init__(sqls)
        self._ingest = ingest

    def __iter__(self):
        for index, sql in enumerate(super().__iter__()):
            if index == 1:
                self._ingest()
            yield sql


def assert_envelope_tracks_ingest(database, engine) -> None:
    """The store's bound envelope re-checks ``data_version`` on its own.

    Straight after an ingest, with no query in between, the envelope must
    be the post-ingest one: a stale bound could justify a wrong prune.
    """
    store = engine.sharded_store
    membership = engine.processor.membership
    request = (membership, "room_cleanliness", "clean")
    before = store.degree_envelope(*request)
    summary = MarkerSummary("room_cleanliness", list(MARKERS))
    summary.add_phrase("dirty", sentiment=-0.9)
    database.store_summary(sorted(database.entity_ids())[-1], summary)
    after = store.degree_envelope(*request)
    assert store.data_version == database.data_version
    fresh = ColumnarSummaryStore(database).degree_envelope(*request)
    assert all(np.array_equal(got, want) for got, want in zip(after, fresh))
    assert not all(np.array_equal(got, old) for got, old in zip(after, before))


class TestBackendChoice:
    @pytest.mark.parametrize("backend", ["process", "bogus"])
    def test_unknown_backend_is_rejected(self, hotel_database, backend):
        """Process placement is the RPC tier; the in-process engine has two backends."""
        with pytest.raises(ValueError, match="unknown shard backend"):
            ShardedSubjectiveQueryEngine(database=hotel_database, backend=backend)
        with pytest.raises(ValueError, match="unknown shard backend"):
            ShardedColumnarStore(hotel_database, backend=backend)


class TestTieBreaking:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_tied_scores_rank_identically(self, num_shards):
        database = build_mutable_database()
        assert_engines_agree(
            database,
            _sharded(num_shards),
            [INGEST_QUERY, 'select * from Entities where "clean room" limit 9'],
        )


class TestInterleavedIngest:
    def test_mid_batch_ingest_drops_shard_state_together(self):
        """A ``data_version`` bump mid-``run_batch`` leaves no stale degrees."""
        database = build_mutable_database()
        engine = ShardedSubjectiveQueryEngine(database=database, num_shards=3)
        store = engine.sharded_store
        version_before = database.data_version

        # Prime every cache and the shard slices with pre-ingest state.  The
        # query must read marker summaries (not the BM25 fallback) or the
        # ingest below could not change its degrees.
        stale = engine.execute(INGEST_QUERY)
        plan = engine.plan(INGEST_QUERY)
        assert all(
            interpretation.method is not InterpretationMethod.TEXT_RETRIEVAL
            for interpretation in plan.interpretations.values()
        )
        assert store.data_version == version_before
        assert len(engine.membership_cache) > 0

        def ingest():
            # Flip every entity's summary so all pre-ingest degrees are wrong.
            for index, entity in enumerate(sorted(database.entity_ids())):
                summary = MarkerSummary("room_cleanliness", list(MARKERS))
                summary.add_phrase("dirty" if index % 2 else "clean", sentiment=-0.6 if index % 2 else 0.6)
                database.store_summary(entity, summary)

        batch = engine.run_batch(_IngestingBatch([INGEST_QUERY, INGEST_QUERY], ingest))
        assert database.data_version > version_before

        # Shard slices, base columns and every cache partition were dropped
        # together on the version bump.
        assert store.data_version == database.data_version
        assert store.invalidations >= 1
        assert engine.stats.invalidations >= 1

        # The post-ingest result equals a fresh engine over the new data...
        fresh = SubjectiveQueryEngine(database=database).execute(INGEST_QUERY)
        assert_identical_results(fresh, batch.results[1])
        # ... and genuinely differs from the pre-ingest ranking, so a stale
        # survivor could not have passed the check above by accident.
        stale_degrees = [entity.predicate_degrees for entity in stale.entities]
        fresh_degrees = [entity.predicate_degrees for entity in fresh.entities]
        assert stale_degrees != fresh_degrees

        # No stale degree survives in any membership-cache partition: every
        # cached value equals an uncached recomputation over the new data.
        checker = SubjectiveQueryProcessor(database)
        for key in list(engine.membership_cache.keys()):
            entity_id, attribute, phrase = key
            cached = engine.membership_cache.peek(key)
            if attribute is None:
                recomputed = checker.retrieval_degrees([entity_id], phrase)[0]
            else:
                recomputed = checker.pair_degrees([entity_id], attribute, phrase)[0]
            assert cached == recomputed, key

    def test_direct_ingest_invalidates_shard_slices(self):
        database = build_mutable_database(num_entities=6)
        store = ShardedColumnarStore(database, num_shards=3)
        processor = SubjectiveQueryProcessor(database, columnar_store=store)
        attribute = "room_cleanliness"
        ids = database.entity_ids()
        before = processor.pair_degrees(ids, attribute, "very clean room")
        assert store.shard_slices(attribute) is not None

        summary = MarkerSummary("room_cleanliness", list(MARKERS))
        summary.add_phrase("clean", sentiment=0.9)
        database.store_summary(ids[0], summary)

        after = processor.pair_degrees(ids, attribute, "very clean room")
        assert store.data_version == database.data_version
        assert after != before
        assert after == ColumnarSummaryStore(database).pair_degrees(
            processor.membership, ids, attribute, "very clean room"
        )


class TestPartitionedMembershipCache:
    def test_counters_are_reported_per_shard_row_range(self, hotel_database):
        engine = ShardedSubjectiveQueryEngine(database=hotel_database, num_shards=4)
        for sql in HOTEL_QUERIES[:3]:
            engine.execute(sql)
        engine.execute(HOTEL_QUERIES[0])  # a repeat, so hits move too
        cache = engine.membership_cache
        assert cache.num_partitions == 4
        assert len(cache) > 0
        for key in cache.keys():
            assert cache.peek(key) is not None
        # Partitions are the partition_bounds row ranges of the entity index.
        bounds = partition_bounds(len(hotel_database.entity_ids()), 4)
        entity_ids = hotel_database.entity_ids()
        entries = [0] * 4
        for entity_id, _attribute, _phrase in cache.keys():
            row = entity_ids.index(entity_id)
            entries[next(i for i in range(4) if bounds[i] <= row < bounds[i + 1])] += 1
        partitions = cache.partition_stats()
        assert [partition["entries"] for partition in partitions] == entries
        totals = cache.stats.as_dict()
        assert totals["hits"] > 0 and totals["misses"] > 0
        for field in ("hits", "misses", "evictions"):
            assert sum(partition[field] for partition in partitions) == totals[field]
        assert sum(entries) == len(cache)
        snapshot = engine.stats_snapshot()
        assert snapshot["num_shards"] == 4
        assert snapshot["membership_cache_partitions"] == partitions
        assert set(partitions[0]) == {"entries", "hits", "misses", "evictions", "hit_rate"}


class TestEntityIndex:
    def test_a_candidate_the_database_does_not_list_is_served(self):
        """A row inserted into the entities table directly has no database
        entity: it joins the cache's entity index on first sight and scores
        exactly as the processor scores it, cold and warm."""
        from repro.testing import build_synthetic_columnar_database

        database = build_synthetic_columnar_database(num_entities=30, seed=3)
        table = database.engine.table("entities")
        table.insert({**table.scan()[0], database.schema.entity_key: "stranger"})
        sqls = [
            'select * from Entities where "word001" limit 40',
            'select * from Entities where "word001" and "word004" limit 5',
        ]
        processor = SubjectiveQueryProcessor(database)
        assert "stranger" in processor.execute(sqls[0]).entity_ids
        for engine in (
            SubjectiveQueryEngine(database=database),
            ShardedSubjectiveQueryEngine(database=database, num_shards=2),
        ):
            for sql in sqls + sqls:
                expected = processor.execute(sql)
                assert_identical_results(expected, engine.execute(sql))
            assert engine.membership_cache.num_rows == 31
            assert engine.membership_cache.stats.hits > 0


    def test_a_version_bump_resets_columns_and_index_together(self):
        database = build_mutable_database(num_entities=6)
        engine = ShardedSubjectiveQueryEngine(database=database, num_shards=3)
        engine.execute(INGEST_QUERY)
        cache = engine.membership_cache
        index = cache.row_index
        assert len(cache) > 0 and cache.num_rows == 6
        database.add_entity("h-new", {"city": "rome", "price_pn": 80.0})
        engine.plan(INGEST_QUERY)  # the next use notices the bump
        assert len(cache) == 0
        assert cache.row_index is not index  # rows resolved against the old index are void
        assert cache.ids_of(np.arange(cache.num_rows)) == database.entity_ids()
        assert_identical_results(
            SubjectiveQueryProcessor(database).execute(INGEST_QUERY),
            engine.execute(INGEST_QUERY),
        )


class TestDefaults:
    def test_num_shards_defaults_to_one_per_core(self, hotel_database):
        from repro.serving import default_num_shards

        engine = ShardedSubjectiveQueryEngine(database=hotel_database)
        assert engine.num_shards == default_num_shards() >= 1
        store = ShardedColumnarStore(hotel_database)
        assert store.num_shards == default_num_shards()
