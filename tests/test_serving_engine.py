"""Tests for the serving engine: cache accounting, invalidation, batch identity."""

import pytest

from repro.core import SubjectiveQueryProcessor
from repro.core.attributes import ObjectiveAttribute, SubjectiveAttribute, SubjectiveSchema
from repro.core.database import ReviewRecord, SubjectiveDatabase
from repro.core.markers import Marker, MarkerSummary
from repro.engine.types import ColumnType
from repro.errors import ExecutionError
from repro.serving import SubjectiveQueryEngine

QUERIES = [
    'select * from Entities where "has really clean rooms" limit 5',
    'select * from Entities where city = \'london\' and "friendly staff" limit 5',
    'select * from Entities where "quiet comfortable rooms" and "great breakfast" limit 8',
]


@pytest.fixture(scope="module")
def tiny_database():
    """A minimal hand-built database: summaries, variation markers, text models."""
    schema = SubjectiveSchema(
        name="hotels",
        entity_key="hotelname",
        objective_attributes=[
            ObjectiveAttribute("city", ColumnType.TEXT),
            ObjectiveAttribute("price_pn", ColumnType.FLOAT),
        ],
        subjective_attributes=[
            SubjectiveAttribute(
                name="room_cleanliness",
                markers=[Marker("clean", 0, 0.7), Marker("dirty", 1, -0.7)],
            ),
        ],
    )
    database = SubjectiveDatabase(schema, embedding_dimension=12)
    texts = [
        "the room was very clean and the staff was friendly",
        "dirty room with a bad smell and rude staff",
        "spotless clean room and a great location",
        "the room was clean and the breakfast was good",
    ]
    review_id = 0
    for index in range(4):
        entity = f"h{index}"
        database.add_entity(entity, {"city": "london" if index % 2 else "paris",
                                     "price_pn": 100.0 + index})
        for text in texts:
            database.add_review(ReviewRecord(review_id, entity, text))
            review_id += 1
        database.add_extraction(entity, review_id - 1, texts[0], "room", "clean",
                                "room_cleanliness", marker="clean", sentiment=0.7)
        summary = MarkerSummary("room_cleanliness",
                                [Marker("clean", 0, 0.7), Marker("dirty", 1, -0.7)])
        summary.add_phrase("clean" if index % 2 else "dirty", sentiment=0.5 if index % 2 else -0.5)
        database.store_summary(entity, summary)
    database.set_variation_marker("room_cleanliness", "clean room", "clean")
    database.fit_text_models()
    return database


class TestPlanCache:
    def test_repeated_query_hits_plan_cache(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)
        engine.execute(QUERIES[0])
        assert engine.plan_cache.stats.misses == 1
        engine.execute(QUERIES[0])
        assert engine.plan_cache.stats.hits == 1
        assert engine.plan_cache.stats.misses == 1

    def test_formatting_variants_share_one_plan(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)
        engine.execute('select * from Entities where "has really clean rooms" limit 5')
        engine.execute('SELECT *  FROM  Entities WHERE "has really clean rooms" LIMIT 5')
        assert len(engine.plan_cache) == 1
        assert engine.plan_cache.stats.hits == 1

    def test_column_case_variants_do_not_share_a_plan(self, hotel_database):
        # A mis-cased column must fail through the engine exactly as it does
        # through the processor — not silently reuse the lowercase plan.
        engine = SubjectiveQueryEngine(database=hotel_database)
        engine.execute('select * from Entities where city = \'london\' and "clean rooms"')
        with pytest.raises(ExecutionError):
            engine.execute('select * from Entities where City = \'london\' and "clean rooms"')

    def test_plan_cache_lru_eviction(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database, plan_cache_size=2)
        for sql in QUERIES:
            engine.execute(sql)
        assert len(engine.plan_cache) == 2
        assert engine.plan_cache.stats.evictions == 1
        # The evicted (oldest) plan is rebuilt on the next request.
        engine.execute(QUERIES[0])
        assert engine.plan_cache.stats.misses == len(QUERIES) + 1


class TestMembershipCache:
    def test_warm_query_is_all_hits(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)
        engine.execute(QUERIES[2])
        misses_after_cold = engine.membership_cache.stats.misses
        assert misses_after_cold > 0
        engine.execute(QUERIES[2])
        assert engine.membership_cache.stats.misses == misses_after_cold
        assert engine.membership_cache.stats.hits == misses_after_cold

    def test_distinct_predicates_do_not_collide(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)
        engine.execute(QUERIES[0])
        first = engine.membership_cache.stats.misses
        engine.execute(QUERIES[1])
        assert engine.membership_cache.stats.misses > first


class TestInvalidation:
    def test_ingest_invalidates_caches(self, tiny_database):
        engine = SubjectiveQueryEngine(database=tiny_database)
        engine.execute(QUERIES[0])
        assert len(engine.plan_cache) == 1
        next_id = max(review.review_id for review in tiny_database.reviews()) + 1
        tiny_database.add_review(
            ReviewRecord(next_id, "h0", "the room was very clean again")
        )
        engine.execute(QUERIES[0])
        assert engine.stats.invalidations == 1
        # The old plan and degrees were dropped and rebuilt once.
        assert engine.plan_cache.stats.misses == 2
        assert len(engine.plan_cache) == 1

    def test_store_summary_invalidates(self, tiny_database):
        engine = SubjectiveQueryEngine(database=tiny_database)
        engine.execute(QUERIES[0])
        summary = MarkerSummary("room_cleanliness",
                                [Marker("clean", 0, 0.7), Marker("dirty", 1, -0.7)])
        summary.add_phrase("clean", sentiment=0.9)
        tiny_database.store_summary("h1", summary)
        engine.execute(QUERIES[0])
        assert engine.stats.invalidations == 1

    def test_results_correct_after_invalidation(self, tiny_database):
        engine = SubjectiveQueryEngine(database=tiny_database)
        engine.execute(QUERIES[0])
        next_id = max(review.review_id for review in tiny_database.reviews()) + 1
        tiny_database.add_review(ReviewRecord(next_id, "h1", "very clean room"))
        warm = engine.execute(QUERIES[0])
        fresh = SubjectiveQueryProcessor(tiny_database).execute(QUERIES[0])
        assert warm.entity_ids == fresh.entity_ids
        assert [entity.score for entity in warm] == [entity.score for entity in fresh]


class TestCandidateSharing:
    """One ``CandidateSet`` per objective skeleton, not per SQL string."""

    BASE = "select * from Entities where city = 'paris' and \"word001\" and \"word002\" limit 5"

    @pytest.fixture()
    def database(self):
        from repro.testing import build_synthetic_columnar_database

        return build_synthetic_columnar_database(num_entities=60, seed=5)

    def test_queries_differing_only_in_phrases_share_one_set(self, database):
        engine = SubjectiveQueryEngine(database=database)
        first = engine.plan(self.BASE)
        second = engine.plan(
            "select * from Entities where city = 'paris' and \"word003\" and \"word004\" limit 3"
        )
        assert first is not second and first.candidate_key == second.candidate_key
        shared = engine._candidate_rows(first)
        assert engine.candidate_cache.stats.hits == 0
        assert engine._candidate_rows(second) is shared
        assert engine.candidate_cache.stats.hits == 1
        assert len(engine.candidate_cache) == 1

    @pytest.mark.parametrize(
        "variant",
        [
            BASE.replace("'paris'", "'rome'"),  # objective literal
            BASE.replace("city = 'paris'", "city != 'paris'"),  # operator
            BASE.replace("Entities where city", "Entities e where e.city"),  # alias
            BASE.replace(
                "Entities where city", "Entities e join Entities f on e.eid = f.eid where e.city"
            ),  # join
            BASE.replace(" and \"word002\"", " or \"word002\""),  # connective
        ],
    )
    def test_a_different_objective_skeleton_does_not_share(self, database, variant):
        engine = SubjectiveQueryEngine(database=database)
        fresh = SubjectiveQueryProcessor(database)
        for sql in (self.BASE, variant):
            assert engine.execute(sql).entity_ids == fresh.execute(sql).entity_ids
        assert engine.plan(self.BASE).candidate_key != engine.plan(variant).candidate_key
        assert engine.candidate_cache.stats.hits == 0
        assert len(engine.candidate_cache) == 2

    def test_shared_set_serves_results_equal_to_the_processor(self, database):
        engine = SubjectiveQueryEngine(database=database)
        fresh = SubjectiveQueryProcessor(database)
        for a, b in [("word001", "word002"), ("word005", "word020"), ("word017", "word003")]:
            sql = f"select * from Entities where price < 120 and \"{a}\" and \"{b}\" limit 6"
            served, expected = engine.execute(sql), fresh.execute(sql)
            assert served.entity_ids == expected.entity_ids
            assert [e.score for e in served] == [e.score for e in expected]
            assert [e.row for e in served] == [e.row for e in expected]
        assert engine.candidate_cache.stats.misses == 1
        assert engine.candidate_cache.stats.hits == 2

    def test_ingest_drops_the_set(self, database):
        engine = SubjectiveQueryEngine(database=database)
        before = engine._candidate_rows(engine.plan(self.BASE))
        database.add_entity("paris-newcomer", {"city": "paris", "price": 75.0})
        after = engine._candidate_rows(engine.plan(self.BASE))
        assert after is not before
        assert len(after.rows) == len(before.rows) + 1
        assert engine.candidate_cache.stats.hits == 0

    def test_negated_phrases_share_a_set_and_still_match_the_processor(self, database):
        """``… and not "x"`` selects zero rows today (a negated subjective leaf
        is objectively ``False``); sharing must not change that."""
        engine = SubjectiveQueryEngine(database=database)
        fresh = SubjectiveQueryProcessor(database)
        sqls = [
            f"select * from Entities where city = 'paris' and not \"{phrase}\" limit 5"
            for phrase in ("word001", "word002")
        ]
        for sql in sqls:
            assert engine.execute(sql).entity_ids == fresh.execute(sql).entity_ids == []
        assert engine.candidate_cache.stats.hits == 1
        assert len(engine.candidate_cache) == 1


class TestBatchIdentity:
    def test_run_batch_matches_sequential_processor(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)
        batch = engine.run_batch(QUERIES)
        processor = SubjectiveQueryProcessor(hotel_database)
        for sql, warm in zip(QUERIES, batch.results):
            cold = processor.execute(sql)
            assert warm.entity_ids == cold.entity_ids
            assert [entity.score for entity in warm] == [entity.score for entity in cold]
            for warm_entity, cold_entity in zip(warm, cold):
                assert warm_entity.predicate_degrees == cold_entity.predicate_degrees

    def test_second_batch_is_served_from_caches(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)
        engine.run_batch(QUERIES)
        second = engine.run_batch(QUERIES)
        assert second.cache_stats["plan_misses"] == 0
        assert second.cache_stats["membership_misses"] == 0
        assert second.cache_stats["candidate_misses"] == 0
        assert second.cache_stats["plan_hits"] == len(QUERIES)

    def test_batch_result_shape(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)
        batch = engine.run_batch(QUERIES)
        assert len(batch) == len(QUERIES)
        assert len(batch.latencies) == len(QUERIES)
        assert all(latency >= 0.0 for latency in batch.latencies)
        assert batch.queries_per_second > 0.0


class TestBatchScoringPrimitives:
    def test_membership_degrees_match_scalar_degree(self, hotel_database):
        membership = SubjectiveQueryProcessor(hotel_database).membership
        attribute = hotel_database.schema.subjective_attributes[0].name
        summaries = [
            hotel_database.marker_summary(entity_id, attribute)
            for entity_id in hotel_database.entity_ids()
        ]
        batch = membership.degrees(summaries, "really clean rooms")
        scalar = [membership.degree(summary, "really clean rooms") for summary in summaries]
        assert list(batch) == scalar

    def test_engine_requires_database_or_processor(self):
        with pytest.raises(ValueError):
            SubjectiveQueryEngine()

    def test_stats_snapshot_structure(self, hotel_database):
        engine = SubjectiveQueryEngine(database=hotel_database)
        engine.execute(QUERIES[0])
        snapshot = engine.stats_snapshot()
        assert snapshot["queries"] == 1
        assert snapshot["total_seconds"] > 0.0
        for cache in ("plan_cache", "membership_cache", "candidate_cache"):
            assert set(snapshot[cache]) == {"hits", "misses", "evictions", "hit_rate"}
