"""Tests for the query interpreter and the subjective query processor.

These run against the session-scoped hotel setup fixture (a small but fully
built subjective database), exercising the full interpretation and query
processing paths.
"""

import struct

import pytest

from repro.core.interpreter import (
    InterpretationMethod,
    SubjectiveQueryInterpreter,
    best_variation_by_scan,
)
from repro.core.membership import RawExtractionMembership
from repro.core.processor import SubjectiveQueryProcessor
from repro.core.query import SubjectiveQueryBuilder
from repro.errors import ExecutionError


class TestInterpreter:
    def test_in_schema_predicate_uses_word2vec(self, hotel_database):
        interpreter = SubjectiveQueryInterpreter(hotel_database)
        interpretation = interpreter.interpret("spotless room")
        assert interpretation.method is InterpretationMethod.WORD2VEC
        assert interpretation.pairs
        assert interpretation.confidence > 0.5

    def test_cleanliness_predicate_maps_to_cleanliness_attribute(self, hotel_database):
        interpreter = SubjectiveQueryInterpreter(hotel_database)
        interpretation = interpreter.interpret("has really clean rooms")
        assert interpretation.top_attribute == "room_cleanliness"

    def test_marker_belongs_to_attribute(self, hotel_database):
        interpreter = SubjectiveQueryInterpreter(hotel_database)
        interpretation = interpreter.interpret("delicious breakfast")
        attribute = hotel_database.schema.subjective(interpretation.pairs[0].attribute)
        assert attribute.has_marker(interpretation.pairs[0].marker)

    def test_out_of_schema_predicate_falls_back(self, hotel_database):
        interpreter = SubjectiveQueryInterpreter(hotel_database, w2v_threshold=0.9)
        interpretation = interpreter.interpret("good for stargazing from the rooftop")
        assert interpretation.method in (
            InterpretationMethod.COOCCURRENCE, InterpretationMethod.TEXT_RETRIEVAL
        )

    def test_gibberish_falls_back_to_text_retrieval(self, hotel_database):
        interpreter = SubjectiveQueryInterpreter(
            hotel_database, w2v_threshold=0.99, cooccurrence_threshold=0.99
        )
        interpretation = interpreter.interpret("zorblax flumph quizzle")
        assert interpretation.method is InterpretationMethod.TEXT_RETRIEVAL
        assert not interpretation.is_schema_interpretation

    def test_interpretation_is_cached(self, hotel_database):
        interpreter = SubjectiveQueryInterpreter(hotel_database)
        first = interpreter.interpret("clean room")
        second = interpreter.interpret("clean room")
        assert first is second

    def test_invalidate_clears_cache(self, hotel_database):
        interpreter = SubjectiveQueryInterpreter(hotel_database)
        first = interpreter.interpret("clean room")
        interpreter.invalidate()
        assert interpreter.interpret("clean room") is not first

    def test_cooccurrence_produces_pairs(self, hotel_database):
        interpreter = SubjectiveQueryInterpreter(hotel_database)
        interpretation = interpreter.interpret_cooccurrence("clean room")
        if interpretation is not None:
            assert interpretation.method is InterpretationMethod.COOCCURRENCE
            assert 1 <= len(interpretation.pairs) <= interpreter.top_n_attributes

    def test_fast_index_agrees_with_brute_force(self, hotel_database):
        brute = SubjectiveQueryInterpreter(hotel_database, use_fast_index=False)
        indexed = SubjectiveQueryInterpreter(hotel_database, use_fast_index=True)
        for predicate in ("very clean room", "friendly staff", "quiet room"):
            a = brute.interpret_word2vec(predicate)
            b = indexed.interpret_word2vec(predicate)
            assert a.top_attribute == b.top_attribute


class TestWord2vecScreen:
    """The screened word2vec method answers exactly as the scalar scan over every variation."""

    @pytest.fixture(params=["hotel_database", "restaurant_database", "synthetic"])
    def database(self, request):
        if request.param == "synthetic":
            from repro.testing import build_synthetic_columnar_database

            return build_synthetic_columnar_database(num_entities=60, seed=3)
        return request.getfixturevalue(request.param)

    def test_every_interpretation_matches_the_scalar_scan(self, database):
        interpreter = SubjectiveQueryInterpreter(database)
        interpreter._ensure_variation_lookup()
        variations = list(interpreter._variation_owner)
        embedder = database.phrase_embedder
        zero = "zorblax flumph quizzle"
        assert not embedder.represent(zero).any()
        predicates = [
            *variations,
            *(
                f"{variation} {variations[(7 * index + 3) % len(variations)]}"
                for index, variation in enumerate(variations[:40])
            ),
            f"really {variations[0]}",
            zero,
        ]
        for predicate in predicates:
            got = interpreter.interpret_word2vec(predicate)
            variation, similarity = best_variation_by_scan(embedder, predicate, variations)
            assert got.matched_variation == variation, predicate
            assert struct.pack("<d", got.confidence) == struct.pack("<d", similarity), predicate
            assert got.pairs[0].attribute == interpreter._variation_owner[variation][0][0]

    def test_the_screen_follows_invalidate(self, hotel_database):
        interpreter = SubjectiveQueryInterpreter(hotel_database)
        interpreter.interpret_word2vec("clean room")
        screen = interpreter._variation_units
        interpreter.invalidate()
        interpreter.interpret_word2vec("clean room")
        assert interpreter._variation_units is not screen


class TestProcessor:
    def test_returns_requested_top_k(self, hotel_database):
        processor = SubjectiveQueryProcessor(hotel_database)
        result = processor.execute('select * from Entities where "clean room"', top_k=5)
        assert len(result) == 5

    def test_limit_clause_wins(self, hotel_database):
        processor = SubjectiveQueryProcessor(hotel_database)
        result = processor.execute('select * from Entities where "clean room" limit 3')
        assert len(result) == 3

    def test_scores_sorted_descending(self, hotel_database):
        processor = SubjectiveQueryProcessor(hotel_database)
        result = processor.execute('select * from Entities where "friendly staff"', top_k=10)
        scores = [entity.score for entity in result]
        assert scores == sorted(scores, reverse=True)

    def test_scores_in_unit_interval(self, hotel_database):
        processor = SubjectiveQueryProcessor(hotel_database)
        result = processor.execute(
            'select * from Entities where "clean room" and "quiet room"', top_k=10
        )
        assert all(0.0 <= entity.score <= 1.0 for entity in result)

    def test_objective_filter_is_crisp(self, hotel_database):
        processor = SubjectiveQueryProcessor(hotel_database)
        result = processor.execute(
            'select * from Entities where city = \'london\' and "clean room"', top_k=20
        )
        assert all(entity.row["city"] == "london" for entity in result)

    def test_ranking_correlates_with_ground_truth(self, hotel_setup):
        processor = SubjectiveQueryProcessor(hotel_setup.database)
        result = processor.execute('select * from Entities where "spotless room"', top_k=100)
        ids = result.entity_ids
        top_quality = sum(hotel_setup.corpus.quality(e, "room_cleanliness") for e in ids[:3]) / 3
        bottom_quality = sum(hotel_setup.corpus.quality(e, "room_cleanliness") for e in ids[-3:]) / 3
        assert top_quality > bottom_quality

    def test_interpretations_exposed(self, hotel_database):
        processor = SubjectiveQueryProcessor(hotel_database)
        result = processor.execute('select * from Entities where "clean room"', top_k=3)
        assert "clean room" in result.interpretations

    def test_query_via_schema_table_name(self, hotel_database):
        processor = SubjectiveQueryProcessor(hotel_database)
        result = processor.execute('select * from Hotels where "clean room"', top_k=3)
        assert len(result) == 3

    def test_pure_objective_query(self, hotel_database):
        processor = SubjectiveQueryProcessor(hotel_database)
        result = processor.execute("select * from Entities where price_pn < 10000", top_k=4)
        assert all(entity.score == 1.0 for entity in result)

    def test_predicate_degrees_recorded(self, hotel_database):
        processor = SubjectiveQueryProcessor(hotel_database)
        result = processor.execute(
            'select * from Entities where "clean room" and "friendly staff"', top_k=2
        )
        top = result.entities[0]
        assert set(top.predicate_degrees) == {"clean room", "friendly staff"}

    def test_explain_returns_evidence(self, hotel_database):
        processor = SubjectiveQueryProcessor(hotel_database)
        result = processor.execute('select * from Entities where "clean room"', top_k=1)
        lines = processor.explain(result, result.entity_ids[0])
        assert isinstance(lines, list)

    def test_no_markers_requires_raw_membership(self, hotel_database):
        with pytest.raises(ExecutionError):
            SubjectiveQueryProcessor(hotel_database, use_markers=False)

    def test_no_marker_variant_runs(self, hotel_setup):
        database = hotel_setup.database
        bank = [p for p in hotel_setup.predicate_bank if p.in_schema][:20]
        examples = []
        for index, predicate in enumerate(bank):
            entity = hotel_setup.corpus.entities[index % len(hotel_setup.corpus.entities)]
            examples.append(
                (entity.entity_id, predicate.primary_attribute, predicate.text,
                 hotel_setup.oracle(predicate, entity.entity_id))
            )
        if len({label for *_x, label in examples}) < 2:
            pytest.skip("sampled labels degenerate for this seed")
        raw = RawExtractionMembership(database=database,
                                      embedder=database.phrase_embedder).fit(examples)
        processor = SubjectiveQueryProcessor(database, use_markers=False, raw_membership=raw)
        result = processor.execute('select * from Entities where "clean room"', top_k=5)
        assert len(result) == 5


class TestQueryBuilder:
    def test_round_trip_through_parser(self, hotel_database):
        sql = (
            SubjectiveQueryBuilder("Entities")
            .where_compare("price_pn", "<", 400)
            .where_equals("city", "london")
            .where_subjective("has really clean rooms")
            .limit(5)
            .to_sql()
        )
        processor = SubjectiveQueryProcessor(hotel_database)
        result = processor.execute(sql)
        assert len(result) <= 5

    def test_builder_validations(self):
        builder = SubjectiveQueryBuilder("Entities")
        with pytest.raises(ValueError):
            builder.where_compare("a", "~", 1)
        with pytest.raises(ValueError):
            builder.where_subjective("   ")
        with pytest.raises(ValueError):
            builder.where_in("a", [])
        with pytest.raises(ValueError):
            builder.limit(0)

    def test_builder_renders_all_clauses(self):
        sql = (
            SubjectiveQueryBuilder("Entities", alias="h")
            .where_in("city", ["london", "paris"])
            .where_between("price_pn", 50, 100)
            .where_subjective("quiet room")
            .order_by("price_pn", descending=True)
            .limit(3)
            .to_sql()
        )
        assert "in ('london', 'paris')" in sql
        assert "between 50 and 100" in sql
        assert '"quiet room"' in sql
        assert "order by price_pn desc" in sql
        assert sql.endswith("limit 3")
