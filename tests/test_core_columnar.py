"""Tests for the columnar summary store and vectorized scoring kernels.

The contract under test: the columnar cold path computes the same degrees
as the scalar per-entity path (``np.allclose`` at ``atol=1e-9``) and the
same rankings exactly, across the hotel and restaurant fixtures; and the
store invalidates itself whenever :attr:`SubjectiveDatabase.data_version`
moves.
"""

import numpy as np
import pytest

from repro.core import (
    ColumnarSummaryStore,
    HeuristicMembership,
    LearnedMembership,
    SubjectiveQueryProcessor,
    summary_feature_matrix,
    summary_feature_vector,
)
from repro.core import columnar
from repro.core.attributes import SubjectiveAttribute, SubjectiveSchema
from repro.core.database import ReviewRecord, SubjectiveDatabase
from repro.core.markers import Marker, MarkerSummary
from repro.core.processor import RankedEntity, _top_ranked
from repro.text.bm25 import Bm25Index

PHRASES = [
    "really clean rooms",
    "terrible dirty rooms",
    "friendly staff",
    "average experience",
    "absolutely wonderful",
]

HOTEL_QUERIES = [
    'select * from Entities where "has really clean rooms" limit 6',
    'select * from Entities where "friendly staff" and "great breakfast" limit 8',
    'select * from Entities where stars >= 2 and "quiet comfortable rooms" limit 5',
    'select * from Entities where "zorblatt frimble quux" limit 6',
]

RESTAURANT_QUERIES = [
    'select * from Entities where "delicious food" limit 6',
    'select * from Entities where "friendly service" and "cozy ambience" limit 8',
    'select * from Entities where "zorblatt frimble quux" limit 6',
]


def _scalar_and_columnar(database):
    return (
        SubjectiveQueryProcessor(database, use_columnar=False),
        SubjectiveQueryProcessor(database),
    )


def _assert_paths_agree(database, queries):
    scalar, columnar = _scalar_and_columnar(database)
    entity_ids = database.entity_ids()

    for attribute in database.schema.subjective_names:
        for phrase in PHRASES:
            scalar_degrees = np.array(scalar.pair_degrees(entity_ids, attribute, phrase))
            columnar_degrees = np.array(
                columnar.pair_degrees(entity_ids, attribute, phrase)
            )
            assert np.allclose(scalar_degrees, columnar_degrees, atol=1e-9), (
                attribute,
                phrase,
            )

    for sql in queries:
        scalar_result = scalar.execute(sql)
        columnar_result = columnar.execute(sql)
        assert columnar_result.entity_ids == scalar_result.entity_ids, sql
        assert np.allclose(
            [entity.score for entity in columnar_result],
            [entity.score for entity in scalar_result],
            atol=1e-9,
        ), sql


class TestColumnarMatchesScalar:
    def test_hotels_degrees_and_rankings(self, hotel_database):
        _assert_paths_agree(hotel_database, HOTEL_QUERIES)

    def test_restaurants_degrees_and_rankings(self, restaurant_database):
        _assert_paths_agree(restaurant_database, RESTAURANT_QUERIES)

    def test_learned_membership_columnar_matches_scalar(self, hotel_database):
        attribute = hotel_database.schema.subjective_names[0]
        membership = _fitted_learned_membership(hotel_database, attribute)
        scalar = SubjectiveQueryProcessor(
            hotel_database, membership=membership, use_columnar=False
        )
        columnar = SubjectiveQueryProcessor(hotel_database, membership=membership)
        entity_ids = hotel_database.entity_ids()
        for phrase in PHRASES:
            assert np.allclose(
                scalar.pair_degrees(entity_ids, attribute, phrase),
                columnar.pair_degrees(entity_ids, attribute, phrase),
                atol=1e-9,
            )

    def test_summary_feature_matrix_rows_match_feature_vectors(self, hotel_database):
        store = ColumnarSummaryStore(hotel_database)
        embedder = hotel_database.phrase_embedder
        for attribute in hotel_database.schema.subjective_names[:2]:
            columns = store.columns(attribute)
            assert columns is not None
            for phrase in PHRASES[:2]:
                matrix = summary_feature_matrix(
                    columns,
                    embedder.represent(phrase),
                    phrase_sentiment=_phrase_sentiment(phrase),
                )
                assert matrix.shape == (columns.num_entities, 12)
                for row, entity_id in enumerate(columns.entity_ids):
                    summary = hotel_database.marker_summary(entity_id, attribute)
                    expected = summary_feature_vector(summary, phrase, embedder)
                    assert np.allclose(matrix[row], expected, atol=1e-9)


def _phrase_sentiment(phrase):
    from repro.core.membership import _phrase_polarity

    return _phrase_polarity(phrase)


def _fitted_learned_membership(database, attribute):
    heuristic = HeuristicMembership(embedder=database.phrase_embedder)
    summaries = list(database.summaries_for_attribute(attribute).values())
    degrees = heuristic.degrees(summaries, "really clean rooms")
    median = float(np.median(degrees))
    labels = [1 if degree > median else 0 for degree in degrees]
    if len(set(labels)) < 2:  # degenerate fixture guard
        labels[0] = 1 - labels[0]
    examples = [
        (summary, "really clean rooms", label)
        for summary, label in zip(summaries, labels)
    ]
    return LearnedMembership(embedder=database.phrase_embedder).fit(examples)


class TestLearnedMembershipBatch:
    def test_degrees_match_scalar_loop(self, hotel_database):
        attribute = hotel_database.schema.subjective_names[0]
        membership = _fitted_learned_membership(hotel_database, attribute)
        summaries = [
            hotel_database.marker_summary(entity_id, attribute)
            for entity_id in hotel_database.entity_ids()
        ] + [None]
        batch = membership.degrees(summaries, "spotless rooms")
        scalar = [membership.degree(summary, "spotless rooms") for summary in summaries]
        assert np.allclose(batch, scalar, atol=1e-12)
        assert batch[-1] == 0.25

    def test_degrees_require_fit(self):
        from repro.errors import NotFittedError

        with pytest.raises(NotFittedError):
            LearnedMembership(embedder=None).degrees([None], "clean")


def _tiny_database():
    markers = [Marker("clean", 0, 0.7), Marker("dirty", 1, -0.7)]
    schema = SubjectiveSchema(
        name="hotels",
        entity_key="hotelname",
        subjective_attributes=[
            SubjectiveAttribute(name="room_cleanliness", markers=list(markers)),
        ],
    )
    database = SubjectiveDatabase(schema, embedding_dimension=8)
    for index in range(4):
        entity = f"h{index}"
        database.add_entity(entity)
        summary = MarkerSummary("room_cleanliness", list(markers))
        summary.add_phrase(
            "clean" if index % 2 else "dirty", sentiment=0.6 if index % 2 else -0.6
        )
        database.store_summary(entity, summary)
    return database, markers


class TestStoreLifecycle:
    def test_ingest_bumps_version_and_rebuilds(self):
        database, _markers = _tiny_database()
        store = ColumnarSummaryStore(database)
        first = store.columns("room_cleanliness")
        assert first is not None and first.num_entities == 4
        assert store.columns("room_cleanliness") is first  # cached while version holds

        version_before = database.data_version
        database.add_entity("h9")
        database.add_review(ReviewRecord(0, "h9", "a very clean room"))
        assert database.data_version > version_before

        second = store.columns("room_cleanliness")
        assert second is not None and second is not first
        assert store.invalidations >= 1
        assert store.data_version == database.data_version

    def test_new_summary_appears_after_rebuild(self):
        database, markers = _tiny_database()
        store = ColumnarSummaryStore(database)
        assert "h4" not in store.columns("room_cleanliness").row_of
        database.add_entity("h4")
        summary = MarkerSummary("room_cleanliness", list(markers))
        summary.add_phrase("clean", sentiment=0.9)
        database.store_summary("h4", summary)
        columns = store.columns("room_cleanliness")
        assert "h4" in columns.row_of
        row = columns.row_of["h4"]
        assert columns.totals[row] == 1.0

    def test_unknown_attribute_has_no_columns(self):
        database, _markers = _tiny_database()
        store = ColumnarSummaryStore(database)
        assert store.columns("no_such_attribute") is None

    def test_missing_entity_falls_back_to_scalar(self):
        database, _markers = _tiny_database()
        database.add_entity("h7")  # entity with no stored summary
        processor = SubjectiveQueryProcessor(database)
        degrees = processor.pair_degrees(
            ["h0", "h7"], "room_cleanliness", "clean room"
        )
        membership = processor.membership
        assert degrees[1] == membership.empty_degree
        scalar = SubjectiveQueryProcessor(database, use_columnar=False)
        assert np.allclose(
            degrees, scalar.pair_degrees(["h0", "h7"], "room_cleanliness", "clean room"),
            atol=1e-9,
        )

    def test_nonconforming_summary_excluded_but_scored(self):
        database, _markers = _tiny_database()
        other = [Marker("clean", 0, 0.2), Marker("dirty", 1, -0.2)]
        rogue = MarkerSummary("room_cleanliness", other)
        rogue.add_phrase("clean", sentiment=0.4)
        database.add_entity("h8")
        database.store_summary("h8", rogue)
        store = ColumnarSummaryStore(database)
        columns = store.columns("room_cleanliness")
        assert "h8" not in columns.row_of
        processor = SubjectiveQueryProcessor(database, columnar_store=store)
        scalar = SubjectiveQueryProcessor(database, use_columnar=False)
        ids = ["h0", "h8"]
        assert np.allclose(
            processor.pair_degrees(ids, "room_cleanliness", "clean room"),
            scalar.pair_degrees(ids, "room_cleanliness", "clean room"),
            atol=1e-9,
        )

    def test_foreign_embedder_membership_takes_scalar_path(self, small_embedder):
        # The columns were built from the database's embedder (none here); a
        # membership scoring with any other embedder must bypass the columnar
        # route so its degrees stay identical to the scalar path.
        database, _markers = _tiny_database()
        membership = HeuristicMembership(embedder=small_embedder)
        store = ColumnarSummaryStore(database)
        ids = database.entity_ids()
        assert store.pair_degrees(membership, ids, "room_cleanliness", "clean room") is None
        columnar = SubjectiveQueryProcessor(database, membership=membership)
        scalar = SubjectiveQueryProcessor(
            database, membership=membership, use_columnar=False
        )
        assert columnar.pair_degrees(ids, "room_cleanliness", "clean room") == \
            scalar.pair_degrees(ids, "room_cleanliness", "clean room")

    def test_small_subset_uses_sliced_kernel_with_equal_degrees(self, hotel_database):
        # Fewer than a quarter of the rows → the kernel runs over a row
        # gather; the per-entity arithmetic is row-independent, so degrees
        # must equal the full-batch pass entry for entry.
        processor = SubjectiveQueryProcessor(hotel_database)
        attribute = hotel_database.schema.subjective_names[0]
        all_ids = hotel_database.entity_ids()
        subset = [all_ids[3], all_ids[0]]
        assert len(subset) * 4 < len(all_ids)
        full = dict(zip(all_ids, processor.pair_degrees(all_ids, attribute, "clean room")))
        sliced = processor.pair_degrees(subset, attribute, "clean room")
        assert sliced == [full[entity_id] for entity_id in subset]

    def test_engine_snapshot_reports_columnar_store(self, hotel_database):
        from repro.serving import SubjectiveQueryEngine

        engine = SubjectiveQueryEngine(database=hotel_database)
        engine.execute('select * from Entities where "has really clean rooms" limit 5')
        snapshot = engine.stats_snapshot()
        columnar = snapshot["columnar_store"]
        assert columnar is not None
        assert columnar["builds"] >= 1
        assert columnar["data_version"] == hotel_database.data_version


class TestBlockedScoreBounds:
    @pytest.mark.parametrize("fixture_name", ["hotel_database", "restaurant_database"])
    def test_blocked_deviations_equal_one_shot(self, request, monkeypatch, fixture_name):
        """Row blocks change the memory high-water mark, never a bit."""
        database = request.getfixturevalue(fixture_name)
        store = ColumnarSummaryStore(database)
        checked = 0
        for attribute in database.schema.subjective_attributes:
            columns = store.columns(attribute.name)
            if columns is None or not columns.dimension:
                continue
            # The pre-blocking formula, kept here as the reference.
            one_shot = np.where(
                np.linalg.norm(columns.centroids_unit, axis=-1) == 0.0,
                0.0,
                np.linalg.norm(
                    columns.centroids_unit - columns.name_units[np.newaxis, :, :], axis=-1
                ),
            )
            for block_rows in (1, 5, columnar.BOUNDS_BLOCK_ROWS):
                monkeypatch.setattr(columnar, "BOUNDS_BLOCK_ROWS", block_rows)
                blocked = columnar.ScoreBounds.of_columns(columns).deviations.T
                assert blocked.shape == one_shot.shape
                assert (blocked == one_shot).all(), (attribute.name, block_rows)
            checked += 1
        assert checked > 0


class TestEnvelopeCacheIsBounded:
    """``degree_envelope`` keeps ``ENVELOPE_CACHE_ENTRIES`` conditions, LRU."""

    @pytest.fixture()
    def database(self):
        from repro.testing import build_synthetic_columnar_database

        return build_synthetic_columnar_database(num_entities=40, seed=3)

    def test_many_distinct_phrases_stay_within_the_budget(self, database):
        store = ColumnarSummaryStore(database)
        membership = SubjectiveQueryProcessor(database).membership
        budget = columnar.ENVELOPE_CACHE_ENTRIES
        phrases = [f"word{index % 120:03d} word{index // 120:03d}" for index in range(5 * budget)]
        first = store.degree_envelope(membership, "quality", phrases[0])
        assert first is not None
        for phrase in phrases[1:]:
            store.degree_envelope(membership, "quality", phrase)
            assert len(store._envelopes) <= budget
        assert len(store._envelopes) == budget
        assert ("quality", phrases[0]) not in store._envelopes  # evicted long ago
        again = store.degree_envelope(membership, "quality", phrases[0])
        assert all((got == want).all() for got, want in zip(again, first))

    def test_a_reread_envelope_survives_newer_ones(self, database):
        store = ColumnarSummaryStore(database)
        membership = SubjectiveQueryProcessor(database).membership
        kept = store.degree_envelope(membership, "quality", "word001")
        for index in range(columnar.ENVELOPE_CACHE_ENTRIES - 1):
            store.degree_envelope(membership, "service", f"word{index:03d} filler")
            assert store.degree_envelope(membership, "quality", "word001") is kept

    def test_an_ingest_drops_what_it_touched(self, database):
        store = ColumnarSummaryStore(database)
        membership = SubjectiveQueryProcessor(database).membership
        kept = {
            name: store.degree_envelope(membership, name, "word001")
            for name in ("quality", "service")
        }
        quality, service = store.columns("quality"), store.columns("service")
        builds = store.builds

        # A review replaces no summary: every object survives.
        database.add_review(ReviewRecord(99_999, "e00000", "word001 again"))
        for name, envelope in kept.items():
            assert store.degree_envelope(membership, name, "word001") is envelope
        assert store.columns("quality") is quality
        assert store.columns("service") is service

        # A replaced summary costs its own attribute's envelopes only.
        attribute = database.schema.subjective("quality")
        summary = MarkerSummary("quality", list(attribute.markers))
        summary.add_phrase(attribute.markers[0].name, sentiment=0.9)
        database.store_summary("e00000", summary)
        assert store.degree_envelope(membership, "quality", "word001") is not kept["quality"]
        assert store.degree_envelope(membership, "service", "word001") is kept["service"]
        assert store.columns("quality") is not quality
        assert store.columns("service") is service
        assert store.builds == builds and store.invalidations == 0
        assert (store.patches, store.rows_patched) == (1, 1)


class TestBatchedBm25:
    def test_scores_match_scalar_exactly(self):
        index = Bm25Index()
        index.add_document("a", "the room was very clean and bright")
        index.add_document("b", "dirty room with clean towels")
        index.add_document("c", "breakfast was great")
        doc_ids = ["a", "b", "c", "missing"]
        for query in ("clean room", "great breakfast room", "unseen tokens"):
            batch = index.scores(doc_ids, query)
            scalar = [index.score(doc_id, query) for doc_id in doc_ids]
            assert batch == scalar

    def test_empty_inputs(self):
        index = Bm25Index()
        assert index.scores([], "clean") == []
        index.add_document("a", "clean room")
        assert index.scores(["a"], "") == [0.0]

    def test_empty_document_with_b_one_scores_zero(self):
        # With b == 1.0 an empty document's length normalisation is 0, so a
        # naive vectorisation would divide 0/0; the scalar path skips the
        # term entirely and scores 0.0.
        index = Bm25Index(b=1.0)
        index.add_document("empty", "")
        index.add_document("full", "clean room")
        batch = index.scores(["empty", "full"], "clean room")
        scalar = [index.score(doc_id, "clean room") for doc_id in ("empty", "full")]
        assert batch == scalar
        assert batch[0] == 0.0


class TestTopKSelection:
    def _ranked(self):
        # Scores engineered with ties so the (-score, str(id)) tie-break matters.
        scores = [0.5, 0.9, 0.5, 0.1, 0.9, 0.5]
        return [
            RankedEntity(entity_id=f"e{index}", score=score, row={}, predicate_degrees={})
            for index, score in enumerate(scores)
        ]

    def test_matches_full_sort_for_every_limit(self):
        key = lambda entity: (-entity.score, str(entity.entity_id))  # noqa: E731
        for limit in range(1, 8):
            expected = sorted(self._ranked(), key=key)[:limit]
            assert _top_ranked(self._ranked(), limit) == expected

    def test_query_limit_selects_true_top_k(self, hotel_database):
        processor = SubjectiveQueryProcessor(hotel_database)
        full = processor.execute(
            'select * from Entities where "has really clean rooms" limit 100'
        )
        top = processor.execute(
            'select * from Entities where "has really clean rooms" limit 3'
        )
        assert top.entity_ids == full.entity_ids[:3]
