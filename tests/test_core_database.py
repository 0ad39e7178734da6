"""Unit tests for the SubjectiveDatabase container."""

import pytest

from repro.core.attributes import ObjectiveAttribute, SubjectiveAttribute, SubjectiveSchema
from repro.core.database import ReviewRecord, SubjectiveDatabase
from repro.core.markers import Marker
from repro.engine.types import ColumnType
from repro.errors import SchemaError


def make_schema():
    return SubjectiveSchema(
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
            SubjectiveAttribute(
                name="service",
                markers=[Marker("good", 0, 0.6), Marker("bad", 1, -0.6)],
            ),
        ],
    )


def make_database(with_reviews=True):
    database = SubjectiveDatabase(make_schema(), embedding_dimension=16)
    database.add_entity("h1", {"city": "london", "price_pn": 120.0})
    database.add_entity("h2", {"city": "paris", "price_pn": 80.0})
    if with_reviews:
        database.add_review(ReviewRecord(0, "h1", "the room was very clean. good service.",
                                         reviewer_id="r1", rating=4.5, year=2015))
        database.add_review(ReviewRecord(1, "h1", "dirty room and bad service.",
                                         reviewer_id="r2", rating=2.0, year=2016))
        database.add_review(ReviewRecord(2, "h2", "clean room, good service overall.",
                                         reviewer_id="r1", rating=4.0, year=2017))
    return database


class TestEntities:
    def test_engine_tables_created(self):
        database = make_database(with_reviews=False)
        names = set(database.engine.table_names())
        assert {"entities", "reviews", "extractions"} <= {name.lower() for name in names}
        assert any(name.startswith("summary_") for name in names)

    def test_add_and_lookup(self):
        database = make_database(with_reviews=False)
        assert len(database) == 2
        assert database.entity("h1").value("city") == "london"

    def test_duplicate_entity_rejected(self):
        database = make_database(with_reviews=False)
        with pytest.raises(SchemaError):
            database.add_entity("h1")

    def test_unknown_entity_raises(self):
        with pytest.raises(SchemaError):
            make_database(with_reviews=False).entity("missing")

    def test_entities_visible_in_engine(self):
        database = make_database(with_reviews=False)
        rows = database.engine.execute("select * from entities where city = 'london'")
        assert len(rows) == 1


class TestReviews:
    def test_reviews_per_entity(self):
        database = make_database()
        assert len(database.reviews("h1")) == 2
        assert database.num_reviews() == 3

    def test_review_for_unknown_entity_rejected(self):
        database = make_database()
        with pytest.raises(SchemaError):
            database.add_review(ReviewRecord(9, "missing", "text"))

    def test_duplicate_review_id_rejected(self):
        database = make_database()
        with pytest.raises(SchemaError):
            database.add_review(ReviewRecord(0, "h2", "text"))

    def test_entity_document_concatenates_reviews(self):
        document = make_database().entity_document("h1")
        assert "very clean" in document and "dirty room" in document

    def test_reviewer_counts(self):
        counts = make_database().reviewer_review_counts()
        assert counts["r1"] == 2

    def test_filter_reviews(self):
        database = make_database()
        recent = database.filter_reviews(lambda review: review.year >= 2016)
        assert {review.review_id for review in recent} == {1, 2}
        assert len(database.filter_reviews(None)) == 3


class TestExtractions:
    def test_add_and_query(self):
        database = make_database()
        record = database.add_extraction(
            "h1", 0, "the room was very clean", "room", "very clean",
            "room_cleanliness", marker="clean",
        )
        assert record.phrase == "very clean room"
        assert database.num_extractions() == 1
        assert database.extractions(entity_id="h1", attribute="room_cleanliness")
        assert database.extractions(review_id=0)[0].extraction_id == record.extraction_id

    def test_sentiment_computed_when_missing(self):
        database = make_database()
        record = database.add_extraction(
            "h1", 0, "s", "room", "very clean", "room_cleanliness"
        )
        assert record.sentiment > 0

    def test_extraction_grows_linguistic_domain(self):
        database = make_database()
        database.add_extraction("h1", 0, "s", "room", "very clean", "room_cleanliness")
        assert "very clean room" in database.schema.subjective("room_cleanliness").domain

    def test_unknown_attribute_rejected(self):
        database = make_database()
        with pytest.raises(SchemaError):
            database.add_extraction("h1", 0, "s", "room", "clean", "nonexistent")

    def test_unknown_entity_rejected(self):
        database = make_database()
        with pytest.raises(SchemaError):
            database.add_extraction("zzz", 0, "s", "room", "clean", "room_cleanliness")


class TestSummariesAndModels:
    def test_store_and_read_summary(self):
        database = make_database()
        attribute = database.schema.subjective("room_cleanliness")
        summary = attribute.new_summary()
        summary.add_phrase("clean", sentiment=0.7)
        database.store_summary("h1", summary)
        assert database.marker_summary("h1", "room_cleanliness").total() == 1.0
        assert database.marker_summary("h2", "room_cleanliness") is None
        assert "h1" in database.summaries_for_attribute("room_cleanliness")

    def test_store_summary_overwrites(self):
        database = make_database()
        attribute = database.schema.subjective("room_cleanliness")
        first = attribute.new_summary()
        first.add_phrase("clean")
        database.store_summary("h1", first)
        second = attribute.new_summary()
        second.add_phrase("dirty")
        database.store_summary("h1", second)
        assert database.marker_summary("h1", "room_cleanliness").count("dirty") == 1.0

    def test_clear_summaries(self):
        database = make_database()
        attribute = database.schema.subjective("service")
        database.store_summary("h1", attribute.new_summary())
        database.clear_summaries()
        assert database.marker_summary("h1", "service") is None

    def test_fit_text_models_requires_reviews(self):
        with pytest.raises(SchemaError):
            make_database(with_reviews=False).fit_text_models()

    def test_fit_text_models_builds_indexes(self):
        database = make_database()
        database.fit_text_models(embedding_dimension=8)
        assert database.phrase_embedder is not None
        assert len(database.review_index) == 3
        assert len(database.entity_index) == 2
        assert database.phrase_vector("clean room") is not None

    def test_variation_marker_mapping(self):
        database = make_database()
        database.set_variation_marker("room_cleanliness", "very clean room", "clean")
        assert database.variation_marker("room_cleanliness", "very clean room") == "clean"
        assert database.variation_marker("room_cleanliness", "unknown") is None

    def test_explain_uses_provenance(self):
        database = make_database()
        record = database.add_extraction(
            "h1", 0, "the room was very clean", "room", "very clean",
            "room_cleanliness", marker="clean",
        )
        database.provenance.record("h1", "room_cleanliness", "clean", record.extraction_id)
        evidence = database.explain("h1", "room_cleanliness", "clean")
        assert evidence[0].sentence == "the room was very clean"
        assert database.explain("h2", "room_cleanliness", "clean") == []


class TestChangeJournal:
    def _summary(self, database, attribute="service"):
        return database.schema.subjective(attribute).new_summary()

    def test_reviews_and_summaries_are_explained(self):
        database = make_database()
        start = database.data_version
        assert database.changes_since(start) == frozenset()
        database.add_review(ReviewRecord(10, "h2", "good service"))
        assert database.changes_since(start) == frozenset()
        database.store_summary("h1", self._summary(database))
        database.store_summary("h1", self._summary(database))
        database.store_summary("h2", self._summary(database, "room_cleanliness"))
        assert database.changes_since(start) == {("h1", "service"), ("h2", "room_cleanliness")}
        assert database.changes_since(database.data_version - 1) == {("h2", "room_cleanliness")}

    @pytest.mark.parametrize(
        "change",
        [
            lambda db: db.add_entity("h3"),
            lambda db: db.add_extraction("h1", 0, "s", "room", "clean", "room_cleanliness"),
            lambda db: db.set_variation_marker("service", "nice staff", "good"),
            lambda db: db.rebuild_text_indexes(),
            lambda db: db.clear_summaries(),
        ],
    )
    def test_any_other_change_makes_the_past_unknown(self, change):
        database = make_database()
        start = database.data_version
        database.store_summary("h1", self._summary(database))
        change(database)
        assert database.changes_since(start) is None
        after = database.data_version
        database.store_summary("h2", self._summary(database))
        assert database.changes_since(after) == {("h2", "service")}
        assert database.changes_since(start) is None

    def test_versions_outside_the_journal_are_unknown(self):
        from repro.core.database import CHANGE_JOURNAL_ENTRIES

        database = make_database()
        start = database.data_version
        assert database.changes_since(start + 1) is None  # not this database's past
        for serial in range(CHANGE_JOURNAL_ENTRIES):
            database.add_review(ReviewRecord(100 + serial, "h1", "good"))
        assert database.changes_since(start) == frozenset()
        database.add_review(ReviewRecord(99, "h1", "good"))
        assert database.changes_since(start) is None  # the oldest entry fell off
        assert database.changes_since(start + 1) == frozenset()
