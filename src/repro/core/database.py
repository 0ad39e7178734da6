"""The subjective database container.

A :class:`SubjectiveDatabase` materialises the three schema layers of
Section 2 on top of the relational engine:

1. the **main schema** — an entity table with the objective attributes plus
   one relation per subjective attribute holding that attribute's marker
   summary for every entity;
2. the **raw review data** — a reviews table, so queries can qualify the
   reviews considered (e.g. only prolific reviewers) and the system can fall
   back to raw text;
3. the **extraction relation** — every (aspect term, opinion term) pair the
   extractor produced, with its attribute/marker assignment, sentiment, and
   provenance.

It also owns the text models shared by query processing: the phrase
embedder (word2vec + IDF), the sentiment analyzer, a review-level BM25 index
(for the co-occurrence interpreter) and an entity-level BM25 index over the
concatenation of each entity's reviews (for the text-retrieval fallback and
the IR baseline).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Hashable, Iterable, Mapping

import numpy as np

from repro.core.attributes import SubjectiveAttribute, SubjectiveSchema
from repro.core.markers import MarkerSummary
from repro.core.provenance import ProvenanceStore
from repro.engine.database import Database
from repro.engine.schema import Column, TableSchema
from repro.engine.types import ColumnType
from repro.errors import SchemaError
from repro.text.bm25 import Bm25Index
from repro.text.embeddings import PhraseEmbedder, PpmiSvdEmbeddings
from repro.text.idf import DocumentFrequencies
from repro.text.sentiment import SentimentAnalyzer
from repro.text.tokenize import tokenize


@dataclass(frozen=True)
class EntityRecord:
    """One entity (hotel, restaurant, ...) with its objective attribute values."""

    entity_id: Hashable
    objective: Mapping[str, object]

    def value(self, attribute: str) -> object:
        return self.objective.get(attribute)


@dataclass(frozen=True)
class ReviewRecord:
    """One user review of an entity."""

    review_id: int
    entity_id: Hashable
    text: str
    reviewer_id: str = ""
    rating: float | None = None
    year: int | None = None
    helpful_votes: int = 0


@dataclass(frozen=True)
class ExtractionRecord:
    """One extracted opinion: an (aspect term, opinion term) pair with metadata."""

    extraction_id: int
    entity_id: Hashable
    review_id: int
    sentence: str
    aspect_term: str
    opinion_term: str
    attribute: str
    marker: str | None
    sentiment: float

    @property
    def phrase(self) -> str:
        """The concatenated opinion phrase ("opinion aspect"), e.g. "very clean room"."""
        return f"{self.opinion_term} {self.aspect_term}".strip()


ReviewFilter = Callable[[ReviewRecord], bool]

#: Version bumps the change journal can explain before the oldest falls off
#: (a store further behind than this rebuilds instead of patching).
CHANGE_JOURNAL_ENTRIES = 1024

#: Journal marker of a bump whose effect on the summaries is not recorded.
_UNKNOWN_CHANGE = object()


class SubjectiveDatabase:
    """Entities + reviews + extractions + marker summaries + text models."""

    def __init__(
        self,
        schema: SubjectiveSchema,
        embedding_dimension: int = 48,
        sentiment: SentimentAnalyzer | None = None,
    ) -> None:
        self.schema = schema
        self.embedding_dimension = embedding_dimension
        self.sentiment = sentiment or SentimentAnalyzer()
        self.engine = Database(schema.name)
        self._create_engine_tables()

        self._entities: dict[Hashable, EntityRecord] = {}
        self._reviews: dict[int, ReviewRecord] = {}
        self._reviews_by_entity: dict[Hashable, list[int]] = {}
        self._extractions: dict[int, ExtractionRecord] = {}
        self._extractions_by_review: dict[int, list[int]] = {}
        self._extractions_by_entity_attribute: dict[tuple[Hashable, str], list[int]] = {}
        self._summaries: dict[tuple[Hashable, str], MarkerSummary] = {}
        self._variation_marker: dict[tuple[str, str], str] = {}
        self.provenance = ProvenanceStore()

        self.phrase_embedder: PhraseEmbedder | None = None
        self.review_index: Bm25Index | None = None
        self.entity_index: Bm25Index | None = None
        self._next_extraction_id = 0
        self._data_version = 0
        # One entry per version bump, newest last: the summary key the bump
        # replaced, or None when it touched no summary.  A bump of any other
        # kind empties it, so the entries always explain the latest versions.
        self._journal: deque[tuple[Hashable, str] | None] = deque(
            maxlen=CHANGE_JOURNAL_ENTRIES
        )

        # Installed by repro.storage.open_database: a lazy materialiser for
        # persisted marker summaries and a factory producing the mmap-backed
        # columnar store.  Both stay None for purely in-RAM databases.
        self._summary_loader = None
        self._store_factory: Callable[["SubjectiveDatabase"], object] | None = None

    # --------------------------------------------------------- change tracking
    @property
    def data_version(self) -> int:
        """Monotonic counter bumped by every ingest or model (re)build.

        Serving-layer caches (query plans, membership degrees) snapshot this
        value and drop their contents when it moves, so cached results can
        never outlive the data that produced them.
        """
        return self._data_version

    def _bump_version(self, replaced: object = _UNKNOWN_CHANGE) -> None:
        """Move ``data_version`` and journal what the bump did to the summaries.

        ``replaced`` is the ``(entity, attribute)`` key of the one summary
        the change replaced, ``None`` when it touched no summary, and left
        out when the effect is not recorded — nothing before such a bump
        can be explained any more, so the journal starts over.
        """
        self._data_version += 1
        if replaced is _UNKNOWN_CHANGE:
            self._journal.clear()
        else:
            self._journal.append(replaced)

    def changes_since(self, version: int) -> frozenset[tuple[Hashable, str]] | None:
        """Summary keys replaced since ``version``, or ``None`` when unknown.

        The answer is a set of ``(entity_id, attribute)`` keys — empty when
        only reviews arrived — exactly when every bump after ``version`` was
        a :meth:`store_summary` or an :meth:`add_review` the journal still
        holds.  Any other change in between (a new entity, a text-model
        rebuild, cleared summaries, ...), a version the bounded journal has
        forgotten, or one that is not this database's past, yields ``None``:
        the caller must rebuild whatever it derived from the summaries.
        """
        missing = self._data_version - version
        if not 0 <= missing <= len(self._journal):
            return None
        recent = islice(self._journal, len(self._journal) - missing, None)
        return frozenset(key for key in recent if key is not None)

    # ----------------------------------------------------------- engine DDL
    def _create_engine_tables(self) -> None:
        key = self.schema.entity_key
        entity_columns = [Column(key, ColumnType.TEXT, nullable=False)]
        for attribute in self.schema.objective_attributes:
            entity_columns.append(Column(attribute.name, attribute.type))
        self.engine.create_table(
            TableSchema(name="entities", columns=entity_columns, key=key)
        )
        self.engine.create_table(
            TableSchema(
                name="reviews",
                key="review_id",
                columns=[
                    Column("review_id", ColumnType.INTEGER, nullable=False),
                    Column(key, ColumnType.TEXT, nullable=False),
                    Column("text", ColumnType.TEXT),
                    Column("reviewer_id", ColumnType.TEXT),
                    Column("rating", ColumnType.FLOAT),
                    Column("year", ColumnType.INTEGER),
                    Column("helpful_votes", ColumnType.INTEGER),
                ],
            )
        )
        self.engine.create_table(
            TableSchema(
                name="extractions",
                key="extraction_id",
                columns=[
                    Column("extraction_id", ColumnType.INTEGER, nullable=False),
                    Column(key, ColumnType.TEXT, nullable=False),
                    Column("review_id", ColumnType.INTEGER),
                    Column("aspect_term", ColumnType.TEXT),
                    Column("opinion_term", ColumnType.TEXT),
                    Column("attribute", ColumnType.TEXT),
                    Column("marker", ColumnType.TEXT),
                    Column("sentiment", ColumnType.FLOAT),
                ],
            )
        )
        for attribute in self.schema.subjective_attributes:
            self._create_summary_table(attribute)

    def _create_summary_table(self, attribute: SubjectiveAttribute) -> None:
        key = self.schema.entity_key
        self.engine.create_table(
            TableSchema(
                name=attribute.relation_name,
                key=key,
                columns=[
                    Column(key, ColumnType.TEXT, nullable=False),
                    Column(attribute.name, ColumnType.SUMMARY),
                ],
            )
        )

    # ------------------------------------------------------------- entities
    def add_entity(self, entity_id: Hashable, objective: Mapping[str, object] | None = None) -> EntityRecord:
        """Register an entity with its objective attribute values."""
        if entity_id in self._entities:
            raise SchemaError(f"entity already exists: {entity_id!r}")
        objective = dict(objective or {})
        record = EntityRecord(entity_id=entity_id, objective=objective)
        self._entities[entity_id] = record
        self._reviews_by_entity[entity_id] = []
        row = {self.schema.entity_key: str(entity_id)}
        for attribute in self.schema.objective_attributes:
            row[attribute.name] = objective.get(attribute.name)
        self.engine.table("entities").insert(row)
        self._bump_version()
        return record

    def entities(self) -> list[EntityRecord]:
        """All registered entities, in insertion order."""
        return list(self._entities.values())

    def entity_ids(self) -> list[Hashable]:
        return list(self._entities)

    def entity(self, entity_id: Hashable) -> EntityRecord:
        try:
            return self._entities[entity_id]
        except KeyError:
            raise SchemaError(f"unknown entity: {entity_id!r}") from None

    def __len__(self) -> int:
        return len(self._entities)

    # -------------------------------------------------------------- reviews
    def add_review(self, review: ReviewRecord) -> None:
        """Register one review (its entity must exist)."""
        if review.entity_id not in self._entities:
            raise SchemaError(f"unknown entity for review: {review.entity_id!r}")
        if review.review_id in self._reviews:
            raise SchemaError(f"duplicate review id: {review.review_id!r}")
        self._reviews[review.review_id] = review
        self._reviews_by_entity[review.entity_id].append(review.review_id)
        self.engine.table("reviews").insert(
            {
                "review_id": review.review_id,
                self.schema.entity_key: str(review.entity_id),
                "text": review.text,
                "reviewer_id": review.reviewer_id,
                "rating": review.rating,
                "year": review.year,
                "helpful_votes": review.helpful_votes,
            }
        )
        self._bump_version(replaced=None)

    def add_reviews(self, reviews: Iterable[ReviewRecord]) -> int:
        count = 0
        for review in reviews:
            self.add_review(review)
            count += 1
        return count

    def reviews(self, entity_id: Hashable | None = None) -> list[ReviewRecord]:
        """All reviews, or the reviews of one entity."""
        if entity_id is None:
            return list(self._reviews.values())
        return [self._reviews[i] for i in self._reviews_by_entity.get(entity_id, ())]

    def review(self, review_id: int) -> ReviewRecord:
        try:
            return self._reviews[review_id]
        except KeyError:
            raise SchemaError(f"unknown review id: {review_id!r}") from None

    def num_reviews(self) -> int:
        return len(self._reviews)

    def entity_document(self, entity_id: Hashable) -> str:
        """All review text of an entity concatenated into one document.

        This is the representation used by the text-retrieval fallback and by
        the GZ12 IR baseline (following [17], each entity is a single
        document made of all its reviews).
        """
        return "\n".join(review.text for review in self.reviews(entity_id))

    # ---------------------------------------------------------- extractions
    def add_extraction(
        self,
        entity_id: Hashable,
        review_id: int,
        sentence: str,
        aspect_term: str,
        opinion_term: str,
        attribute: str,
        marker: str | None = None,
        sentiment: float | None = None,
    ) -> ExtractionRecord:
        """Register one extracted opinion and index it for lookups."""
        if entity_id not in self._entities:
            raise SchemaError(f"unknown entity for extraction: {entity_id!r}")
        if not self.schema.has_subjective(attribute):
            raise SchemaError(f"unknown subjective attribute: {attribute!r}")
        if sentiment is None:
            sentiment = self.sentiment.polarity(f"{opinion_term} {aspect_term}")
        record = ExtractionRecord(
            extraction_id=self._next_extraction_id,
            entity_id=entity_id,
            review_id=review_id,
            sentence=sentence,
            aspect_term=aspect_term,
            opinion_term=opinion_term,
            attribute=attribute,
            marker=marker,
            sentiment=sentiment,
        )
        self._next_extraction_id += 1
        self._extractions[record.extraction_id] = record
        self._extractions_by_review.setdefault(review_id, []).append(record.extraction_id)
        self._extractions_by_entity_attribute.setdefault(
            (entity_id, attribute), []
        ).append(record.extraction_id)
        self.engine.table("extractions").insert(
            {
                "extraction_id": record.extraction_id,
                self.schema.entity_key: str(entity_id),
                "review_id": review_id,
                "aspect_term": aspect_term,
                "opinion_term": opinion_term,
                "attribute": attribute,
                "marker": marker,
                "sentiment": sentiment,
            }
        )
        # The linguistic domain of the attribute grows with every extraction.
        self.schema.subjective(attribute).domain.add(record.phrase)
        self._bump_version()
        return record

    def extractions(
        self,
        entity_id: Hashable | None = None,
        attribute: str | None = None,
        review_id: int | None = None,
    ) -> list[ExtractionRecord]:
        """Extraction records filtered by entity, attribute and/or review."""
        if review_id is not None:
            ids = self._extractions_by_review.get(review_id, [])
            records = [self._extractions[i] for i in ids]
            if attribute is not None:
                records = [r for r in records if r.attribute == attribute]
            if entity_id is not None:
                records = [r for r in records if r.entity_id == entity_id]
            return records
        if entity_id is not None and attribute is not None:
            ids = self._extractions_by_entity_attribute.get((entity_id, attribute), [])
            return [self._extractions[i] for i in ids]
        records = list(self._extractions.values())
        if entity_id is not None:
            records = [r for r in records if r.entity_id == entity_id]
        if attribute is not None:
            records = [r for r in records if r.attribute == attribute]
        return records

    def extraction(self, extraction_id: int) -> ExtractionRecord:
        try:
            return self._extractions[extraction_id]
        except KeyError:
            raise SchemaError(f"unknown extraction id: {extraction_id!r}") from None

    def num_extractions(self) -> int:
        return len(self._extractions)

    # ----------------------------------------------------------- text models
    def fit_text_models(self, embedding_dimension: int | None = None) -> None:
        """Train the embeddings/IDF on the stored reviews and build BM25 indexes.

        Must be called after reviews are loaded and before query processing.
        """
        dimension = embedding_dimension or self.embedding_dimension
        review_texts = [review.text for review in self._reviews.values()]
        if not review_texts:
            raise SchemaError("cannot fit text models: no reviews loaded")
        embeddings = PpmiSvdEmbeddings(dimension=dimension, min_count=2).fit(review_texts)
        frequencies = DocumentFrequencies()
        frequencies.add_corpus([tokenize(text) for text in review_texts])
        self.phrase_embedder = PhraseEmbedder(embeddings, frequencies)
        self.rebuild_text_indexes()

    def rebuild_text_indexes(self) -> None:
        """(Re)build the review-level and entity-level BM25 indexes."""
        self.review_index = Bm25Index()
        for review in self._reviews.values():
            self.review_index.add_document(review.review_id, review.text)
        self.entity_index = Bm25Index()
        for entity_id in self._entities:
            self.entity_index.add_document(entity_id, self.entity_document(entity_id))
        self._bump_version()

    def phrase_vector(self, phrase: str) -> np.ndarray | None:
        """Embedding of a phrase, or ``None`` when text models are not fitted."""
        if self.phrase_embedder is None:
            return None
        return self.phrase_embedder.represent(phrase)

    # ------------------------------------------------------ marker summaries
    def set_variation_marker(self, attribute: str, variation: str, marker: str) -> None:
        """Record which marker a linguistic variation was assigned to."""
        self._variation_marker[(attribute, variation)] = marker
        self._bump_version()

    def variation_marker(self, attribute: str, variation: str) -> str | None:
        """Marker assigned to a linguistic variation (None if never aggregated)."""
        return self._variation_marker.get((attribute, variation))

    def all_variations(self) -> list[tuple[str, str]]:
        """All (attribute, variation) pairs across the linguistic domains."""
        pairs: list[tuple[str, str]] = []
        for attribute in self.schema.subjective_attributes:
            for phrase in attribute.domain.phrases:
                pairs.append((attribute.name, phrase))
        return pairs

    def store_summary(self, entity_id: Hashable, summary: MarkerSummary) -> None:
        """Store (or replace) the marker summary of (entity, attribute)."""
        if entity_id not in self._entities:
            raise SchemaError(f"unknown entity: {entity_id!r}")
        attribute = self.schema.subjective(summary.attribute)
        key = (entity_id, summary.attribute)
        is_new = key not in self._summaries
        self._summaries[key] = summary
        table = self.engine.table(attribute.relation_name)
        row = {
            self.schema.entity_key: str(entity_id),
            summary.attribute: summary.to_record(),
        }
        if is_new and table.get(str(entity_id)) is None:
            table.insert(row)
        else:
            table.update(str(entity_id), {summary.attribute: summary.to_record()})
        self._bump_version(replaced=key)

    def marker_summary(self, entity_id: Hashable, attribute: str) -> MarkerSummary | None:
        """The stored marker summary of (entity, attribute), or ``None``."""
        summary = self._summaries.get((entity_id, attribute))
        if summary is None and self._summary_loader is not None:
            self._summary_loader.load(entity_id, attribute)
            summary = self._summaries.get((entity_id, attribute))
        return summary

    def summaries_for_attribute(self, attribute: str) -> dict[Hashable, MarkerSummary]:
        """All stored summaries of one attribute, keyed by entity."""
        if self._summary_loader is not None:
            self._summary_loader.load_attribute(attribute)
        return {
            entity_id: summary
            for (entity_id, name), summary in self._summaries.items()
            if name == attribute
        }

    def clear_summaries(self) -> None:
        """Drop all marker summaries and their provenance (before a rebuild)."""
        self._summaries.clear()
        self._summary_loader = None  # a rebuild supersedes the persisted state
        self.provenance.clear()
        self._bump_version()

    # ------------------------------------------------------------ persistence
    def columnar_store(self) -> "object":
        """A columnar store over this database, honouring the storage tier.

        Databases opened from a storage directory return a
        :class:`~repro.storage.PersistentColumnarStore` serving zero-copy
        ``numpy.memmap`` views while the directory is current; in-RAM
        databases get an ordinary
        :class:`~repro.core.columnar.ColumnarSummaryStore`.  Every serving
        layer builds its base store through this method.
        """
        if self._store_factory is not None:
            return self._store_factory(self)
        from repro.core.columnar import ColumnarSummaryStore

        return ColumnarSummaryStore(self)

    def save(self, directory: str) -> None:
        """Persist the full database state under ``directory`` (storage tier)."""
        from repro.storage import save_database

        save_database(self, directory)

    @classmethod
    def open(cls, directory: str) -> "SubjectiveDatabase":
        """Boot a database from a storage directory written by :meth:`save`."""
        from repro.storage import open_database

        return open_database(directory)

    # ------------------------------------------------------------ provenance
    def explain(self, entity_id: Hashable, attribute: str, marker: str,
                limit: int = 5) -> list[ExtractionRecord]:
        """Evidence: the extraction records behind one marker-summary cell."""
        ids = self.provenance.extractions_for_marker(entity_id, attribute, marker)
        return [self._extractions[i] for i in ids[:limit]]

    # --------------------------------------------------------- review filters
    def filter_reviews(self, review_filter: ReviewFilter | None) -> list[ReviewRecord]:
        """Reviews passing ``review_filter`` (all reviews when it is ``None``).

        Query-time qualification of reviews (e.g. "only reviewers with at
        least 10 reviews", "reviews after 2010") re-aggregates summaries over
        this subset; see
        :meth:`repro.extraction.aggregation.SummaryAggregator.aggregate`.
        """
        reviews = list(self._reviews.values())
        if review_filter is None:
            return reviews
        return [review for review in reviews if review_filter(review)]

    def reviewer_review_counts(self) -> dict[str, int]:
        """Number of reviews written by each reviewer (for qualification filters)."""
        counts: dict[str, int] = {}
        for review in self._reviews.values():
            counts[review.reviewer_id] = counts.get(review.reviewer_id, 0) + 1
        return counts
