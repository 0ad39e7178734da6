"""Save/open a :class:`SubjectiveDatabase` against the persistent storage tier.

``save_database`` lays the complete logical state of a database out on
disk: one version-stamped column file per subjective attribute (derived
serving arrays + raw summary accumulators, see
:mod:`repro.storage.columns`), an optional embeddings model file, and a
WAL-mode SQLite catalog (:mod:`repro.storage.catalog`) holding everything
else — entities, reviews, extractions, schema, provenance, text-model
metadata and the per-attribute file manifest.  Saves are *copy-on-bump*:
an attribute whose packed bytes are unchanged keeps its file and version
untouched (so repeated ``save → open → save`` cycles are byte-stable),
while a changed attribute is written to a **new** version-stamped file via
temp-file + fsync + atomic rename, leaving read-only maps of the previous
generation valid in already-running readers.  Files are fsynced before the
catalog commits, so the catalog never points at bytes that might not be
durable.

``open_database`` inverts the save: it verifies every column file's CRC
(typed :class:`~repro.errors.StorageError` on a torn write, so callers can
fall back to a rebuild), reconstructs the schema, text models and relational
state, and installs two lazy hooks — a :class:`SummaryLoader` that
materialises :class:`~repro.core.markers.MarkerSummary` objects from the
mapped raw sections only when scalar code asks for them, and a store
factory producing :class:`PersistentColumnarStore`, which serves the
column arrays as ``numpy.memmap`` zero-copy views for as long as the live
``data_version`` still matches the catalog's.

:class:`StoreReader` is the database-free half of the open path: it reads
the catalog manifest eagerly, closes the SQLite connection (so the object
is fork-safe — child processes inherit only read-only maps), and maps
column files lazily.  Cluster shard nodes use it to hydrate slices from
local disk instead of the coordinator's snapshot wire path.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from typing import Callable, Hashable, Mapping

import numpy as np

from repro.core.attributes import (
    ObjectiveAttribute,
    SubjectiveAttribute,
    SubjectiveSchema,
)
from repro.core.columnar import AttributeColumns, ColumnarSummaryStore
from repro.core.database import (
    EntityRecord,
    ExtractionRecord,
    ReviewRecord,
    SubjectiveDatabase,
)
from repro.core.domain import LinguisticDomain
from repro.core.markers import Marker, MarkerSummary, SummaryKind
from repro.engine.types import ColumnType
from repro.errors import CatalogError, SchemaError, StorageError
from repro.obs.metrics import MetricsRegistry, cell_property
from repro.obs.trace import span
from repro.storage.catalog import (
    CATALOG_FILENAME,
    StorageCatalog,
    decode_entity_id,
    encode_entity_id,
)
from repro.storage.columns import (
    MappedColumnFile,
    RawSummaryColumns,
    attribute_sections,
    columns_filename,
    pack_column_file,
    raw_summary_columns,
    sections_crc,
    write_bytes_atomically,
)
from repro.text.embeddings import PhraseEmbedder, WordEmbeddings
from repro.text.idf import DocumentFrequencies
from repro.text.sentiment import SentimentAnalyzer
from repro.text.vocab import Vocabulary

#: Subdirectory of a storage directory holding attribute column files.
COLUMNS_SUBDIR = "columns"

#: Subdirectory of a storage directory holding text-model files.
MODELS_SUBDIR = "models"

#: Catalog ``models`` row name of the word-embedding matrix file.
EMBEDDINGS_MODEL = "embeddings"

_JSON_COMPACT = {"sort_keys": True, "separators": (",", ":")}


def _dumps(value: object) -> str:
    """Deterministic JSON (sorted keys, no whitespace) with a typed failure."""
    try:
        return json.dumps(value, **_JSON_COMPACT)
    except (TypeError, ValueError) as error:
        raise StorageError(f"state is not JSON-serializable ({error})") from error


def _marker_triples(markers: list[Marker]) -> list[list[object]]:
    """Markers as ``[name, position, sentiment]`` triples (JSON-stable)."""
    return [[marker.name, marker.position, marker.sentiment] for marker in markers]


def _markers_from_triples(triples: list[list[object]]) -> list[Marker]:
    """Invert :func:`_marker_triples`."""
    return [
        Marker(name=str(name), position=int(position), sentiment=float(sentiment))
        for name, position, sentiment in triples
    ]


# --------------------------------------------------------------------- schema
def _schema_document(schema: SubjectiveSchema) -> dict:
    """The schema (with its linguistic-domain counts) as a JSON document."""
    return {
        "name": schema.name,
        "entity_key": schema.entity_key,
        "objective": [
            [attribute.name, attribute.type.value, attribute.description]
            for attribute in schema.objective_attributes
        ],
        "subjective": [
            {
                "name": attribute.name,
                "markers": _marker_triples(attribute.markers),
                "kind": attribute.kind.value,
                "domain": dict(attribute.domain._counts),
                "aspect_seeds": list(attribute.aspect_seeds),
                "opinion_seeds": list(attribute.opinion_seeds),
                "description": attribute.description,
            }
            for attribute in schema.subjective_attributes
        ],
    }


def _schema_from_document(document: dict) -> SubjectiveSchema:
    """Invert :func:`_schema_document`, restoring domain counts wholesale."""
    subjective = []
    for entry in document["subjective"]:
        domain = LinguisticDomain(entry["name"])
        domain._counts = Counter(
            {str(phrase): int(count) for phrase, count in entry["domain"].items()}
        )
        subjective.append(
            SubjectiveAttribute(
                name=entry["name"],
                markers=_markers_from_triples(entry["markers"]),
                kind=SummaryKind(entry["kind"]),
                domain=domain,
                aspect_seeds=list(entry["aspect_seeds"]),
                opinion_seeds=list(entry["opinion_seeds"]),
                description=entry["description"],
            )
        )
    return SubjectiveSchema(
        name=document["name"],
        entity_key=document["entity_key"],
        objective_attributes=[
            ObjectiveAttribute(str(name), ColumnType(kind), str(description))
            for name, kind, description in document["objective"]
        ],
        subjective_attributes=subjective,
    )


# ------------------------------------------------------------------ summaries
def _summary_payload(summary: MarkerSummary) -> str:
    """One irregular summary as a self-contained JSON blob.

    Used for summaries that cannot ride in the attribute's raw column
    sections — the entity is absent from the columns (marker mismatch with
    the schema reference) or the summary tracks vectors of a different
    dimension than the column file stores.
    """
    vector_sums: list[list[float] | None] = []
    for marker in summary.markers:
        vector = summary._vector_sums[marker.name]
        vector_sums.append(
            None if vector is None else [float(value) for value in np.ravel(vector)]
        )
    return _dumps(
        {
            "attribute": summary.attribute,
            "kind": summary.kind.value,
            "markers": _marker_triples(summary.markers),
            "dimension": summary._dimension,
            "counts": [float(summary._counts[m.name]) for m in summary.markers],
            "sentiment_sums": [
                float(summary._sentiment_sums[m.name]) for m in summary.markers
            ],
            "vector_sums": vector_sums,
            "num_phrases": summary.num_phrases,
            "num_reviews": summary.num_reviews,
            "num_unmatched": summary.num_unmatched,
        }
    )


def _summary_from_payload(payload: str) -> MarkerSummary:
    """Invert :func:`_summary_payload`, bit for bit."""
    try:
        data = json.loads(payload)
    except ValueError as error:
        raise StorageError(f"malformed summary payload in catalog ({error})") from error
    markers = _markers_from_triples(data["markers"])
    dimension = data["dimension"]
    summary = MarkerSummary(
        attribute=data["attribute"],
        markers=markers,
        kind=SummaryKind(data["kind"]),
        embedding_dimension=None if dimension is None else int(dimension),
    )
    for index, marker in enumerate(markers):
        summary._counts[marker.name] = float(data["counts"][index])
        summary._sentiment_sums[marker.name] = float(data["sentiment_sums"][index])
        vector = data["vector_sums"][index]
        if vector is not None:
            summary._vector_sums[marker.name] = np.array(vector, dtype=np.float64)
    summary.num_phrases = float(data["num_phrases"])
    summary.num_reviews = int(data["num_reviews"])
    summary.num_unmatched = float(data["num_unmatched"])
    return summary


# ----------------------------------------------------------- versioned files
def _persist_versioned_file(
    directory: str,
    subdirectory: str,
    name_of: Callable[[int], str],
    meta: Mapping[str, object],
    sections: Mapping[str, np.ndarray],
    previous: Mapping[str, object] | None,
) -> tuple[str, int, int]:
    """Write (or reuse) one version-stamped column file; ``(file, version, crc)``.

    The file is laid out under the previous version stamp first.  It is
    *unchanged* — nothing written, version not moved, which is what makes
    repeated saves byte-stable — only when that image's CRC is the one the
    catalog recorded **and** the image equals the previous generation's
    file bit for bit.  Catalog metadata alone is not trusted: a byte
    flipped on disk after the last save leaves the recorded CRC intact, and
    reusing such a file would carry the corruption silently into the next
    generation, so a re-save is the recovery path for torn writes.  Any
    difference lays the file out again under the next version and writes
    it fresh (never over the previous generation, so running readers keep
    consistent maps).
    """
    version = int(previous["version"]) if previous is not None else 1
    with span("storage_pack", file=name_of(version)):
        image = pack_column_file({**meta, "version": version}, sections)
        if previous is not None:
            kept = str(previous["file"])
            if (
                image.crc == int(previous["crc"])
                and kept == name_of(version)
                and image.equals_file(os.path.join(directory, subdirectory, kept))
            ):
                return kept, version, image.crc
            version += 1
            image = pack_column_file({**meta, "version": version}, sections)
    filename = name_of(version)
    with span("storage_write", file=filename, bytes=image.nbytes):
        write_bytes_atomically(os.path.join(directory, subdirectory, filename), image.chunks)
    return filename, version, image.crc


def _embeddings_filename(version: int) -> str:
    """Canonical version-stamped file name of the embeddings model file."""
    return f"model_embeddings.v{version}.snap"


# ----------------------------------------------------------------------- save
def _sweep_temporaries(directory: str) -> None:
    """Remove ``<name>.tmp.<pid>`` files a killed save left in ``directory``."""
    for name in os.listdir(directory):
        if ".tmp." in name:
            try:
                os.unlink(os.path.join(directory, name))
            except OSError:
                pass  # already gone, or not ours to remove: open ignores it anyway


def save_database(database: SubjectiveDatabase, directory: str) -> None:
    """Persist the complete logical state of ``database`` under ``directory``.

    Column and model files are written (or reused) first and fsynced; the
    catalog then replaces its logical state in a single committed
    transaction, so a reader booting mid-save observes either the previous
    complete save or this one.  Raises
    :class:`~repro.errors.StorageError` (or its ``CatalogError`` subclass)
    on non-serializable state or I/O failure.

    A directory has **one writer at a time** (any number of readers): the
    save starts by removing the ``*.tmp.<pid>`` files an interrupted save
    left under ``columns/`` and ``models/``, which would delete a
    concurrent writer's file in flight.
    """
    with span("storage_save", directory=directory):
        _save_database(database, directory)


def _save_database(database: SubjectiveDatabase, directory: str) -> None:
    for subdirectory in (COLUMNS_SUBDIR, MODELS_SUBDIR):
        os.makedirs(os.path.join(directory, subdirectory), exist_ok=True)
        _sweep_temporaries(os.path.join(directory, subdirectory))

    previous_attributes: dict[str, dict] = {}
    previous_models: dict[str, dict] = {}
    with span("storage_catalog", phase="read"):
        loader = getattr(database, "_summary_loader", None)
        if loader is not None:
            loader.load_all()
        if os.path.exists(os.path.join(directory, CATALOG_FILENAME)):
            try:
                with StorageCatalog(directory) as existing:
                    previous_attributes = {
                        row["name"]: dict(row) for row in existing.attribute_rows()
                    }
                    previous_models = {
                        row["name"]: dict(row) for row in existing.model_rows()
                    }
            except CatalogError:
                previous_attributes = {}
                previous_models = {}

    store = database.columnar_store()
    attribute_rows: list[tuple] = []
    placements: dict[str, tuple[Mapping[Hashable, int], int]] = {}
    for position, attribute in enumerate(database.schema.subjective_attributes):
        with span("storage_columns", attribute=attribute.name):
            columns = store.columns(attribute.name)
            if columns is None:
                continue
            for entity_id in columns.entity_ids:
                encode_entity_id(entity_id)  # typed failure before any file write
            summaries = database.summaries_for_attribute(attribute.name)
            raw = raw_summary_columns(columns, summaries)
            sections = attribute_sections(columns, raw)
        meta = {
            "attribute": attribute.name,
            "entity_ids": list(columns.entity_ids),
            "markers": _marker_triples(columns.markers),
            "dimension": columns.dimension,
        }
        filename, version, crc = _persist_versioned_file(
            directory,
            COLUMNS_SUBDIR,
            lambda v, position=position, name=attribute.name: columns_filename(
                position, name, v
            ),
            meta,
            sections,
            previous_attributes.get(attribute.name),
        )
        with span("storage_pack", file=filename):
            content_crc = sections_crc(sections)
        attribute_rows.append(
            (
                attribute.name,
                position,
                version,
                filename,
                crc,
                content_crc,
                columns.num_entities,
            )
        )
        placements[attribute.name] = (columns.row_of, columns.dimension)

    model_rows: list[tuple] = []
    embedder_document: dict | None = None
    embedder = database.phrase_embedder
    if embedder is not None:
        vocabulary = embedder.embeddings.vocabulary
        filename, version, crc = _persist_versioned_file(
            directory,
            MODELS_SUBDIR,
            _embeddings_filename,
            {"model": EMBEDDINGS_MODEL},
            {"matrix": embedder.embeddings._matrix},
            previous_models.get(EMBEDDINGS_MODEL),
        )
        model_rows.append((EMBEDDINGS_MODEL, version, filename, crc))
        embedder_document = {
            "min_count": vocabulary.min_count,
            "tokens": list(vocabulary._id_to_token),
            "counts": dict(vocabulary._counts),
            "doc_freq": dict(embedder._df._doc_freq),
            "num_documents": embedder._df._num_documents,
            "drop_stopwords": embedder._drop_stopwords,
        }

    with span("storage_catalog", phase="write"):
        summary_rows: list[tuple] = []
        for (entity_id, attribute), summary in database._summaries.items():
            encoded = encode_entity_id(entity_id)
            placement = placements.get(attribute)
            if placement is not None:
                row_of, dimension = placement
                row = row_of.get(entity_id)
                if row is not None and (summary._dimension or 0) in (0, dimension):
                    summary_rows.append((attribute, encoded, int(row), None))
                    continue
            summary_rows.append((attribute, encoded, None, _summary_payload(summary)))

        meta = {
            "data_version": str(database.data_version),
            "next_extraction_id": str(database._next_extraction_id),
            "embedding_dimension": str(database.embedding_dimension),
            "schema": _dumps(_schema_document(database.schema)),
            "sentiment_lexicon": _dumps(database.sentiment._lexicon),
            "embedder": _dumps(embedder_document),
        }
        entities = (
            (encode_entity_id(record.entity_id), _dumps(dict(record.objective)))
            for record in database._entities.values()
        )
        reviews = (
            (
                review.review_id,
                encode_entity_id(review.entity_id),
                review.text,
                review.reviewer_id,
                review.rating,
                review.year,
                review.helpful_votes,
            )
            for review in database._reviews.values()
        )
        extractions = (
            (
                record.extraction_id,
                encode_entity_id(record.entity_id),
                record.review_id,
                record.sentence,
                record.aspect_term,
                record.opinion_term,
                record.attribute,
                record.marker,
                record.sentiment,
            )
            for record in database._extractions.values()
        )
        variations = (
            (attribute, variation, marker)
            for (attribute, variation), marker in database._variation_marker.items()
        )
        provenance = (
            (encode_entity_id(entity_id), attribute, marker, extraction_id)
            for (entity_id, attribute, marker), ids in database.provenance._by_cell.items()
            for extraction_id in ids
        )
        with StorageCatalog(directory, create=True) as catalog:
            catalog.replace_state(
                meta=meta,
                entities=entities,
                reviews=reviews,
                extractions=extractions,
                variations=variations,
                provenance=provenance,
                attributes=attribute_rows,
                summaries=summary_rows,
                models=model_rows,
            )


# --------------------------------------------------------------------- reader
class StoreReader:
    """Database-free, fork-safe access to one storage directory's column files.

    The catalog manifest (``data_version``, attribute and model rows) is
    read eagerly and the SQLite connection closed immediately, so the
    object holds only read-only ``numpy.memmap`` handles afterwards — safe
    to inherit across ``fork`` into cluster shard nodes.  Column files are
    mapped lazily per attribute and cached; :meth:`verify` maps everything
    eagerly (one CRC pass per file) for open-time integrity checking.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        with StorageCatalog(directory) as catalog:
            self.data_version = catalog.data_version
            self._attribute_rows = {
                row["name"]: dict(row) for row in catalog.attribute_rows()
            }
            self._model_rows = {row["name"]: dict(row) for row in catalog.model_rows()}
        self._mapped: dict[str, MappedColumnFile | None] = {}
        self._model_files: dict[str, MappedColumnFile | None] = {}

    def attribute_names(self) -> list[str]:
        """Attributes with a column file, in schema-position order."""
        return list(self._attribute_rows)

    def _mapped_file(self, attribute: str) -> MappedColumnFile | None:
        if attribute in self._mapped:
            return self._mapped[attribute]
        row = self._attribute_rows.get(attribute)
        if row is None:
            self._mapped[attribute] = None
            return None
        path = os.path.join(self.directory, COLUMNS_SUBDIR, str(row["file"]))
        mapped = MappedColumnFile(path)
        if mapped.attribute != attribute or mapped.version != int(row["version"]):
            raise CatalogError(
                f"version skew: catalog lists {attribute!r} at version "
                f"{row['version']} in {row['file']!r}, but the file stores "
                f"{mapped.attribute!r} version {mapped.version}"
            )
        if mapped.num_entities != int(row["num_entities"]):
            raise CatalogError(
                f"version skew: catalog lists {row['num_entities']} entities for "
                f"{attribute!r} but the column file stores {mapped.num_entities}"
            )
        self._mapped[attribute] = mapped
        return mapped

    def columns(self, attribute: str) -> AttributeColumns | None:
        """Derived serving arrays of one attribute as zero-copy mapped views."""
        mapped = self._mapped_file(attribute)
        return None if mapped is None else mapped.columns()

    def raw(self, attribute: str) -> RawSummaryColumns | None:
        """Raw summary accumulators of one attribute as mapped views."""
        mapped = self._mapped_file(attribute)
        return None if mapped is None else mapped.raw()

    def model_file(self, name: str) -> MappedColumnFile | None:
        """One model file (e.g. the embeddings matrix), mapped and verified."""
        if name in self._model_files:
            return self._model_files[name]
        row = self._model_rows.get(name)
        if row is None:
            self._model_files[name] = None
            return None
        path = os.path.join(self.directory, MODELS_SUBDIR, str(row["file"]))
        mapped = MappedColumnFile(path)
        if mapped.meta.get("model") != name or int(mapped.meta["version"]) != int(
            row["version"]
        ):
            raise CatalogError(
                f"version skew: catalog lists model {name!r} at version "
                f"{row['version']} but {row['file']!r} stores "
                f"{mapped.meta.get('model')!r} version {mapped.meta.get('version')!r}"
            )
        self._model_files[name] = mapped
        return mapped

    def verify(self) -> "StoreReader":
        """Map and CRC-check every catalogued file; returns ``self``.

        Raises :class:`~repro.errors.StorageError` on a torn or corrupt
        file and :class:`~repro.errors.CatalogError` on catalog/file
        version skew, so callers can fall back to a clean rebuild.
        """
        for attribute in self._attribute_rows:
            self._mapped_file(attribute)
        for name in self._model_rows:
            self.model_file(name)
        return self


# --------------------------------------------------------------------- loader
class SummaryLoader:
    """Materialise :class:`MarkerSummary` objects lazily from the catalog.

    The mmap-backed serving path never touches scalar summaries; this
    loader exists for the code that does (explanations, re-aggregation,
    re-saves).  Each call opens a fresh catalog connection — the loader
    itself holds no file descriptors, so it is fork-safe like the reader.
    Engine summary rows are inserted on load without bumping the
    database's ``data_version`` (loading is not an ingest).
    """

    def __init__(self, database: SubjectiveDatabase, reader: StoreReader) -> None:
        self.database = database
        self.reader = reader
        self.loaded_attributes: set[str] = set()
        self.all_loaded = False
        self.loads = 0

    def _rows(self, sql: str, parameters: tuple = ()) -> list[tuple]:
        with StorageCatalog(self.reader.directory) as catalog:
            return catalog.rows(sql, parameters)

    def _install(
        self, attribute: str, encoded_id: str, row: object, payload: object
    ) -> None:
        entity_id = decode_entity_id(encoded_id)
        key = (entity_id, attribute)
        if key in self.database._summaries:
            return
        if payload is not None:
            summary = _summary_from_payload(str(payload))
        else:
            raw = self.reader.raw(attribute)
            if raw is None:
                raise StorageError(
                    f"catalog row for {attribute!r} points at column row {row!r} "
                    "but the attribute has no column file"
                )
            summary = raw.rebuild_summary(int(row))
        self.database._summaries[key] = summary
        try:
            relation = self.database.schema.subjective(attribute).relation_name
        except SchemaError:
            relation = None
        if relation is not None:
            table = self.database.engine.table(relation)
            if table.get(str(entity_id)) is None:
                table.insert(
                    {
                        self.database.schema.entity_key: str(entity_id),
                        attribute: summary.to_record(),
                    }
                )
        self.loads += 1

    def load(self, entity_id: Hashable, attribute: str) -> None:
        """Load one (entity, attribute) summary if the catalog has it."""
        if self.all_loaded or attribute in self.loaded_attributes:
            return
        try:
            encoded = encode_entity_id(entity_id)
        except CatalogError:
            return  # such an id can never have been persisted
        rows = self._rows(
            "SELECT entity_id, row, payload FROM summaries"
            " WHERE attribute = ? AND entity_id = ? ORDER BY seq",
            (attribute, encoded),
        )
        for encoded_id, row, payload in rows:
            self._install(attribute, encoded_id, row, payload)

    def load_attribute(self, attribute: str) -> None:
        """Load every summary of one attribute, in original insertion order."""
        if self.all_loaded or attribute in self.loaded_attributes:
            return
        rows = self._rows(
            "SELECT entity_id, row, payload FROM summaries"
            " WHERE attribute = ? ORDER BY seq",
            (attribute,),
        )
        for encoded_id, row, payload in rows:
            self._install(attribute, encoded_id, row, payload)
        self.loaded_attributes.add(attribute)

    def load_all(self) -> None:
        """Load every persisted summary, preserving global insertion order."""
        if self.all_loaded:
            return
        rows = self._rows(
            "SELECT attribute, entity_id, row, payload FROM summaries ORDER BY seq"
        )
        for attribute, encoded_id, row, payload in rows:
            self._install(attribute, encoded_id, row, payload)
            self.loaded_attributes.add(attribute)
        self.all_loaded = True


# ---------------------------------------------------------------------- store
class PersistentColumnarStore(ColumnarSummaryStore):
    """A columnar store serving mmap-backed column files while they are fresh.

    While the database's live ``data_version`` equals the catalog's, column
    requests are answered directly from the reader's zero-copy mapped
    views — no summaries are materialised, no arrays are copied.  The
    moment an ingest moves the version past the catalog, the store falls
    back to the ordinary in-RAM build (which pulls summaries through the
    lazy loader), exactly like a cache miss; a later
    :func:`save_database` re-freshens the directory.
    """

    def __init__(self, database: SubjectiveDatabase, reader: StoreReader) -> None:
        super().__init__(database)
        self.reader = reader
        self.metrics = MetricsRegistry()
        self._mmap_serves_cell = self.metrics.counter(
            "mmap_serves", help="Column builds served straight from the memory maps"
        )

    #: Number of column builds served straight from the memory maps.
    mmap_serves = cell_property("_mmap_serves_cell")

    def _build(self, attribute: str) -> AttributeColumns | None:
        if self._version == self.reader.data_version:
            try:
                columns = self.reader.columns(attribute)
            except StorageError:
                columns = None  # corrupt/skewed file: fall back to a rebuild
            if columns is not None:
                self.mmap_serves += 1
                return columns
        return super()._build(attribute)

    def stats_snapshot(self) -> dict[str, object]:
        """Superclass counters plus the number of mmap-served builds."""
        snapshot = super().stats_snapshot()
        snapshot["mmap_serves"] = self.mmap_serves
        return snapshot


# ----------------------------------------------------------------------- open
def _restore_embedder(document: dict, reader: StoreReader) -> PhraseEmbedder:
    """Rebuild the phrase embedder from catalog metadata + the model file."""
    model = reader.model_file(EMBEDDINGS_MODEL)
    if model is None:
        raise CatalogError(
            "catalog records embedder metadata but no embeddings model file"
        )
    vocabulary = Vocabulary(min_count=int(document["min_count"]))
    vocabulary._id_to_token = [str(token) for token in document["tokens"]]
    vocabulary._token_to_id = {
        token: index for index, token in enumerate(vocabulary._id_to_token)
    }
    vocabulary._counts = Counter(
        {str(token): int(count) for token, count in document["counts"].items()}
    )
    embeddings = WordEmbeddings.from_normalized(vocabulary, model.section("matrix"))
    frequencies = DocumentFrequencies()
    frequencies._doc_freq = Counter(
        {str(token): int(count) for token, count in document["doc_freq"].items()}
    )
    frequencies._num_documents = int(document["num_documents"])
    return PhraseEmbedder(
        embeddings, frequencies, drop_stopwords=bool(document["drop_stopwords"])
    )


def _load_relational_state(database: SubjectiveDatabase, catalog: StorageCatalog) -> None:
    """Bulk-restore entities, reviews and extractions (no version bumps)."""
    key = database.schema.entity_key
    entity_rows = []
    for encoded, objective_json in catalog.rows(
        "SELECT entity_id, objective FROM entities ORDER BY seq"
    ):
        entity_id = decode_entity_id(encoded)
        objective = json.loads(objective_json)
        database._entities[entity_id] = EntityRecord(
            entity_id=entity_id, objective=objective
        )
        database._reviews_by_entity[entity_id] = []
        row = {key: str(entity_id)}
        for attribute in database.schema.objective_attributes:
            row[attribute.name] = objective.get(attribute.name)
        entity_rows.append(row)
    database.engine.table("entities").insert_many(entity_rows)

    review_rows = []
    for review_id, encoded, text, reviewer_id, rating, year, votes in catalog.rows(
        "SELECT review_id, entity_id, text, reviewer_id, rating, year, helpful_votes"
        " FROM reviews ORDER BY seq"
    ):
        entity_id = decode_entity_id(encoded)
        record = ReviewRecord(
            review_id=int(review_id),
            entity_id=entity_id,
            text=text,
            reviewer_id=reviewer_id,
            rating=rating,
            year=None if year is None else int(year),
            helpful_votes=int(votes),
        )
        database._reviews[record.review_id] = record
        database._reviews_by_entity[entity_id].append(record.review_id)
        review_rows.append(
            {
                "review_id": record.review_id,
                key: str(entity_id),
                "text": record.text,
                "reviewer_id": record.reviewer_id,
                "rating": record.rating,
                "year": record.year,
                "helpful_votes": record.helpful_votes,
            }
        )
    database.engine.table("reviews").insert_many(review_rows)

    extraction_rows = []
    for values in catalog.rows(
        "SELECT extraction_id, entity_id, review_id, sentence, aspect_term,"
        " opinion_term, attribute, marker, sentiment FROM extractions ORDER BY seq"
    ):
        xid, encoded, review_id, sentence, aspect, opinion, attribute, marker, sentiment = values
        entity_id = decode_entity_id(encoded)
        record = ExtractionRecord(
            extraction_id=int(xid),
            entity_id=entity_id,
            review_id=int(review_id),
            sentence=sentence,
            aspect_term=aspect,
            opinion_term=opinion,
            attribute=attribute,
            marker=marker,
            sentiment=float(sentiment),
        )
        database._extractions[record.extraction_id] = record
        database._extractions_by_review.setdefault(record.review_id, []).append(
            record.extraction_id
        )
        database._extractions_by_entity_attribute.setdefault(
            (entity_id, attribute), []
        ).append(record.extraction_id)
        extraction_rows.append(
            {
                "extraction_id": record.extraction_id,
                key: str(entity_id),
                "review_id": record.review_id,
                "aspect_term": record.aspect_term,
                "opinion_term": record.opinion_term,
                "attribute": record.attribute,
                "marker": record.marker,
                "sentiment": record.sentiment,
            }
        )
    database.engine.table("extractions").insert_many(extraction_rows)
    # The linguistic domains are NOT re-grown here: their counts were
    # restored wholesale with the schema, and replaying ``domain.add`` per
    # extraction would double-count every phrase.


def open_database(directory: str) -> SubjectiveDatabase:
    """Boot a :class:`SubjectiveDatabase` from a storage directory.

    Every catalogued file is mapped and CRC-verified up front (torn writes
    raise a typed :class:`~repro.errors.StorageError`; a catalog pointing
    at files from a different save generation raises
    :class:`~repro.errors.CatalogError`), then the relational and text
    state is restored and the lazy summary loader + mmap-backed store
    factory are installed.  The returned database's ``data_version``
    equals the catalog's, which is what lets cluster nodes booting from
    the same directory skip wire hydration.
    """
    with span("storage_open", directory=directory):
        with span("storage_map"):
            reader = StoreReader(directory).verify()
        with span("storage_relational_load"), StorageCatalog(directory) as catalog:
            schema = _schema_from_document(json.loads(catalog.require_meta("schema")))
            sentiment = SentimentAnalyzer()
            sentiment._lexicon = {
                str(word): float(value)
                for word, value in json.loads(
                    catalog.require_meta("sentiment_lexicon")
                ).items()
            }
            database = SubjectiveDatabase(
                schema,
                embedding_dimension=int(catalog.require_meta("embedding_dimension")),
                sentiment=sentiment,
            )
            _load_relational_state(database, catalog)
            for attribute, variation, marker in catalog.rows(
                "SELECT attribute, variation, marker FROM variations"
            ):
                database._variation_marker[(attribute, variation)] = marker
            for encoded, attribute, marker, extraction_id in catalog.rows(
                "SELECT entity_id, attribute, marker, extraction_id FROM provenance"
                " ORDER BY seq"
            ):
                database.provenance.record(
                    decode_entity_id(encoded), attribute, marker, int(extraction_id)
                )
            database._next_extraction_id = int(catalog.require_meta("next_extraction_id"))
            embedder_document = json.loads(catalog.require_meta("embedder"))
            data_version = catalog.data_version
        with span("storage_text_indexes"):
            if embedder_document is not None:
                database.phrase_embedder = _restore_embedder(embedder_document, reader)
            database.rebuild_text_indexes()
    database._summary_loader = SummaryLoader(database, reader)
    database._store_factory = lambda db, reader=reader: PersistentColumnarStore(db, reader)
    database._data_version = data_version
    database._journal.clear()  # it explains the load's own bumps, not the saved past
    return database
