"""Persistent column files: column images laid out for ``numpy.memmap``.

A column file holds one subjective attribute's complete columnar state —
the derived serving arrays (exactly what
:meth:`~repro.core.columnar.ColumnarSummaryStore._build` produces) plus the
raw per-summary accumulators needed to reconstruct every
:class:`~repro.core.markers.MarkerSummary` — as named float64 sections at
64-byte-aligned file offsets.

The byte format is the column image of :mod:`repro.core.column_image` —
the same one hydrate snapshots travel in — with the
``SNAPSHOT_FLAG_COLUMN_FILE`` flag, so one CRC pass validates the whole
file and the sections are then read-only ``numpy.memmap`` views.  Floats
are **native-endian** (the dtype string is recorded in the meta JSON and
checked on open), because a memory map is only zero-copy when the bytes
are already in CPU order.

Writing never materialises a file in RAM: :func:`pack_column_file`
returns a :class:`ColumnFileImage` — header, meta, padding and zero-copy
views over the caller's arrays — which :func:`write_bytes_atomically`
streams to disk and :meth:`ColumnFileImage.equals_file` compares in place
with the previous generation.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping

import numpy as np

from repro.core.column_image import (
    SNAPSHOT_FLAG_COLUMN_FILE,
    Buffer,
    ColumnFileImage,
    pack_image,
    read_image,
)
from repro.core.columnar import COLUMN_ARRAYS, AttributeColumns, _unit_rows, image_columns
from repro.core.markers import Marker, MarkerSummary, SummaryKind
from repro.errors import SnapshotError, StorageError

#: ``SummaryKind`` ↔ float code used by the ``kind_codes`` raw section.
_KIND_CODES = {SummaryKind.LINEAR: 0.0, SummaryKind.CATEGORICAL: 1.0}
_KIND_OF_CODE = {0.0: SummaryKind.LINEAR, 1.0: SummaryKind.CATEGORICAL}

#: The raw accumulator sections of a column file, in file order, after
#: :data:`~repro.core.columnar.COLUMN_ARRAYS`.
_RAW_ARRAYS = (
    "counts",
    "sentiment_sums",
    "vector_sums",
    "num_phrases",
    "num_reviews",
    "vector_dims",
    "kind_codes",
)


@contextmanager
def _as_storage_error(path: str) -> Iterator[None]:
    """Re-raise a column image's :class:`SnapshotError` as a :class:`StorageError`."""
    try:
        yield
    except SnapshotError as error:
        raise StorageError(f"column file {path}: {error}") from error


def pack_column_file(
    meta: Mapping[str, object], sections: Mapping[str, np.ndarray]
) -> ColumnFileImage:
    """Lay named float64 arrays out as one mappable column file.

    ``meta`` is extended with the dtype tag and the section table and
    stored as deterministic JSON; each array follows at the next
    64-byte-aligned offset
    (:func:`~repro.core.column_image.pack_image`).  The section bytes are
    never copied.
    """
    try:
        return pack_image(SNAPSHOT_FLAG_COLUMN_FILE, meta, sections)
    except SnapshotError as error:
        raise StorageError(f"column file not packed: {error}") from error


def write_bytes_atomically(path: str, payload: bytes | Iterable[Buffer]) -> None:
    """Write ``payload`` to ``path`` via temp file + fsync + atomic rename.

    ``payload`` is one ``bytes`` or an ordered sequence of buffers (a
    :class:`ColumnFileImage`'s ``chunks``), streamed to the temp file in
    order without being joined.  A crash mid-write leaves either the
    previous file or nothing — never a torn mixture — and the directory
    entry is fsynced so the rename itself is durable.  The temp file is
    named ``<path>.tmp.<pid>``; one a killed process leaves behind is
    swept by the next :func:`~repro.storage.persist.save_database`.
    """
    if isinstance(payload, (bytes, bytearray, memoryview)):
        payload = (payload,)
    directory = os.path.dirname(path) or "."
    temporary = f"{path}.tmp.{os.getpid()}"
    try:
        with open(temporary, "wb") as handle:
            for chunk in payload:
                handle.write(chunk)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, path)
    except OSError as error:
        try:
            os.unlink(temporary)
        except OSError:
            pass
        raise StorageError(f"cannot write storage file {path} ({error})") from error
    try:
        directory_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds; the rename is still atomic
    try:
        os.fsync(directory_fd)
    except OSError:
        pass
    finally:
        os.close(directory_fd)


@dataclass(frozen=True)
class RawSummaryColumns:
    """Dense per-entity accumulator state of one attribute's marker summaries.

    Rows align with the companion :class:`AttributeColumns` — these are the
    *inputs* (``MarkerSummary`` internals) where the derived arrays are the
    *outputs*, and together they let a cold process reconstruct summaries
    bit-identically without replaying the extraction pipeline.
    ``vector_dims`` is 0 for summaries tracking no embedding vectors,
    otherwise the summary's embedding dimension; ``kind_codes`` is 0 for
    linear and 1 for categorical summaries.
    """

    attribute: str
    entity_ids: list[Hashable]
    markers: list[Marker]
    counts: np.ndarray  # (E, M)
    sentiment_sums: np.ndarray  # (E, M)
    vector_sums: np.ndarray  # (E, M, D)
    num_phrases: np.ndarray  # (E,)
    num_reviews: np.ndarray  # (E,)
    unmatched: np.ndarray  # (E,)
    vector_dims: np.ndarray  # (E,)
    kind_codes: np.ndarray  # (E,)

    def rebuild_summary(self, row: int) -> MarkerSummary:
        """Reconstruct the :class:`MarkerSummary` stored at ``row``, bit for bit."""
        dimension = int(self.vector_dims[row])
        code = float(self.kind_codes[row])
        try:
            kind = _KIND_OF_CODE[code]
        except KeyError:
            raise StorageError(
                f"unknown summary-kind code {code!r} in attribute {self.attribute!r}"
            ) from None
        summary = MarkerSummary(
            attribute=self.attribute,
            markers=self.markers,
            kind=kind,
            embedding_dimension=dimension or None,
        )
        for index, marker in enumerate(self.markers):
            summary._counts[marker.name] = float(self.counts[row, index])
            summary._sentiment_sums[marker.name] = float(self.sentiment_sums[row, index])
            if dimension:
                summary._vector_sums[marker.name] = np.array(
                    self.vector_sums[row, index, :dimension], dtype=np.float64
                )
        summary.num_phrases = float(self.num_phrases[row])
        summary.num_reviews = int(self.num_reviews[row])
        summary.num_unmatched = float(self.unmatched[row])
        return summary


def raw_summary_columns(
    columns: AttributeColumns, summaries: Mapping[Hashable, MarkerSummary]
) -> RawSummaryColumns:
    """The raw accumulator sections for ``columns``' rows, from live summaries."""
    num_entities = columns.num_entities
    num_markers = columns.num_markers
    dimension = columns.dimension
    counts = np.zeros((num_entities, num_markers))
    sentiment_sums = np.zeros((num_entities, num_markers))
    vector_sums = np.zeros((num_entities, num_markers, dimension))
    num_phrases = np.zeros(num_entities)
    num_reviews = np.zeros(num_entities)
    unmatched = np.zeros(num_entities)
    vector_dims = np.zeros(num_entities)
    kind_codes = np.zeros(num_entities)
    for row, entity_id in enumerate(columns.entity_ids):
        summary = summaries[entity_id]
        arrays = summary.arrays()
        counts[row] = arrays.counts
        sentiment_sums[row] = arrays.sentiment_sums
        if summary._dimension:
            vector_sums[row] = summary.vector_matrix(dimension)
        num_phrases[row] = summary.num_phrases
        num_reviews[row] = summary.num_reviews
        unmatched[row] = summary.num_unmatched
        vector_dims[row] = summary._dimension or 0
        kind_codes[row] = _KIND_CODES[summary.kind]
    return RawSummaryColumns(
        attribute=columns.attribute,
        entity_ids=list(columns.entity_ids),
        markers=list(columns.markers),
        counts=counts,
        sentiment_sums=sentiment_sums,
        vector_sums=vector_sums,
        num_phrases=num_phrases,
        num_reviews=num_reviews,
        unmatched=unmatched,
        vector_dims=vector_dims,
        kind_codes=kind_codes,
    )


def attribute_sections(
    columns: AttributeColumns, raw: RawSummaryColumns
) -> dict[str, np.ndarray]:
    """The full, ordered section map of one attribute's column file.

    The derived serving arrays (exactly the in-RAM store's build output)
    come first, then the raw accumulators (``MarkerSummary`` reconstruction
    inputs; their ``unmatched`` is the derived one).
    """
    return {
        **{name: getattr(columns, name) for name in COLUMN_ARRAYS},
        **{name: getattr(raw, name) for name in _RAW_ARRAYS},
    }


def derive_attribute_columns(raw: RawSummaryColumns) -> dict[str, np.ndarray]:
    """Recompute the derived arrays from raw accumulators, vectorized.

    Reproduces the exact per-summary arithmetic of
    :meth:`MarkerSummary.arrays` — totals accumulate left-to-right across
    markers (``cumsum``'s sequential pairing, matching the scalar
    ``sum``), fractions and sentiments divide with the same zero guards —
    so the results are bit-identical to the stored derived sections.  The
    durability tests pin that equivalence; it is also the repair path for
    a derived section under suspicion.
    """
    counts = np.asarray(raw.counts, dtype=np.float64)
    sentiment_sums = np.asarray(raw.sentiment_sums, dtype=np.float64)
    totals = np.cumsum(counts, axis=1)[:, -1]
    safe_totals = np.where(totals == 0.0, 1.0, totals)
    fractions = counts / safe_totals[:, None]
    fractions[totals == 0.0] = 0.0
    safe_counts = np.where(counts == 0.0, 1.0, counts)
    average_sentiments = sentiment_sums / safe_counts
    average_sentiments[counts == 0.0] = 0.0
    overall = np.cumsum(sentiment_sums, axis=1)[:, -1] / safe_totals
    overall[totals == 0.0] = 0.0
    dimension = raw.vector_sums.shape[2]
    centroids_unit = _unit_rows(raw.vector_sums) if dimension else np.asarray(raw.vector_sums)
    return {
        "totals": totals,
        "fractions": fractions,
        "average_sentiments": average_sentiments,
        "overall_sentiments": overall,
        "centroids_unit": centroids_unit,
        "unmatched": np.asarray(raw.unmatched, dtype=np.float64),
    }


class MappedColumnFile:
    """One column file opened as a read-only ``numpy.memmap``.

    Opening verifies the image header, the CRC over the whole file (one
    sequential pass) and the meta (:func:`~repro.core.column_image.read_image`),
    then exposes each section as a zero-copy view into the map — pages
    fault in lazily as the serving layers touch them.  Every failure is a
    typed :class:`StorageError`.  The map is read-only; ingest never
    mutates a column file in place (saves write fresh version-stamped
    files), so a view handed out before an ingest stays valid afterwards.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        try:
            mapped = np.memmap(path, dtype=np.uint8, mode="r")
        except (OSError, ValueError) as error:
            raise StorageError(f"cannot map column file {path} ({error})") from error
        with _as_storage_error(path):
            self._image = read_image(mapped, SNAPSHOT_FLAG_COLUMN_FILE)
        self.meta: dict = self._image.meta

    def _field(self, name: str):
        with _as_storage_error(self.path):
            return self._image.field(name)

    # ------------------------------------------------------------- accessors
    @property
    def attribute(self) -> str:
        """The subjective attribute this file stores."""
        return self._field("attribute")

    @property
    def version(self) -> int:
        """The per-attribute version embedded at write time."""
        return self._field("version")

    @property
    def entity_ids(self) -> list[Hashable]:
        """Row-ordered entity ids (decoded from the meta JSON)."""
        return list(self._field("entity_ids"))

    @property
    def markers(self) -> list[Marker]:
        """The attribute's markers, rebuilt from (name, position, sentiment)."""
        return [
            Marker(name=name, position=position, sentiment=float(sentiment))
            for name, position, sentiment in self._field("markers")
        ]

    @property
    def dimension(self) -> int:
        """Embedding dimension of the centroid/name sections (0 when absent)."""
        return self._field("dimension")

    @property
    def num_entities(self) -> int:
        """Number of entity rows in every (E, ...) section."""
        return len(self._field("entity_ids"))

    def section(self, name: str) -> np.ndarray:
        """One section as a read-only zero-copy float64 view."""
        with _as_storage_error(self.path):
            return self._image.section(name)

    def columns(self) -> AttributeColumns:
        """The derived sections assembled into a serving-ready view.

        Section shapes are checked against the meta's entity, marker and
        dimension counts.
        """
        with _as_storage_error(self.path):
            return image_columns(self._image)

    def raw(self) -> RawSummaryColumns:
        """The raw accumulator sections as summary-reconstruction inputs."""
        rows, width, dimension = self.num_entities, len(self.markers), self.dimension
        shapes = {
            **dict.fromkeys(("counts", "sentiment_sums"), (rows, width)),
            "vector_sums": (rows, width, dimension),
            **dict.fromkeys(
                ("num_phrases", "num_reviews", "unmatched", "vector_dims", "kind_codes"), (rows,)
            ),
        }
        with _as_storage_error(self.path):
            sections = {name: self._image.section(name, shape) for name, shape in shapes.items()}
        return RawSummaryColumns(
            attribute=self.attribute,
            entity_ids=self.entity_ids,
            markers=self.markers,
            **sections,
        )


def columns_filename(position: int, attribute: str, version: int) -> str:
    """Canonical version-stamped file name of one attribute's column file.

    Version-stamped names are what make saves copy-on-bump: a changed
    attribute gets a *new* file, so read-only maps of the previous
    generation stay valid in already-running readers.
    """
    slug = "".join(ch if ch.isalnum() else "_" for ch in attribute)
    return f"{position:02d}_{slug}.v{version}.snap"
