"""Persistent column files: snapshot-v2 containers laid out for ``numpy.memmap``.

A column file holds one subjective attribute's complete columnar state —
the derived serving arrays (exactly what
:meth:`~repro.core.columnar.ColumnarSummaryStore._build` produces) plus the
raw per-summary accumulators needed to reconstruct every
:class:`~repro.core.markers.MarkerSummary` — as named float64 sections at
64-byte-aligned file offsets.

The container is the same ``magic | format version | crc32 | flags | body``
layout the hydrate wire uses (:mod:`repro.core.columnar`), with the
``SNAPSHOT_FLAG_COLUMN_FILE`` bit set and no compression, so one CRC pass
validates the whole file and the body can then be mapped read-only and
sliced zero-copy.  Unlike wire snapshots — which byte-swap every float to
big-endian — column files store **native-endian** float64 (the dtype string
is recorded in the meta JSON and checked on open), because a memory map is
only zero-copy when the bytes are already in CPU order.

Section offsets are not stored: both writer and reader derive them from the
fixed rule *first section at ``align64(header + 4 + len(meta))``, each next
section at ``align64(previous end)``* — one fewer thing that can skew.

Writing never materialises a file in RAM: :func:`pack_column_file` applies
that rule once and returns a :class:`ColumnFileImage` — header, meta,
padding and zero-copy views over the caller's arrays, with the CRCs folded
chunk by chunk — which :func:`write_bytes_atomically` streams to disk and
:meth:`ColumnFileImage.equals_file` compares in place with the previous
generation.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

import numpy as np

from repro.core.columnar import (
    SNAPSHOT_FLAG_COLUMN_FILE,
    SNAPSHOT_FORMAT_VERSION,
    SNAPSHOT_MAGIC,
    AttributeColumns,
    RowBlocks,
    _unit_rows,
)
from repro.core.markers import Marker, MarkerSummary, SummaryKind
from repro.errors import StorageError

#: Native-endian float64 dtype string recorded in (and checked against)
#: every column file's meta JSON.  Mapping a file written on a platform
#: with the other endianness raises a typed :class:`StorageError` instead
#: of serving byte-swapped garbage.
COLUMN_FILE_DTYPE = np.dtype(np.float64).str

#: Sections are laid out at multiples of this alignment so mapped views
#: start on cache-line boundaries.
SECTION_ALIGNMENT = 64

#: Fixed header size of the snapshot-v2 container:
#: magic (4) + format version (u16) + crc32 (u32) + flags (u8).
_CONTAINER_HEADER = len(SNAPSHOT_MAGIC) + 2 + 4 + 1

_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")

#: What a column-file image is made of: ``bytes`` for the header, meta and
#: padding, flat ``uint8`` array views for the sections.
Buffer = bytes | np.ndarray

#: Bytes compared per step when an image is checked against a mapped file —
#: bounds the temporary the comparison allocates, not the result.
_COMPARE_BLOCK = 1 << 20

#: ``SummaryKind`` ↔ float code used by the ``kind_codes`` raw section.
_KIND_CODES = {SummaryKind.LINEAR: 0.0, SummaryKind.CATEGORICAL: 1.0}
_KIND_OF_CODE = {0.0: SummaryKind.LINEAR, 1.0: SummaryKind.CATEGORICAL}


def _align(offset: int) -> int:
    """The next multiple of :data:`SECTION_ALIGNMENT` at or after ``offset``."""
    remainder = offset % SECTION_ALIGNMENT
    return offset if remainder == 0 else offset + (SECTION_ALIGNMENT - remainder)


def _section_bytes(array: np.ndarray) -> np.ndarray:
    """One array as a flat byte view of native-endian float64 in C order.

    Zero-copy when the array already is C-contiguous native float64 (every
    section the save path produces); anything else is *converted* first,
    never reinterpreted.  Built with ``reshape``/``view`` rather than
    ``memoryview.cast`` because the latter refuses shapes containing 0 —
    and a database without an embedder has ``(E, M, 0)`` sections.
    """
    return np.ascontiguousarray(array, dtype=np.float64).reshape(-1).view(np.uint8)


def _section_chunks(array: "np.ndarray | RowBlocks") -> list[np.ndarray]:
    """One section as its flat byte views, in file order.

    A blocked array (the centroid tensor) yields one zero-copy view per
    run of blocks, so a patched generation is written without joining its
    blocks; the bytes equal those of the joined array.
    """
    parts = [run for _, run in array.runs()] if isinstance(array, RowBlocks) else [array]
    return [_section_bytes(part) for part in parts]


def _fold_crc(chunks: Iterable[Buffer], crc: int = 0) -> int:
    """CRC-32 of the concatenation of ``chunks``, continuing from ``crc``."""
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    return crc


def sections_crc(sections: Mapping[str, np.ndarray]) -> int:
    """CRC-32 over the concatenated section bytes, in section order.

    This is the *content* checksum the catalog stores per attribute: it is
    independent of the meta JSON (which embeds the per-attribute version),
    so an unchanged attribute keeps the same content CRC across saves.
    """
    return _fold_crc(
        chunk for array in sections.values() for chunk in _section_chunks(array)
    )


@dataclass(frozen=True, eq=False)
class ColumnFileImage:
    """One complete column file as an ordered sequence of buffers, never joined.

    ``chunks`` are, in file order, the container header, the flags byte,
    the length-prefixed meta JSON, and per section its zero padding and
    byte views over the array, one per run of a :class:`RowBlocks`
    section (no chunk is empty).  ``crc`` is the CRC-32 of
    their concatenation — the per-file checksum the catalog records — and
    ``nbytes`` its length.  The views alias the caller's arrays: write or
    compare the image before mutating them.
    """

    chunks: tuple[Buffer, ...]
    crc: int
    nbytes: int

    def equals_file(self, path: str) -> bool:
        """Whether ``path`` holds exactly this image, bit for bit.

        Compares region by region against a read-only map of the file, so
        neither side is materialised.  Bit equality — not float equality —
        so ``-0.0`` vs ``0.0`` and NaN payloads count as differences, and a
        byte flipped on disk anywhere (section, padding, meta, header)
        makes the file unequal.  A missing or unreadable file is unequal.
        """
        try:
            if os.path.getsize(path) != self.nbytes:
                return False
            mapped = np.memmap(path, dtype=np.uint8, mode="r")
        except (OSError, ValueError):
            return False
        offset = 0
        for chunk in self.chunks:
            region = np.frombuffer(chunk, dtype=np.uint8)
            on_disk = mapped[offset : offset + len(region)]
            for start in range(0, len(region), _COMPARE_BLOCK):
                stop = start + _COMPARE_BLOCK
                if not np.array_equal(region[start:stop], on_disk[start:stop]):
                    return False
            offset += len(region)
        return True


def pack_column_file(
    meta: Mapping[str, object], sections: Mapping[str, np.ndarray]
) -> ColumnFileImage:
    """Lay named float64 arrays out as one mappable column file.

    ``meta`` is extended with the dtype tag and the section table
    (name + shape, in iteration order) and stored as deterministic JSON;
    each array follows at the next :data:`SECTION_ALIGNMENT`-aligned
    absolute offset.  The result is a complete snapshot-v2 container (CRC
    over flags + body) as a :class:`ColumnFileImage`: the section bytes are
    read twice (body CRC, then whole-file CRC behind the header that
    carries the first) and never copied.
    """
    full_meta = dict(meta)
    full_meta["dtype"] = COLUMN_FILE_DTYPE
    full_meta["sections"] = [
        [name, [int(size) for size in np.shape(array)]] for name, array in sections.items()
    ]
    try:
        meta_bytes = json.dumps(full_meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise StorageError(f"column-file meta is not JSON-serializable ({error})") from error
    stored: list[Buffer] = [
        bytes([SNAPSHOT_FLAG_COLUMN_FILE]),
        _U32.pack(len(meta_bytes)),
        meta_bytes,
    ]
    position = _CONTAINER_HEADER + 4 + len(meta_bytes)
    for array in sections.values():
        start = _align(position)
        if start > position:
            stored.append(bytes(start - position))
        position = start
        for view in _section_chunks(array):
            if len(view):
                stored.append(view)
            position += len(view)
    header = (
        SNAPSHOT_MAGIC
        + _U16.pack(SNAPSHOT_FORMAT_VERSION)
        + _U32.pack(_fold_crc(stored))
    )
    chunks = (header, *stored)
    return ColumnFileImage(chunks=chunks, crc=_fold_crc(chunks), nbytes=position)


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
    """The full, ordered section map of one attribute's column file."""
    return {
        # Derived serving arrays (exactly the in-RAM store's build output).
        "marker_sentiments": columns.marker_sentiments,
        "fractions": columns.fractions,
        "average_sentiments": columns.average_sentiments,
        "totals": columns.totals,
        "unmatched": columns.unmatched,
        "overall_sentiments": columns.overall_sentiments,
        "centroids_unit": columns.centroids_unit,
        "name_units": columns.name_units,
        # Raw accumulators (MarkerSummary reconstruction inputs).
        "counts": raw.counts,
        "sentiment_sums": raw.sentiment_sums,
        "vector_sums": raw.vector_sums,
        "num_phrases": raw.num_phrases,
        "num_reviews": raw.num_reviews,
        "vector_dims": raw.vector_dims,
        "kind_codes": raw.kind_codes,
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

    Opening verifies the container header and the CRC over the whole
    stored body (one sequential pass), then exposes each section as a
    zero-copy view into the map — pages fault in lazily as the serving
    layers touch them.  The map is read-only; ingest never mutates a
    column file in place (saves write fresh version-stamped files), so a
    view handed out before an ingest stays valid afterwards.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        try:
            self._map = np.memmap(path, dtype=np.uint8, mode="r")
        except (OSError, ValueError) as error:
            raise StorageError(f"cannot map column file {path} ({error})") from error
        data = self._map
        if len(data) < _CONTAINER_HEADER + 4:
            raise StorageError(f"column file {path} is truncated ({len(data)} bytes)")
        if bytes(data[: len(SNAPSHOT_MAGIC)]) != SNAPSHOT_MAGIC:
            raise StorageError(f"column file {path} is not a snapshot container (bad magic)")
        offset = len(SNAPSHOT_MAGIC)
        (container_version,) = _U16.unpack(bytes(data[offset : offset + 2]))
        offset += 2
        if container_version != SNAPSHOT_FORMAT_VERSION:
            raise StorageError(
                f"column file {path} has container format {container_version} "
                f"(this build reads {SNAPSHOT_FORMAT_VERSION})"
            )
        (checksum,) = _U32.unpack(bytes(data[offset : offset + 4]))
        offset += 4
        if zlib.crc32(data[offset:]) != checksum:
            raise StorageError(
                f"column file {path} failed its checksum (torn write or corruption)"
            )
        flags = int(data[offset])
        if not flags & SNAPSHOT_FLAG_COLUMN_FILE or flags != SNAPSHOT_FLAG_COLUMN_FILE:
            raise StorageError(
                f"column file {path} carries container flags {flags:#x}; expected a "
                f"plain column file ({SNAPSHOT_FLAG_COLUMN_FILE:#x})"
            )
        body_start = _CONTAINER_HEADER
        (meta_length,) = _U32.unpack(bytes(data[body_start : body_start + 4]))
        meta_end = body_start + 4 + meta_length
        if meta_end > len(data):
            raise StorageError(f"column file {path} meta JSON overruns the file")
        try:
            self.meta: dict = json.loads(bytes(data[body_start + 4 : meta_end]))
        except ValueError as error:
            raise StorageError(f"column file {path} has malformed meta JSON ({error})") from error
        stored_dtype = self.meta.get("dtype")
        if stored_dtype != COLUMN_FILE_DTYPE:
            raise StorageError(
                f"column file {path} stores dtype {stored_dtype!r} but this platform "
                f"maps {COLUMN_FILE_DTYPE!r}; re-save the store on this platform"
            )
        self._sections: dict[str, tuple[int, tuple[int, ...]]] = {}
        position = meta_end
        for entry in self.meta.get("sections", []):
            name, shape = entry[0], tuple(int(size) for size in entry[1])
            start = _align(position)
            nbytes = int(np.prod(shape, dtype=np.int64)) * 8
            if start + nbytes > len(data):
                raise StorageError(f"column file {path} section {name!r} overruns the file")
            self._sections[name] = (start, shape)
            position = start + nbytes

    # ------------------------------------------------------------- accessors
    @property
    def attribute(self) -> str:
        """The subjective attribute this file stores."""
        return str(self.meta["attribute"])

    @property
    def version(self) -> int:
        """The per-attribute version embedded at write time."""
        return int(self.meta["version"])

    @property
    def entity_ids(self) -> list[Hashable]:
        """Row-ordered entity ids (decoded from the meta JSON)."""
        return list(self.meta["entity_ids"])

    @property
    def markers(self) -> list[Marker]:
        """The attribute's markers, rebuilt from (name, position, sentiment)."""
        return [
            Marker(name=name, position=int(position), sentiment=float(sentiment))
            for name, position, sentiment in self.meta["markers"]
        ]

    @property
    def dimension(self) -> int:
        """Embedding dimension of the centroid/name sections (0 when absent)."""
        return int(self.meta["dimension"])

    @property
    def num_entities(self) -> int:
        """Number of entity rows in every (E, ...) section."""
        return len(self.meta["entity_ids"])

    def section(self, name: str) -> np.ndarray:
        """One section as a read-only zero-copy float64 view."""
        try:
            start, shape = self._sections[name]
        except KeyError:
            raise StorageError(
                f"column file {self.path} has no section {name!r}"
            ) from None
        nbytes = int(np.prod(shape, dtype=np.int64)) * 8
        return self._map[start : start + nbytes].view(COLUMN_FILE_DTYPE).reshape(shape)

    def columns(self) -> AttributeColumns:
        """The derived sections assembled into a serving-ready view."""
        return AttributeColumns(
            attribute=self.attribute,
            entity_ids=self.entity_ids,
            markers=self.markers,
            marker_sentiments=self.section("marker_sentiments"),
            fractions=self.section("fractions"),
            average_sentiments=self.section("average_sentiments"),
            totals=self.section("totals"),
            unmatched=self.section("unmatched"),
            overall_sentiments=self.section("overall_sentiments"),
            centroids_unit=self.section("centroids_unit"),
            name_units=self.section("name_units"),
        )

    def raw(self) -> RawSummaryColumns:
        """The raw accumulator sections as summary-reconstruction inputs."""
        return RawSummaryColumns(
            attribute=self.attribute,
            entity_ids=self.entity_ids,
            markers=self.markers,
            counts=self.section("counts"),
            sentiment_sums=self.section("sentiment_sums"),
            vector_sums=self.section("vector_sums"),
            num_phrases=self.section("num_phrases"),
            num_reviews=self.section("num_reviews"),
            unmatched=self.section("unmatched"),
            vector_dims=self.section("vector_dims"),
            kind_codes=self.section("kind_codes"),
        )


def load_column_file(path: str) -> MappedColumnFile:
    """Open and validate one column file (convenience wrapper)."""
    return MappedColumnFile(path)


def columns_filename(position: int, attribute: str, version: int) -> str:
    """Canonical version-stamped file name of one attribute's column file.

    Version-stamped names are what make saves copy-on-bump: a changed
    attribute gets a *new* file, so read-only maps of the previous
    generation stay valid in already-running readers.
    """
    slug = "".join(ch if ch.isalnum() else "_" for ch in attribute)
    return f"{position:02d}_{slug}.v{version}.snap"
