"""Columnar marker-summary storage and vectorized scoring kernels.

The membership functions of Section 3.3 read only precomputed marker
summaries, which makes each ``(summary, phrase)`` scoring cheap — but the
scalar path still visits entities one at a time from Python, so a cold
(uncached) predicate over E entities costs O(E·M) interpreted-loop
iterations.  This module applies the classic columnar-execution move from
the database literature: per subjective attribute, every entity's summary is
stacked into contiguous entity-major arrays, and one phrase is scored
against *all* entities with a handful of NumPy kernels.

Layout per attribute (:class:`AttributeColumns`):

* ``fractions`` / ``average_sentiments`` — E×M matrices;
* ``totals`` / ``unmatched`` / ``overall_sentiments`` — length-E vectors;
* ``centroids_unit`` — an E×M×D tensor of L2-prenormalized marker
  centroids, so phrase–centroid cosine similarity is one tensor–vector
  product per row block.  It holds almost every row byte, so it is stored
  as :class:`RowBlocks`: immutable :data:`BOUNDS_BLOCK_ROWS`-row blocks
  that column generations share, so a patch copies only the blocks holding
  its rows;
* ``name_units`` — the shared M×D matrix of L2-prenormalized marker-name
  vectors, so phrase–marker-name similarity is one matrix–vector product.

:class:`ColumnarSummaryStore` builds these lazily per attribute and keeps
them in step with :attr:`SubjectiveDatabase.data_version`, exactly like
the serving-layer caches: a journaled ingest patches its rows into a new
generation, any other change drops the columns.  Kernels mirror the scalar
membership arithmetic operation for operation, so degrees agree with the
per-entity path to floating-point round-off (the test suite pins
``atol=1e-9`` and identical rankings).

Entities whose summaries do not conform to the attribute's schema markers
(or that have no stored summary at all) are simply absent from the columns;
callers fall back to per-entity scalar scoring for them.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Hashable, Sequence

import numpy as np

from repro.core.column_image import SNAPSHOT_FLAG_DELTA, ColumnImage, pack_image, read_image
from repro.core.markers import Marker
from repro.errors import SchemaError, SnapshotError
from repro.obs import Counter, span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.database import SubjectiveDatabase
    from repro.core.membership import MembershipFunction


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    """L2-normalize the last axis, mapping zero vectors to zero vectors.

    Cosine similarity is invariant to positive scaling, so prenormalized
    rows turn every later cosine into a plain dot product; zero rows keep
    the scalar convention ``cosine(u, 0) == 0``.
    """
    norms = np.linalg.norm(matrix, axis=-1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return matrix / norms


#: Rows per block of the centroid tensor (:class:`RowBlocks`), and per step
#: when :meth:`ScoreBounds.of_columns` walks it (512 rows × 16 markers × 48
#: dims ≈ 3 MB per block and of temporaries).
BOUNDS_BLOCK_ROWS = 512


def _address(array: np.ndarray) -> int:
    """The address of an array's first element."""
    return array.__array_interface__["data"][0]


def _same_block(first: np.ndarray, second: np.ndarray) -> bool:
    """Whether two blocks are views of the same memory, hence equal.

    Both are alive, so equal addresses, shapes and strides mean one region;
    published blocks are never written, so that region holds one set of
    values.  A window's edge blocks are fresh view objects over a shared
    block, which is why this compares memory, not identity.
    """
    return first is second or (
        first.shape == second.shape
        and first.strides == second.strides
        and _address(first) == _address(second)
    )


class RowBlocks:
    """An immutable row-major array held as a sequence of read-only row blocks.

    Rows ``[starts[i], starts[i + 1])`` live in ``blocks[i]``.  Blocks are
    never written once published, so column generations share them: a patch
    copies only the blocks holding its rows (:meth:`with_rows`), a
    :meth:`window` shares every whole block it covers (its edges are views),
    and :meth:`rows_differing` skips the blocks two generations share.

    Reads go through :meth:`runs`: adjacent blocks that lie back to back in
    one buffer are read as one array, so a generation fresh from a build,
    an unpack or a mapped file is one run, and one patched block splits its
    run in three — a kernel pays one product per run, not per block.
    Indexing (``blocks[index]``) takes a unit-step slice or a sequence of
    row indices (non-negative) and returns a NumPy array: a view for a
    range inside one run, a copy otherwise.  ``numpy.asarray`` joins the
    runs; with ``copy=False`` it raises ``ValueError`` when there is more
    than one run to join.
    """

    __slots__ = ("blocks", "shape", "_starts", "_runs")

    def __init__(self, blocks: Sequence[np.ndarray], row_shape: tuple[int, ...]) -> None:
        self.blocks = tuple(block for block in blocks if len(block))
        starts = [0]
        for block in self.blocks:
            starts.append(starts[-1] + len(block))
        self._starts = np.asarray(starts, dtype=np.intp)
        self.shape = (starts[-1], *row_shape)
        self._runs: "tuple[tuple[int, np.ndarray], ...] | None" = None

    @classmethod
    def of_array(cls, array) -> "RowBlocks":
        """Read-only views of ``array`` in ``BOUNDS_BLOCK_ROWS``-row blocks (no copy, one run).

        The views keep all of ``array`` alive while any one of them lives,
        so the memory of a block a later generation replaced is returned
        only once every block of ``array`` has been replaced or dropped.
        """
        array = np.asarray(array, dtype=np.float64)
        blocks = []
        for start in range(0, len(array), BOUNDS_BLOCK_ROWS):
            block = array[start : start + BOUNDS_BLOCK_ROWS]
            block.flags.writeable = False
            blocks.append(block)
        return cls(blocks, array.shape[1:])

    def __len__(self) -> int:
        return self.shape[0]

    def runs(self) -> "tuple[tuple[int, np.ndarray], ...]":
        """``(first row, array)`` per maximal run of blocks back to back in one buffer.

        Views, never copies.  Blocks join a run when they are C-contiguous
        views of the same base object and each starts where the previous
        one ends, so the run is one region of that base.
        """
        if self._runs is None:
            spans: list[list] = []  # [first row, first block, rows]
            for start, block in zip(self._starts.tolist(), self.blocks):
                if spans:
                    _, first, rows = spans[-1]
                    if (
                        first.base is not None
                        and block.base is first.base
                        and first.flags.c_contiguous
                        and block.flags.c_contiguous
                        and _address(block) == _address(first) + rows * first.strides[0]
                    ):
                        spans[-1][2] += len(block)
                        continue
                spans.append([start, block, len(block)])
            self._runs = tuple(
                (
                    start,
                    first
                    if rows == len(first)
                    else np.lib.stride_tricks.as_strided(
                        first,
                        shape=(rows, *self.shape[1:]),
                        strides=first.strides,
                        writeable=False,
                    ),
                )
                for start, first, rows in spans
            )
        return self._runs

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        runs = [run for _, run in self.runs()]
        if copy is False and len(runs) > 1:
            raise ValueError(f"{len(runs)} runs cannot be joined without a copy")
        if len(runs) == 1 and not copy:
            array = runs[0]
        elif runs:
            array = np.concatenate(runs)
        else:
            array = np.zeros(self.shape)
        return array if dtype is None else array.astype(dtype, copy=False)

    def _owners(self, rows: np.ndarray) -> np.ndarray:
        """The block holding each of ``rows``."""
        return np.searchsorted(self._starts, rows, side="right") - 1

    def window(self, start: int, stop: int) -> "RowBlocks":
        """Rows ``[start, stop)``: whole blocks shared, edge blocks as views."""
        if start == 0 and stop == len(self):
            return self
        blocks = []
        for index, block in enumerate(self.blocks):
            first = int(self._starts[index])
            low, high = max(start - first, 0), min(stop - first, len(block))
            if low < high:
                blocks.append(block if high - low == len(block) else block[low:high])
        return RowBlocks(blocks, self.shape[1:])

    def take(self, rows) -> np.ndarray:
        """A copy of ``rows`` (any order, repeats allowed), gathered run by run."""
        rows = np.asarray(rows, dtype=np.intp).reshape(-1)
        runs = self.runs()
        if len(runs) == 1:
            return runs[0][1][rows]
        order = None
        if rows.size > 1 and bool(np.any(rows[1:] < rows[:-1])):
            order = np.argsort(rows, kind="stable")
            rows = rows[order]
        gathered = np.empty((rows.size, *self.shape[1:]))
        starts = [start for start, _ in runs]
        cuts = np.searchsorted(rows, [*starts, len(self)]).tolist()
        for (start, run), low, high in zip(runs, cuts, cuts[1:]):
            if low < high:
                np.take(run, rows[low:high] - start, axis=0, out=gathered[low:high])
        if order is None:
            return gathered
        restored = np.empty_like(gathered)
        restored[order] = gathered
        return restored

    def __getitem__(self, index) -> np.ndarray:
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                raise TypeError("RowBlocks slices take unit steps only")
            return np.asarray(self.window(start, max(start, stop)))
        if isinstance(index, (Sequence, np.ndarray)) and not isinstance(index, (str, bytes)):
            return self.take(index)
        raise TypeError(f"RowBlocks are indexed by a slice or a row sequence, not {index!r}")

    def with_rows(self, rows: Sequence[int], values) -> "RowBlocks":
        """A new generation with ``rows`` (ascending) set to ``values``.

        Only the blocks holding a row are copied; every other block is this
        generation's own, and this generation is left untouched.
        """
        rows = np.asarray(rows, dtype=np.intp)
        values = np.asarray(values)
        owners = self._owners(rows)
        blocks = list(self.blocks)
        for index in np.unique(owners).tolist():
            mask = owners == index
            block = blocks[index].copy()
            block[rows[mask] - self._starts[index]] = values[mask]
            block.flags.writeable = False
            blocks[index] = block
        return RowBlocks(blocks, self.shape[1:])

    def unshared_blocks(self, other: "RowBlocks") -> int:
        """How many of this array's blocks are not ``other``'s block at the same rows."""
        if not np.array_equal(self._starts, other._starts):
            return len(self.blocks)
        return sum(
            not _same_block(mine, theirs) for mine, theirs in zip(self.blocks, other.blocks)
        )

    def rows_differing(self, other: "RowBlocks") -> np.ndarray:
        """Per row, whether any value differs from ``other`` (``!=``).

        Blocks on the same row grid that share memory are skipped without
        a read; every other block is compared value by value.
        """
        if len(self) != len(other):
            raise ValueError(f"cannot compare {len(self)} rows with {len(other)}")
        axes = tuple(range(1, len(self.shape)))
        if not np.array_equal(self._starts, other._starts):
            return np.any(np.asarray(self) != np.asarray(other), axis=axes)
        changed = np.zeros(len(self), dtype=bool)
        for index, (mine, theirs) in enumerate(zip(self.blocks, other.blocks)):
            if not _same_block(mine, theirs):
                start = self._starts[index]
                changed[start : start + len(mine)] = np.any(mine != theirs, axis=axes)
        return changed


def slice_view(columns: "AttributeColumns", start: int, stop: int) -> "AttributeColumns":
    """A contiguous row range of ``columns`` as NumPy *views* (no copy).

    Basic slicing of the E axis shares the underlying buffers, and the
    centroid window shares the blocks it covers, so a slice view costs
    O(stop − start) only for the entity-id list (its row map is built on
    first use); the per-entity arrays and the shared marker data are the
    store's own.  This
    is the unit of placement for the sharded serving engine: every scoring
    kernel is row-independent, so running it over a slice view computes
    exactly the arithmetic the full pass would for those rows.
    """
    return AttributeColumns(
        attribute=columns.attribute,
        entity_ids=columns.entity_ids[start:stop],
        markers=columns.markers,
        marker_sentiments=columns.marker_sentiments,
        fractions=columns.fractions[start:stop],
        average_sentiments=columns.average_sentiments[start:stop],
        totals=columns.totals[start:stop],
        unmatched=columns.unmatched[start:stop],
        overall_sentiments=columns.overall_sentiments[start:stop],
        centroids_unit=columns.centroids_unit.window(start, stop),
        name_units=columns.name_units,
    )


def gather_rows(columns: "AttributeColumns", rows: list[int]) -> "AttributeColumns":
    """A row gather of ``columns`` restricted to ``rows`` (shared marker data).

    The scoring kernels are row-independent, so running them over a gather
    computes the same per-entity arithmetic as the full pass; used when the
    requested entities are a small slice of the store.
    """
    return AttributeColumns(
        attribute=columns.attribute,
        entity_ids=[columns.entity_ids[row] for row in rows],
        markers=columns.markers,
        marker_sentiments=columns.marker_sentiments,
        fractions=columns.fractions[rows],
        average_sentiments=columns.average_sentiments[rows],
        totals=columns.totals[rows],
        unmatched=columns.unmatched[rows],
        overall_sentiments=columns.overall_sentiments[rows],
        centroids_unit=columns.centroids_unit.take(rows),
        name_units=columns.name_units,
    )


def plan_slice_requests(
    bounds: Sequence[int],
    resident: Sequence[int],
    sparse_factor: int = 4,
) -> "list[tuple[int, int, int, list[int] | None, object]]":
    """Group sorted resident rows into per-slice score requests.

    ``bounds`` are the K+1 monotone partition bounds of the store's E axis
    (slice ``i`` owns rows ``[bounds[i], bounds[i+1])``); ``resident`` are
    the store-wide row indices to score, sorted ascending.  Returns one
    request tuple ``(slice_id, start, stop, rows, scatter)`` per slice that
    owns at least one resident row:

    * ``rows`` is ``None`` for a full-slice kernel pass, or slice-relative
      row indices when the resident rows are a sparse subset of the slice
      (fewer than ``1/sparse_factor`` of its rows — the columnar store's
      sparse-gather heuristic, applied per slice);
    * ``scatter`` places the request's result vector back into a store-wide
      degree array: a ``slice`` object for full passes, an index array for
      gathers.

    Empty slices produce no request, so shipping a request per tuple never
    sends empty work.  Shared by the in-process sharded store and the
    cluster coordinator — both fan out exactly these requests, only the
    transport differs.
    """
    requests: list[tuple[int, int, int, list[int] | None, object]] = []
    position = 0
    for slice_id, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        begin = position
        while position < len(resident) and resident[position] < stop:
            position += 1
        slice_rows = resident[begin:position]
        if not slice_rows:
            continue
        if len(slice_rows) * sparse_factor < stop - start:
            relative = [row - start for row in slice_rows]
            requests.append((slice_id, start, stop, relative, np.asarray(slice_rows)))
        else:
            requests.append((slice_id, start, stop, None, slice(start, stop)))
    return requests


@dataclass
class AttributeColumns:
    """Dense entity-major view of every marker summary of one attribute.

    Rows are aligned with ``entity_ids``; :attr:`row_of` maps an entity id
    back to its row.  All arrays are read-only snapshots of the summaries at
    one :attr:`SubjectiveDatabase.data_version`.  ``centroids_unit`` may be
    given as any E×M×D array; it is held as :class:`RowBlocks`.
    """

    attribute: str
    entity_ids: list[Hashable]
    markers: list[Marker]
    marker_sentiments: np.ndarray  # (M,)
    fractions: np.ndarray  # (E, M)
    average_sentiments: np.ndarray  # (E, M)
    totals: np.ndarray  # (E,)
    unmatched: np.ndarray  # (E,)
    overall_sentiments: np.ndarray  # (E,)
    centroids_unit: RowBlocks  # (E, M, D)
    name_units: np.ndarray  # (M, D)

    def __post_init__(self) -> None:
        if not isinstance(self.centroids_unit, RowBlocks):
            self.centroids_unit = RowBlocks.of_array(self.centroids_unit)

    @cached_property
    def row_of(self) -> dict[Hashable, int]:
        """Entity id → row, built on first use."""
        return {entity_id: row for row, entity_id in enumerate(self.entity_ids)}

    @property
    def num_entities(self) -> int:
        """Number of entity rows (E) in the column arrays."""
        return len(self.entity_ids)

    @property
    def num_markers(self) -> int:
        """Number of markers (M) of the attribute's schema."""
        return len(self.markers)

    @property
    def dimension(self) -> int:
        """Embedding dimension of the centroid/name vectors (0 when absent)."""
        return self.name_units.shape[1]


# --------------------------------------------------------------------------
# Column snapshots (deterministic, checksummed column images for shipping slices)
# --------------------------------------------------------------------------

#: The column arrays of a full snapshot and of a column file, in image order.
COLUMN_ARRAYS = (
    "marker_sentiments",
    "fractions",
    "average_sentiments",
    "totals",
    "unmatched",
    "overall_sentiments",
    "centroids_unit",
    "name_units",
)

#: The meta fields naming a snapshot's slice and version, full or delta.
_SLICE_FIELDS = ("data_version", "slice_id", "start", "stop")


def _snapshot_meta(snapshot: "ColumnSnapshot | SnapshotDelta") -> dict[str, object]:
    """The meta fields shared by full and delta snapshot images."""
    columns = snapshot.columns
    for entity_id in columns.entity_ids:
        # JSON must round-trip ids *exactly* — tuples would silently
        # come back as lists and break node-side row lookup.
        if entity_id is not None and not isinstance(entity_id, (str, int, float)):
            raise SnapshotError(
                f"entity id {entity_id!r} of attribute {columns.attribute!r} "
                "is not snapshot-serializable (ids must be str, int, float "
                "or None)"
            )
    return {
        "attribute": columns.attribute,
        "entity_ids": list(columns.entity_ids),
        "markers": [[marker.name, marker.position, marker.sentiment] for marker in columns.markers],
        "dimension": columns.dimension,
        **{name: getattr(snapshot, name) for name in _SLICE_FIELDS},
    }


def image_columns(image: ColumnImage, names: Sequence[str] = COLUMN_ARRAYS) -> "AttributeColumns":
    """The column arrays ``names`` of a verified image, as zero-copy columns.

    The image's meta gives the attribute, entity ids, marker triples and
    dimension, hence every array's shape; a missing section or one of
    another shape is a typed :class:`SnapshotError`.  Arrays not in
    ``names`` (a delta's shared marker data) are zeros of their shape.
    """
    entity_ids = list(image.field("entity_ids"))
    markers = [
        Marker(name, position, float(sentiment))
        for name, position, sentiment in image.field("markers")
    ]
    rows, width, dimension = len(entity_ids), len(markers), image.field("dimension")
    shapes = {
        "marker_sentiments": (width,),
        "name_units": (width, dimension),
        "centroids_unit": (rows, width, dimension),
        **dict.fromkeys(("fractions", "average_sentiments"), (rows, width)),
        **dict.fromkeys(("totals", "unmatched", "overall_sentiments"), (rows,)),
    }
    return AttributeColumns(
        attribute=image.field("attribute"),
        entity_ids=entity_ids,
        markers=markers,
        **{
            name: image.section(name, shape) if name in names else np.zeros(shape)
            for name, shape in shapes.items()
        },
    )


@dataclass(frozen=True)
class ColumnSnapshot:
    """One attribute slice's column arrays as a shippable, versioned unit.

    The snapshot is the sending half of the cluster hydration contract
    (:mod:`repro.serving.cluster`): instead of relying on ``fork`` to put a
    database copy inside every worker, the coordinator packs the slice's
    arrays — fractions, sentiments, totals, unmatched counts, the centroid
    tensor, the shared marker-name matrix, and the entity ids — into
    a deterministic column image — the storage tier's column-file format,
    :mod:`repro.core.column_image` — and ships it to a network-addressable
    shard node, which unpacks it into a kernel-ready :class:`AttributeColumns`
    view over the received bytes.

    ``data_version`` records the :attr:`SubjectiveDatabase.data_version`
    the arrays were built against, ``slice_id`` / ``start`` / ``stop``
    identify which contiguous row range of the attribute's E axis this is,
    and ``columns`` holds exactly those rows (``columns.num_entities ==
    stop - start``).

    Packing is deterministic — the same snapshot state always produces the
    same bytes — and self-checking: a CRC-32 over the body is verified by
    :meth:`unpack`, so a corrupted or truncated snapshot raises a typed
    :class:`repro.errors.SnapshotError` (checksum failures the narrower
    :class:`repro.errors.SnapshotIntegrityError`) instead of hydrating
    silently-wrong arrays.  Every float64 travels as its own native-endian
    bytes, so unpacked arrays are bit-identical to the packed ones — which
    is what lets hydrated nodes keep the stack's exact-equality guarantee —
    and unpacking copies nothing.
    """

    data_version: int
    slice_id: int
    start: int
    stop: int
    columns: AttributeColumns

    @classmethod
    def of_slice(
        cls,
        columns: "AttributeColumns",
        slice_id: int,
        start: int,
        stop: int,
        data_version: int,
    ) -> "ColumnSnapshot":
        """The snapshot of rows ``[start, stop)`` of ``columns``.

        The slice is taken with :func:`slice_view`, so building a snapshot
        copies nothing until :meth:`pack` serializes the arrays.
        """
        if not 0 <= start <= stop <= columns.num_entities:
            raise SnapshotError(
                f"slice [{start}, {stop}) out of range for attribute "
                f"{columns.attribute!r} ({columns.num_entities} entities)"
            )
        return cls(
            data_version=data_version,
            slice_id=slice_id,
            start=start,
            stop=stop,
            columns=slice_view(columns, start, stop),
        )

    def pack(self) -> bytes:
        """Serialize to a deterministic, checksummed column image (flags 0).

        The meta JSON carries ``data_version``, ``slice_id``, ``start``,
        ``stop``, the attribute name, the entity ids, the marker ``(name,
        position, sentiment)`` triples and the embedding dimension; the
        eight column arrays follow as native-endian float64 sections
        (:mod:`repro.core.column_image`).  Entity ids must be str, int,
        float or None (they round-trip through JSON exactly); anything else
        raises :class:`SnapshotError`.
        """
        sections = {name: getattr(self.columns, name) for name in COLUMN_ARRAYS}
        return bytes(pack_image(0, _snapshot_meta(self), sections))

    @classmethod
    def unpack(cls, payload) -> "ColumnSnapshot":
        """Rebuild a snapshot from :meth:`pack` bytes, verifying integrity.

        ``payload`` is any buffer; the arrays are read-only views into it
        (:func:`~repro.core.column_image.read_image`).  Raises
        :class:`repro.errors.SnapshotError` for a wrong magic, an
        unsupported format version, a delta frame or column file, or a
        malformed meta or section table, and
        :class:`repro.errors.SnapshotIntegrityError` when the checksum does
        not match — typed failures in every case, so a transport layer can
        refuse bad hydration data without ever serving from it.
        """
        image = read_image(payload, 0)
        fields = {name: image.field(name) for name in _SLICE_FIELDS}
        snapshot = cls(**fields, columns=image_columns(image))
        if snapshot.stop - snapshot.start != snapshot.columns.num_entities:
            raise SnapshotError(
                f"snapshot row range [{snapshot.start}, {snapshot.stop}) does not match "
                f"its {snapshot.columns.num_entities} entity ids"
            )
        return snapshot


#: The per-entity arrays besides the centroid tensor.  They hold a few
#: floats per row, so a new generation copies them whole.
_DENSE_ROW_ARRAYS = (
    "fractions",
    "average_sentiments",
    "totals",
    "unmatched",
    "overall_sentiments",
)


def _patched_columns(
    old: AttributeColumns, rows: "list[int]", patch: AttributeColumns
) -> AttributeColumns:
    """A new generation of ``old`` with ``rows`` (ascending) taken from ``patch``.

    ``patch`` holds exactly those rows, in order.  The dense row arrays are
    copied whole; of the centroid tensor only the blocks holding a row are
    copied (:meth:`RowBlocks.with_rows`).  ``old`` is left untouched, and
    the new generation shares its entity ids and row map.
    """
    arrays = {}
    for name in _DENSE_ROW_ARRAYS:
        array = np.array(getattr(old, name))
        array[rows] = getattr(patch, name)
        arrays[name] = array
    columns = replace(
        old, **arrays, centroids_unit=old.centroids_unit.with_rows(rows, patch.centroids_unit)
    )
    if "row_of" in vars(old):  # built already: the ids did not move
        columns.row_of = old.row_of
    return columns


@dataclass(frozen=True)
class SnapshotDelta:
    """The changed rows between two versions of one slice's snapshot.

    A small ingest typically touches a handful of entities, yet the
    ``data_version`` contract invalidates every hydrated slice — before
    deltas, each node re-downloaded its whole slice.  A delta carries only
    the rows whose per-entity arrays changed between ``base_version`` and
    ``data_version``: the receiver applies them over the base snapshot it
    still holds (:meth:`apply`) and obtains a snapshot *bit-identical* to
    the full pack of the new version, because every unchanged row is
    byte-equal by construction and every changed row ships its exact f64
    bits.

    ``rows`` are slice-relative indices, strictly ascending; ``columns``
    is a gather of exactly those rows (shared marker data included for
    shape bookkeeping, but the delta is only *eligible* when the shared
    ``marker_sentiments`` / ``name_units`` arrays and the slice's entity
    ids are unchanged — :meth:`between` returns ``None`` otherwise, and
    the coordinator falls back to a full snapshot).
    """

    base_version: int
    data_version: int
    slice_id: int
    start: int
    stop: int
    rows: tuple[int, ...]
    columns: AttributeColumns

    #: Per-entity arrays a delta ships, in wire order.
    _ROW_ARRAYS = (*_DENSE_ROW_ARRAYS, "centroids_unit")

    @property
    def num_rows(self) -> int:
        """Number of changed rows the delta carries."""
        return len(self.rows)

    @classmethod
    def between(
        cls,
        base: "ColumnSnapshot",
        new: "ColumnSnapshot",
        max_fraction: float = 0.5,
    ) -> "SnapshotDelta | None":
        """The delta turning ``base`` into ``new``, or ``None`` if ineligible.

        Eligibility is conservative — a delta is only built when applying
        it can reproduce the new snapshot bit-for-bit from the base:

        * same attribute, slice id and ``[start, stop)`` row range;
        * identical entity-id list (an ingest that adds entities moves the
          partition bounds — every slice re-ships in full);
        * identical marker schema and bit-equal shared arrays
          (``marker_sentiments``, ``name_units``) — those are not carried
          by the delta;
        * fewer than ``max_fraction`` of the rows changed (beyond that a
          full snapshot is no bigger and needs no base bookkeeping).

        Row change detection is exact (``!=`` on every f64 of a row), so
        an untouched row can never ride along and a touched row can never
        be missed.  Centroid blocks the two generations share are skipped
        without a read (:meth:`RowBlocks.rows_differing`): a one-row patch
        compares one tensor block, not the slice.
        """
        old, fresh = base.columns, new.columns
        if (
            base.slice_id != new.slice_id
            or base.start != new.start
            or base.stop != new.stop
            or old.attribute != fresh.attribute
            or (old.entity_ids is not fresh.entity_ids
                and list(old.entity_ids) != list(fresh.entity_ids))
            or old.markers != fresh.markers
            or old.dimension != fresh.dimension
            or not np.array_equal(old.marker_sentiments, fresh.marker_sentiments)
            or not np.array_equal(old.name_units, fresh.name_units)
        ):
            return None
        changed = (
            np.any(old.fractions != fresh.fractions, axis=1)
            | np.any(old.average_sentiments != fresh.average_sentiments, axis=1)
            | (old.totals != fresh.totals)
            | (old.unmatched != fresh.unmatched)
            | (old.overall_sentiments != fresh.overall_sentiments)
        )
        if old.dimension:
            changed |= old.centroids_unit.rows_differing(fresh.centroids_unit)
        rows = [int(row) for row in np.flatnonzero(changed)]
        if len(rows) > max_fraction * max(1, fresh.num_entities):
            return None
        return cls(
            base_version=base.data_version,
            data_version=new.data_version,
            slice_id=new.slice_id,
            start=new.start,
            stop=new.stop,
            rows=tuple(rows),
            columns=gather_rows(fresh, rows),
        )

    @classmethod
    def unchanged(cls, base: "ColumnSnapshot", data_version: int) -> "SnapshotDelta":
        """The empty delta moving ``base`` to ``data_version``.

        Exactly what :meth:`between` returns for ``base`` and a snapshot cut
        from the same column generation at ``data_version``, without
        comparing a row — for a sender that knows the generation did not
        change.
        """
        return cls(
            base_version=base.data_version,
            data_version=data_version,
            slice_id=base.slice_id,
            start=base.start,
            stop=base.stop,
            rows=(),
            columns=gather_rows(base.columns, []),
        )

    def pack(self) -> bytes:
        """Serialize to a column image with :data:`SNAPSHOT_FLAG_DELTA` set.

        The meta carries ``base_version`` and the ascending, slice-relative
        ``rows`` besides a full snapshot's fields (its entity ids are the
        *changed* rows' ids); the sections are the per-row arrays in
        :attr:`_ROW_ARRAYS` order.
        """
        meta = {**_snapshot_meta(self), "base_version": self.base_version, "rows": list(self.rows)}
        sections = {name: getattr(self.columns, name) for name in self._ROW_ARRAYS}
        return bytes(pack_image(SNAPSHOT_FLAG_DELTA, meta, sections))

    @classmethod
    def unpack(cls, payload) -> "SnapshotDelta":
        """Rebuild a delta from :meth:`pack` bytes, verifying integrity.

        Same typed-failure contract as :meth:`ColumnSnapshot.unpack`
        (:class:`SnapshotError` on malformed/mistyped frames — including a
        *full* snapshot frame handed here — and
        :class:`SnapshotIntegrityError` on checksum mismatch).  The shared
        arrays are not carried: the delta contract is that the base's are
        still current, and :meth:`apply` reuses them.
        """
        image = read_image(payload, SNAPSHOT_FLAG_DELTA)
        delta = cls(
            base_version=image.field("base_version"),
            **{name: image.field(name) for name in _SLICE_FIELDS},
            rows=tuple(image.field("rows")),
            columns=image_columns(image, cls._ROW_ARRAYS),
        )
        if delta.num_rows != delta.columns.num_entities:
            raise SnapshotError(
                f"delta carries {delta.num_rows} rows but {delta.columns.num_entities} entity ids"
            )
        return delta

    def apply(self, base: "ColumnSnapshot") -> "ColumnSnapshot":
        """The new-version snapshot obtained by patching ``base``.

        Every mismatch between the delta's expectations and the offered
        base — version skew, a different slice, a different attribute or
        marker schema, or entity ids that moved — raises a typed
        :class:`SnapshotError`; the node-side transport turns that into a
        transported error and the coordinator re-ships a full snapshot.
        Unchanged rows are shared with the base arrays byte-for-byte, so a
        lossless delta applied to a lossless base reproduces exactly the
        bits a full snapshot of the new version would carry.  Only the
        centroid blocks holding a changed row are copied; the rest, the
        entity ids and their row map are the base's own objects.
        """
        old = base.columns
        if base.data_version != self.base_version:
            raise SnapshotError(
                f"delta base version skew: delta was built against version "
                f"{self.base_version}, the offered base holds {base.data_version}"
            )
        if (
            base.slice_id != self.slice_id
            or base.start != self.start
            or base.stop != self.stop
            or old.attribute != self.columns.attribute
        ):
            raise SnapshotError(
                f"delta for slice {self.slice_id} of {self.columns.attribute!r} "
                f"[{self.start}, {self.stop}) does not match base slice "
                f"{base.slice_id} of {old.attribute!r} [{base.start}, {base.stop})"
            )
        if old.markers != self.columns.markers or old.dimension != self.columns.dimension:
            raise SnapshotError("delta marker schema does not match its base")
        rows = list(self.rows)
        if any(row >= old.num_entities for row in rows):
            raise SnapshotError("delta row indices out of range for its base")
        changed_ids = [old.entity_ids[row] for row in rows]
        if changed_ids != list(self.columns.entity_ids):
            raise SnapshotError("delta entity ids do not match the base rows")
        if not rows:
            # Snapshots are never written after construction, so the new
            # version shares every array of its base.
            return replace(base, data_version=self.data_version)
        columns = _patched_columns(old, rows, self.columns)
        return ColumnSnapshot(
            data_version=self.data_version,
            slice_id=self.slice_id,
            start=self.start,
            stop=self.stop,
            columns=columns,
        )


# --------------------------------------------------------------------------
# Scoring kernels (attribute-wide; one phrase against all E entities)
# --------------------------------------------------------------------------

def phrase_marker_similarities(
    columns: AttributeColumns, phrase_vector: np.ndarray | None
) -> np.ndarray:
    """E×M similarities of one phrase to each marker (name vs centroid max).

    Mirrors the scalar ``_marker_similarities_ctx``: per marker, the larger
    of the phrase's cosine to the marker *name* and to the marker's phrase
    *centroid*.  The name term is one M×D matrix–vector product shared by
    all entities; the centroid term is one tensor–vector product per run of
    centroid blocks (:meth:`RowBlocks.runs`).
    """
    shape = (columns.num_entities, columns.num_markers)
    if phrase_vector is None or columns.dimension == 0:
        return np.zeros(shape)
    norm = float(np.linalg.norm(phrase_vector))
    if norm == 0.0:
        return np.zeros(shape)
    unit = phrase_vector / norm
    name_similarities = columns.name_units @ unit  # (M,)
    # One 2-D GEMV per flattened (rows·M)×D run instead of E batched
    # (M×D)·D products: the same per-row dot products (each output element
    # is the dot of one centroid row with ``unit``) without the batched-
    # matmul dispatch overhead per entity.
    parts = [
        (run.reshape(-1, run.shape[-1]) @ unit).reshape(len(run), columns.num_markers)
        for _, run in columns.centroids_unit.runs()
    ]
    if len(parts) == 1:
        centroid_similarities = parts[0]  # (E, M)
    else:
        centroid_similarities = np.concatenate(parts) if parts else np.zeros(shape)
    return np.maximum(name_similarities[np.newaxis, :], centroid_similarities)


def similarity_mass(
    columns: AttributeColumns, similarities: np.ndarray
) -> np.ndarray:
    """Length-E similarity-mass vector (scalar ``_similarity_mass_ctx``).

    Phrase mass concentrated on the markers most similar to the phrase,
    normalized by the summary's peak marker fraction; 0.5 (the neutral
    prior) where the phrase matches no marker or the summary is empty.
    """
    positives = np.clip(similarities, 0.0, None) ** 2  # (E, M)
    positive_sums = positives.sum(axis=1)  # (E,)
    safe_sums = np.where(positive_sums > 0.0, positive_sums, 1.0)
    weights = positives / safe_sums[:, np.newaxis]
    expected = np.einsum("em,em->e", weights, columns.fractions)
    peaks = columns.fractions.max(axis=1)
    mass = np.minimum(1.0, expected / (peaks + 1e-9))
    neutral = (positive_sums <= 0.0) | (columns.totals == 0.0)
    return np.where(neutral, 0.5, mass)


def marker_polarities(columns: AttributeColumns, index=np.s_[:]) -> np.ndarray:
    """E×M marker polarities: observed average sentiment, else the marker's own.

    ``index`` (a slice or row list) restricts the result to those rows.
    """
    sentiments = columns.average_sentiments[index]
    return np.where(
        np.abs(sentiments) > 1e-9,
        sentiments,
        columns.marker_sentiments[np.newaxis, :],
    )


def _signed_aligned_mass(
    fractions: np.ndarray, clipped_polarities: np.ndarray, totals: np.ndarray, sign: float
) -> np.ndarray:
    """Aligned mass of some rows for a phrase polarity of ``sign`` (±1)."""
    alignments = 0.5 * (1.0 + sign * clipped_polarities)
    mass = np.einsum("em,em->e", fractions, alignments)
    return np.where(totals == 0.0, 0.0, mass)


def aligned_mass(columns: AttributeColumns, phrase_polarity: float) -> np.ndarray:
    """Length-E sentiment-aligned mass vector (scalar ``_aligned_mass``).

    Depends on the phrase only through its polarity's sign, so
    :class:`ScoreBounds` keeps both variants (:meth:`ScoreBounds.aligned_mass`).
    """
    sign = 1.0 if phrase_polarity >= 0 else -1.0
    return _signed_aligned_mass(
        columns.fractions,
        np.clip(marker_polarities(columns), -1.0, 1.0),
        columns.totals,
        sign,
    )


def summary_feature_matrix(
    columns: AttributeColumns,
    phrase_vector: np.ndarray | None,
    phrase_sentiment: float,
) -> np.ndarray:
    """E×12 feature matrix: row i is ``summary_feature_vector`` of entity i.

    Feeds :class:`repro.core.membership.LearnedMembership` through a single
    logistic matrix–vector product instead of E independent scorings.  The
    caller supplies the phrase's embedding vector and sentiment so this
    module stays free of the membership layer's text models.
    """
    similarities = phrase_marker_similarities(columns, phrase_vector)
    mass = similarity_mass(columns, similarities)
    aligned = aligned_mass(columns, phrase_sentiment)
    rows = np.arange(columns.num_entities)
    best = similarities.argmax(axis=1)
    denominators = columns.unmatched + columns.totals
    unmatched_fractions = np.where(
        denominators > 0.0,
        columns.unmatched / np.where(denominators > 0.0, denominators, 1.0),
        0.0,
    )
    return np.column_stack(
        [
            np.log1p(columns.totals),
            aligned,
            mass,
            columns.fractions[rows, best],
            similarities[rows, best],
            columns.average_sentiments[rows, best],
            columns.overall_sentiments,
            np.full(columns.num_entities, phrase_sentiment),
            phrase_sentiment * columns.overall_sentiments,
            unmatched_fractions,
            np.einsum("em,em->e", columns.fractions, columns.average_sentiments),
            (columns.totals == 0.0).astype(np.float64),
        ]
    )


# --------------------------------------------------------------------------
# Score bounds (per-slice summaries powering threshold-style top-k pruning)
# --------------------------------------------------------------------------

#: Absolute safety margin folded into every score *upper* bound before a
#: prune decision.  Bound arithmetic orders floating-point operations
#: differently from the exact kernels, so a mathematically-tight bound can
#: land a few ulps below the exact value; the margin absorbs that without
#: giving up measurable pruning power (real score gaps between entities are
#: orders of magnitude larger).
PRUNE_MARGIN = 1e-9

#: Conditions whose whole-store ``[lo, hi]`` envelope a store keeps (least
#: recently used dropped first).  An envelope is two E-float vectors, so a
#: stream of distinct phrases would otherwise grow the cache by 16·E bytes
#: per condition until the next ingest; a query re-reads only the handful of
#: envelopes of its own predicates.
ENVELOPE_CACHE_ENTRIES = 64


@dataclass
class ScoreBounds:
    """Per-entity bound ingredients for one attribute's column arrays.

    Built once per ``data_version`` alongside :class:`AttributeColumns` and
    invalidated on the same contract, these summaries let a membership
    function compute a sound ``[lo, hi]`` envelope of its exact degree for
    *every* entity without touching the E×M×D centroid tensor at query
    time:

    * ``deviations`` — M×E matrix of ``‖centroid_unit − name_unit‖₂``
      (zero where an entity has no phrases for the marker): by
      Cauchy–Schwarz against a unit phrase vector, the phrase–centroid
      cosine is within ``deviations`` of the phrase–name cosine, which is
      shared by all entities and costs one M×D GEMV;
    * ``fractions_mt`` — the marker-fraction matrix, marker-major (M×E);
    * ``fraction_peaks`` / ``fraction_mins`` — per-row extrema of the
      marker-fraction matrix (the peak doubles as the ISSUE-level "max
      marker fraction" slice cap);
    * ``sentiment_mins`` / ``sentiment_maxs`` — per-row extrema of the
      average-sentiment matrix;
    * ``aligned_positive`` / ``aligned_negative`` — :func:`aligned_mass`
      for a positive and a negative phrase polarity, the only two values
      it takes (:meth:`aligned_mass`);
    * ``max_fraction`` / ``max_abs_sentiment`` — scalar caps over the whole
      slice, the cheapest possible "can anything here still matter?" test.

    The two per-marker matrices are marker-major so that every E×M step
    of :func:`similarity_mass_bounds` runs over contiguous length-E rows
    and reduces over axis 0; the column arrays themselves stay
    entity-major for the exact kernels.

    ``slice`` / ``narrowed`` mirror :func:`slice_view` / :func:`gather_rows`
    so the sharded and cluster layers can bound exactly the rows a
    request ships.
    """

    columns: AttributeColumns
    deviations: np.ndarray  # (M, E)
    fractions_mt: np.ndarray  # (M, E)
    fraction_peaks: np.ndarray  # (E,)
    fraction_mins: np.ndarray  # (E,)
    sentiment_mins: np.ndarray  # (E,)
    sentiment_maxs: np.ndarray  # (E,)
    aligned_positive: np.ndarray  # (E,)
    aligned_negative: np.ndarray  # (E,)
    max_fraction: float
    max_abs_sentiment: float

    #: The per-row arrays: copied by :meth:`patched`, restricted by
    #: :meth:`slice` / :meth:`narrowed`.
    _ROW_VECTORS = (
        "fraction_peaks",
        "fraction_mins",
        "sentiment_mins",
        "sentiment_maxs",
        "aligned_positive",
        "aligned_negative",
    )
    _MARKER_MAJOR = ("deviations", "fractions_mt")

    @property
    def num_entities(self) -> int:
        """Number of entity rows the bounds cover."""
        return self.columns.num_entities

    def aligned_mass(self, phrase_polarity: float) -> np.ndarray:
        """:func:`aligned_mass` of the bounded columns, bit for bit, without recomputing it."""
        return self.aligned_positive if phrase_polarity >= 0 else self.aligned_negative

    @classmethod
    def of_columns(cls, columns: AttributeColumns) -> "ScoreBounds":
        """Build bound summaries for ``columns`` (one pass over the arrays)."""
        num_entities = columns.num_entities
        per_marker = (columns.num_markers, num_entities)
        bounds = cls(
            columns=columns,
            deviations=np.zeros(per_marker),
            fractions_mt=np.zeros(per_marker),
            **{name: np.zeros(num_entities) for name in cls._ROW_VECTORS},
            max_fraction=0.0,
            max_abs_sentiment=0.0,
        )
        # Row blocks: the arithmetic is row-independent, and one shot would
        # materialise two E×M×D temporaries (the difference and its square)
        # beside the tensor itself.
        for start in range(0, num_entities, BOUNDS_BLOCK_ROWS):
            bounds._fill(np.s_[start : start + BOUNDS_BLOCK_ROWS])
        bounds._set_caps()
        return bounds

    def patched(self, columns: AttributeColumns, rows: "list[int]") -> "ScoreBounds":
        """Bounds of ``columns``, a generation differing from this one's in ``rows``.

        The per-row arrays are copied and only ``rows`` recomputed, by the
        code :meth:`of_columns` runs on every row, so the result equals
        ``of_columns(columns)`` bit for bit; this object is left untouched.
        With no rows to recompute the arrays are shared, not copied: no
        published bounds object is ever written again.
        """
        if not rows:
            return replace(self, columns=columns)
        bounds = replace(
            self,
            columns=columns,
            **{
                name: getattr(self, name).copy()
                for name in (*self._MARKER_MAJOR, *self._ROW_VECTORS)
            },
        )
        bounds._fill(rows)
        bounds._set_caps()
        return bounds

    def _fill(self, index) -> None:
        """Compute the per-row bound arrays at ``index`` (a slice or row list)."""
        columns = self.columns
        if not columns.num_markers:
            return
        if columns.dimension:
            block = columns.centroids_unit[index]
            # A zero centroid scores cosine 0, never name-similarity ± 1:
            # its true similarity is exactly the name similarity floor, so
            # deviation 0 is both sound and maximally tight there.
            self.deviations[:, index] = np.where(
                np.linalg.norm(block, axis=-1) == 0.0,
                0.0,
                np.linalg.norm(block - columns.name_units[np.newaxis, :, :], axis=-1),
            ).T
        fractions = columns.fractions[index]
        sentiments = columns.average_sentiments[index]
        self.fractions_mt[:, index] = fractions.T
        self.fraction_peaks[index] = fractions.max(axis=1)
        self.fraction_mins[index] = fractions.min(axis=1)
        self.sentiment_mins[index] = sentiments.min(axis=1)
        self.sentiment_maxs[index] = sentiments.max(axis=1)
        clipped = np.clip(marker_polarities(columns, index), -1.0, 1.0)
        totals = columns.totals[index]
        self.aligned_positive[index] = _signed_aligned_mass(fractions, clipped, totals, 1.0)
        self.aligned_negative[index] = _signed_aligned_mass(fractions, clipped, totals, -1.0)

    def _set_caps(self) -> None:
        """Derive the two whole-slice scalar caps from the per-row arrays."""
        self.max_fraction = float(self.fraction_peaks.max(initial=0.0))
        self.max_abs_sentiment = max(
            float(np.abs(self.sentiment_mins).max(initial=0.0)),
            float(np.abs(self.sentiment_maxs).max(initial=0.0)),
        )

    def _restrict(self, columns: AttributeColumns, index) -> "ScoreBounds":
        bounds = replace(
            self,
            columns=columns,
            **{name: getattr(self, name)[:, index] for name in self._MARKER_MAJOR},
            **{name: getattr(self, name)[index] for name in self._ROW_VECTORS},
        )
        bounds._set_caps()
        return bounds

    def slice(self, start: int, stop: int) -> "ScoreBounds":
        """Bounds of the contiguous row range ``[start, stop)`` (views)."""
        return self._restrict(
            slice_view(self.columns, start, stop), np.s_[start:stop]
        )

    def narrowed(self, rows: "list[int]") -> "ScoreBounds":
        """Bounds of a row gather restricted to ``rows``."""
        return self._restrict(
            gather_rows(self.columns, list(rows)),
            np.asarray(rows, dtype=np.intp),
        )


def similarity_mass_bounds(
    bounds: ScoreBounds, phrase_vector: "np.ndarray | None"
) -> "tuple[np.ndarray, np.ndarray]":
    """Sound per-entity ``[lo, hi]`` envelope of :func:`similarity_mass`.

    The exact mass needs the E×M×D centroid tensor; the envelope needs only
    the shared phrase–name similarities (one M×D GEMV) and the precomputed
    centroid deviations: every marker similarity ``s`` satisfies
    ``name_sim ≤ s ≤ name_sim + deviation`` (the max of two cosines is at
    least the name cosine; Cauchy–Schwarz caps the centroid cosine from
    above).  Squared-positive masses are then bracketed per marker, and the
    normalized expectation is bracketed by the ratio of the bracketed sums.
    Where centroids coincide with marker names (deviation 0) the envelope
    collapses to the exact value up to :data:`PRUNE_MARGIN`.

    Every E×M step runs on the marker-major matrices of ``bounds``: one
    contiguous length-E row per marker, reduced over axis 0, with one M×E
    temporary built in place.
    """
    columns = bounds.columns
    num_entities = columns.num_entities
    neutral_everywhere = (
        np.full(num_entities, 0.5),
        np.full(num_entities, 0.5),
    )
    if (
        phrase_vector is None
        or columns.dimension == 0
        or columns.num_markers == 0
    ):
        return neutral_everywhere
    norm = float(np.linalg.norm(phrase_vector))
    if norm == 0.0:
        return neutral_everywhere
    unit = phrase_vector / norm
    name_similarities = columns.name_units @ unit  # (M,)
    fractions = bounds.fractions_mt  # (M, E)
    positives_lo = np.clip(name_similarities, 0.0, None) ** 2  # (M,)
    positives_hi = bounds.deviations + name_similarities[:, np.newaxis]  # (M, E)
    np.maximum(positives_hi, 0.0, out=positives_hi)
    np.square(positives_hi, out=positives_hi)
    lo_sum = float(positives_lo.sum())
    hi_sums = positives_hi.sum(axis=0)  # (E,)
    numerator_lo = columns.fractions @ positives_lo  # (E,): one row-major GEMV
    # Upper bound on the normalized expectation: it is a weighted average of
    # fractions over the (unknown) positive-similarity support, so it can
    # never exceed the largest fraction with a possibly-positive mass; when
    # the phrase is certainly similarity-positive the hi/lo sum ratio is a
    # second, usually tighter cap.
    expected_hi = np.zeros(num_entities)
    for marker, certain in enumerate(positives_lo > 0.0):
        # A marker whose name similarity is positive has a positive mass on
        # every row (deviations are ≥ 0), so it needs no mask.
        row = fractions[marker]
        np.maximum(
            expected_hi,
            row if certain else row * (positives_hi[marker] > 0.0),
            out=expected_hi,
        )
    if lo_sum > 0.0:
        numerator_hi = np.einsum("me,me->e", positives_hi, fractions)
        expected_hi = np.minimum(expected_hi, numerator_hi / lo_sum)
    safe_hi_sums = np.where(hi_sums > 0.0, hi_sums, 1.0)
    expected_lo = np.where(hi_sums > 0.0, numerator_lo / safe_hi_sums, 0.0)
    denominators = bounds.fraction_peaks + 1e-9
    hi = np.minimum(1.0, expected_hi / denominators + PRUNE_MARGIN)
    lo = np.maximum(0.0, np.minimum(1.0, expected_lo / denominators) - PRUNE_MARGIN)
    if lo_sum <= 0.0:
        # The phrase is not certainly similarity-positive: any row may fall
        # back to the 0.5 neutral prior, so the envelope must include it.
        hi = np.maximum(hi, 0.5)
        lo = np.minimum(lo, 0.5)
    certainly_neutral = (hi_sums <= 0.0) | (columns.totals == 0.0)
    hi = np.where(certainly_neutral, 0.5, hi)
    lo = np.where(certainly_neutral, 0.5, lo)
    return lo, hi


def bounded_pair_degrees(
    kernel,
    columns: AttributeColumns,
    phrase: str,
    upper: np.ndarray,
    threshold: float,
    rows: np.ndarray,
    values: np.ndarray,
    known: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray, int, int]":
    """Threshold-pruned degrees of one phrase at ``rows`` of ``columns``, memoised.

    ``upper`` is a sound per-row degree upper bound over every row of
    ``columns`` (an envelope's ``hi`` end); ``values`` / ``known`` memoise
    exact degrees over the same rows and are updated in place.  Known rows
    are answered from the memo.  Of the others, rows whose bound falls
    below ``threshold`` are *pruned* — their exact degree provably cannot
    reach the current k-th score on any AND-path, so the bound itself is
    returned — and the rest are scored exactly: through a row gather when
    they are sparse, else by one kernel pass over every row, all of which
    are then known.  Every exact value is bit-identical to the unpruned
    kernel.

    Returns ``(values, exact_mask, scored, pruned)`` aligned with ``rows``
    — ``scored`` counts the requested rows the kernel evaluated,
    ``pruned`` the bound-only ones.
    """
    missing = rows[~known[rows]]
    wanted = missing[upper[missing] >= threshold]
    if wanted.size * 4 >= columns.num_entities > 0:
        values[:] = kernel(columns, phrase)
        known[:] = True
    elif wanted.size:
        values[wanted] = kernel(gather_rows(columns, wanted.tolist()), phrase)
        known[wanted] = True
    exact = known[rows]
    return (
        np.where(exact, values[rows], upper[rows]),
        exact,
        int(wanted.size),
        int(missing.size - wanted.size),
    )


# --------------------------------------------------------------------------
# Shared scoring plumbing (used by the store and the sharded store)
# --------------------------------------------------------------------------

def columnar_kernel(membership: "MembershipFunction", database: "SubjectiveDatabase"):
    """The membership's columnar kernel, or ``None`` when it cannot be used.

    A kernel is usable only when the membership function exposes one *and*
    scores with the same embedder the column arrays were built from; any
    other combination must take the scalar path to keep results identical.
    """
    kernel = getattr(membership, "degrees_columnar", None)
    if kernel is None:
        return None
    if getattr(membership, "embedder", None) is not database.phrase_embedder:
        return None
    return kernel


def gather_degrees(
    batch: np.ndarray | None,
    rows: "list[int | None]",
    entity_ids: Sequence[Hashable],
    fallback,
) -> list[float]:
    """Per-entity degree list from a batch vector plus a scalar fallback.

    When every requested entity is resident (the common case) the gather is
    one fancy-index + ``tolist`` — no per-entity Python loop; otherwise
    absent entities are scored through ``fallback`` one by one.
    """
    if batch is not None and None not in rows:
        return batch[np.fromiter(rows, dtype=np.intp, count=len(rows))].tolist()
    degrees: list[float] = []
    for entity_id, row in zip(entity_ids, rows):
        if row is not None:
            degrees.append(float(batch[row]))
        else:
            degrees.append(fallback(entity_id))
    return degrees


def scalar_fallback_scorer(
    membership: "MembershipFunction",
    database: "SubjectiveDatabase",
    attribute: str,
    phrase: str,
    columns: AttributeColumns,
):
    """Per-entity scorer for entities absent from the columns.

    A context-capable membership shares one phrase context — primed from the
    store's marker-name matrix — across all absent entities; otherwise each
    entity pays a full scalar :meth:`MembershipFunction.degree`.
    """
    make_context = getattr(membership, "context_for", None)
    context_degree = getattr(membership, "context_degree", None)
    context: list = []  # lazily built so cache-warm calls never pay for it

    def score(entity_id: Hashable) -> float:
        """Scalar degree of one absent-from-columns entity."""
        summary = database.marker_summary(entity_id, attribute)
        if make_context is not None and context_degree is not None:
            if not context:
                primed = make_context(phrase)
                primed.prime_name_similarities(columns)
                context.append(primed)
            return float(context_degree(summary, context[0]))
        return float(membership.degree(summary, phrase))

    return score


def _summary_rows(summaries, num_markers: int, dimension: int) -> dict[str, np.ndarray]:
    """Every per-entity array of ``summaries``, one row per summary, in order.

    The one per-row fill behind both a full build and a patch; centroids
    are L2-normalised per row, so a patched row equals a built one bit for
    bit.
    """
    count = len(summaries)
    arrays = {
        "fractions": np.empty((count, num_markers)),
        "average_sentiments": np.empty((count, num_markers)),
        "totals": np.empty(count),
        "unmatched": np.empty(count),
        "overall_sentiments": np.empty(count),
    }
    centroids = np.zeros((count, num_markers, dimension))
    for row, summary in enumerate(summaries):
        summary_arrays = summary.arrays()
        arrays["fractions"][row] = summary_arrays.fractions
        arrays["average_sentiments"][row] = summary_arrays.average_sentiments
        arrays["totals"][row] = summary_arrays.total
        arrays["unmatched"][row] = summary.num_unmatched
        arrays["overall_sentiments"][row] = summary.overall_sentiment()
        if dimension:
            centroids[row] = summary.vector_matrix(dimension)
    arrays["centroids_unit"] = _unit_rows(centroids) if dimension else centroids
    return arrays


# --------------------------------------------------------------------------
# The store
# --------------------------------------------------------------------------

class ColumnarSummaryStore:
    """Lazily built per-attribute column arrays over a subjective database.

    Columns are built on first use per attribute.  Whenever
    :attr:`SubjectiveDatabase.data_version` moves, the next read catches up
    (:meth:`sync`): when the database's change journal names the summaries
    replaced since, only their rows are rewritten, into a *new*
    :class:`AttributeColumns` generation — a published generation is never
    mutated, so a reader (or a delta base) holding the previous one keeps
    seeing the old values.  Any change the journal cannot explain drops
    everything, so the store can never serve degrees computed from stale
    summaries.
    """

    def __init__(self, database: "SubjectiveDatabase") -> None:
        self.database = database
        self._columns: dict[str, AttributeColumns | None] = {}
        self._bounds: dict[str, ScoreBounds | None] = {}
        self._envelopes: OrderedDict[
            tuple[str, str], "tuple[np.ndarray, np.ndarray] | None"
        ] = OrderedDict()
        self._envelope_membership: object | None = None
        self._version = database.data_version
        self.builds = 0
        self.invalidations = 0
        self.patches = 0
        self.rows_patched = 0
        self.tensor_blocks_copied = Counter(
            "tensor_blocks_copied", help="Centroid blocks a patch copied (the rest are shared)"
        )

    # ------------------------------------------------------------ lifecycle
    def invalidate(self) -> None:
        """Drop every built column set and resnapshot the data version."""
        self._columns.clear()
        self._bounds.clear()
        self._envelopes.clear()
        self._envelope_membership = None
        self._version = self.database.data_version
        self.invalidations += 1

    def sync(self) -> None:
        """Catch up with the database: patch the replaced rows, else drop all.

        Runs before every read.  Review-only ingests keep every object;
        replaced summaries of entities that have a row (and still conform
        to the attribute's markers) cost their rows; everything else is
        :meth:`invalidate`.
        """
        version = self.database.data_version
        if self._version == version:
            return
        replaced = self.database.changes_since(self._version)
        if replaced is not None and self._patch(replaced):
            self._version = version
        else:
            self.invalidate()

    def _patch(self, replaced: "frozenset[tuple[Hashable, str]]") -> bool:
        """Publish patched generations of the built attributes in ``replaced``.

        ``False`` (nothing changed) when a replaced summary cannot take the
        row it had: its entity has none, or its markers no longer conform.
        Attributes not built yet are skipped — their first read builds them
        from the current summaries.  A patch copies the dense row arrays and
        only the centroid blocks holding its rows; the new generation shares
        every other block with the old one (``tensor_blocks_copied`` counts
        the copies).
        """
        touched: dict[str, dict[int, object]] = {}
        for entity_id, attribute in replaced:
            if attribute not in self._columns:
                continue
            columns = self._columns[attribute]
            row = None if columns is None else columns.row_of.get(entity_id)
            summary = self.database.marker_summary(entity_id, attribute)
            if row is None or summary.markers != columns.markers:
                return False
            touched.setdefault(attribute, {})[row] = summary
        for attribute, summaries in touched.items():
            rows = sorted(summaries)
            with span("columns_patch", attribute=attribute, rows=len(rows)):
                old = self._columns[attribute]
                patch = AttributeColumns(
                    attribute=attribute,
                    entity_ids=[old.entity_ids[row] for row in rows],
                    markers=old.markers,
                    marker_sentiments=old.marker_sentiments,
                    **_summary_rows(
                        [summaries[row] for row in rows], old.num_markers, old.dimension
                    ),
                    name_units=old.name_units,
                )
                # A new generation (copied rows of mapped arrays land in
                # RAM): the old one stays as its readers saw it.
                columns = _patched_columns(old, rows, patch)
                self.tensor_blocks_copied += columns.centroids_unit.unshared_blocks(
                    old.centroids_unit
                )
                self._columns[attribute] = columns
                if attribute in self._bounds:
                    self._bounds[attribute] = self._bounds[attribute].patched(columns, rows)
                for key in [key for key in self._envelopes if key[0] == attribute]:
                    del self._envelopes[key]
            self.patches += 1
            self.rows_patched += len(rows)
        return True

    @property
    def data_version(self) -> int:
        """The database version the current columns were built against."""
        return self._version

    def resident_columns(self, attribute: str) -> AttributeColumns | None:
        """The attribute's current columns if they are built; never builds them."""
        self.sync()
        return self._columns.get(attribute)

    def columns(self, attribute: str) -> AttributeColumns | None:
        """Column arrays of one attribute (``None`` when it has no summaries)."""
        self.sync()
        if attribute not in self._columns:
            built = self._build(attribute)
            self._columns[attribute] = built
            if built is not None:
                self.builds += 1
        return self._columns[attribute]

    def score_bounds(
        self,
        attribute: str,
        start: "int | None" = None,
        stop: "int | None" = None,
    ) -> "ScoreBounds | None":
        """Bound summaries of one attribute (``None`` without columns).

        Built lazily from the attribute's columns and kept in step with
        them: :meth:`sync` patches or drops columns and bounds together,
        so a stale bound can never justify a prune.  Pass
        ``start`` / ``stop`` to get the bounds of one contiguous slice —
        the per-slice view the sharded and cluster layers request.
        """
        self.sync()
        if attribute not in self._bounds:
            columns = self.columns(attribute)
            self._bounds[attribute] = (
                ScoreBounds.of_columns(columns) if columns is not None else None
            )
        bounds = self._bounds[attribute]
        if bounds is not None and start is not None:
            end = bounds.num_entities if stop is None else stop
            return bounds.slice(start, end)
        return bounds

    def degree_envelope(
        self,
        membership: "MembershipFunction",
        attribute: str,
        phrase: str,
    ) -> "tuple[np.ndarray, np.ndarray] | None":
        """Cached whole-store ``[lo, hi]`` degree envelope of one condition.

        The envelope is elementwise per row, so one evaluation over the
        whole store serves every later subset request as a plain array
        gather — the pruned scan's chunks stop paying the phrase-level
        bound arithmetic per chunk.  Pruning reads *both* ends — the scan
        bound's ``hi`` of ``not x`` is ``1 - lo(x)`` — so the envelope must
        bracket the exact degree on each end (checked by
        ``test_degree_bounds_contain_exact_degrees``).  The store-wide
        similarity caps make the cached envelope at most *wider* than a
        per-slice one, which keeps that: its ``hi`` can only be higher and
        its ``lo`` only lower.
        Cached under the same ``data_version`` contract as the columns and
        bounds, as an LRU of :data:`ENVELOPE_CACHE_ENTRIES` conditions (an
        evicted envelope is recomputed to the same values); re-keyed when a
        different membership function shows up.  ``None`` when the
        membership function has no usable columnar kernel or bound form, or
        the attribute has no columns.
        """
        self.sync()
        if columnar_kernel(membership, self.database) is None:
            return None
        if self._envelope_membership is not membership:
            self._envelopes.clear()
            self._envelope_membership = membership
        key = (attribute, phrase)
        if key in self._envelopes:
            self._envelopes.move_to_end(key)
        else:
            degree_bounds = getattr(membership, "degree_bounds", None)
            bounds = self.score_bounds(attribute)
            self._envelopes[key] = (
                degree_bounds(bounds, phrase)
                if degree_bounds is not None and bounds is not None
                else None
            )
            if len(self._envelopes) > ENVELOPE_CACHE_ENTRIES:
                self._envelopes.popitem(last=False)
        return self._envelopes[key]

    # -------------------------------------------------------------- scoring
    def pair_degrees(
        self,
        membership: "MembershipFunction",
        entity_ids: Sequence[Hashable],
        attribute: str,
        phrase: str,
    ) -> list[float] | None:
        """Degrees of one ``A ≐ m`` condition for many entities, columnar.

        Returns ``None`` when the store cannot reproduce the scalar path
        exactly — the membership function has no columnar kernel, it scores
        with a different embedder than the one the column arrays were built
        from, or the attribute has no columns — and callers then run the
        scalar batch path.  Entities absent from the columns — no stored
        summary, or a summary that does not conform to the schema markers —
        fall back to per-entity scalar scoring, so results cover every
        requested id.

        When the requested resident ids are a small slice of the columns
        (fewer than a quarter of the rows), the kernel runs over a row
        gather of just those entities instead of all E: every kernel is
        row-independent, so the gathered pass computes the same per-entity
        arithmetic while a mostly-warm serving cache missing a handful of
        entities stops paying for the whole store.
        """
        kernel = columnar_kernel(membership, self.database)
        if kernel is None:
            return None
        columns = self.columns(attribute)
        if columns is None:
            return None
        rows = [columns.row_of.get(entity_id) for entity_id in entity_ids]
        resident = sorted({row for row in rows if row is not None})
        batch: np.ndarray | None = None
        if resident:
            if len(resident) * 4 < columns.num_entities:
                sliced = gather_rows(columns, resident)
                partial = kernel(sliced, phrase)
                batch = np.empty(columns.num_entities)
                batch[resident] = partial
            else:
                batch = kernel(columns, phrase)
        return gather_degrees(
            batch,
            rows,
            entity_ids,
            scalar_fallback_scorer(membership, self.database, attribute, phrase, columns),
        )

    def pair_degrees_bounded(
        self,
        membership: "MembershipFunction",
        entity_ids: Sequence[Hashable],
        attribute: str,
        phrase: str,
        threshold: float,
    ) -> "tuple[np.ndarray, np.ndarray, int, int] | None":
        """Threshold-pruned degrees of one ``A ≐ m`` condition.

        The pruning counterpart of :meth:`pair_degrees`: entities whose
        bound envelope proves they cannot reach ``threshold`` are returned
        as upper bounds (``exact_mask`` False) without running the exact
        kernel; every other entity's value is bit-identical to the unpruned
        path.  Returns ``(values, exact_mask, scored, pruned)`` aligned
        with ``entity_ids``, or ``None`` whenever the exactness contract
        cannot be kept cheaply — no columnar kernel, no bound envelope, no
        columns, or any requested entity absent from the columns (the
        scalar fallback has no bound story, so callers take the full path).
        """
        kernel = columnar_kernel(membership, self.database)
        if kernel is None or getattr(membership, "degree_bounds", None) is None:
            return None
        columns = self.columns(attribute)
        if columns is None:
            return None
        rows = [columns.row_of.get(entity_id) for entity_id in entity_ids]
        if any(row is None for row in rows):
            return None
        envelope = self.degree_envelope(membership, attribute, phrase)
        if envelope is None:
            return None
        _, upper = envelope
        index = np.fromiter(rows, dtype=np.intp, count=len(rows))
        values = np.array(upper[index], dtype=np.float64, copy=True)
        requested_exact = values >= threshold
        survivors = np.flatnonzero(requested_exact)
        if survivors.size:
            resident = sorted({rows[position] for position in survivors.tolist()})
            if len(resident) * 4 < columns.num_entities:
                gathered = gather_rows(columns, resident)
                batch = np.empty(columns.num_entities)
                batch[resident] = kernel(gathered, phrase)
            else:
                batch = kernel(columns, phrase)
            values[survivors] = batch[index[survivors]]
        # Counters cover the *requested* entities, not the kernel's internal
        # view (the dense branch may score extra resident rows): that keeps
        # ``entities_scored`` directly comparable with the unpruned path,
        # which counts cache misses per requested entity.
        scored = int(survivors.size)
        return (
            values,
            requested_exact,
            scored,
            int(index.size - scored),
        )

    def pair_degree_envelope(
        self,
        membership: "MembershipFunction",
        entity_ids: Sequence[Hashable],
        attribute: str,
        phrase: str,
    ) -> "tuple[np.ndarray, np.ndarray] | None":
        """``[lo, hi]`` degree envelope of one condition for many entities.

        :meth:`degree_envelope` gathered at the rows of ``entity_ids`` — no
        exact kernel, no caches touched.  ``None`` under the same
        conditions as :meth:`pair_degrees_bounded` (no kernel, no bound
        support, no columns, or a non-resident entity).
        """
        envelope = self.degree_envelope(membership, attribute, phrase)
        if envelope is None:
            return None
        row_of = self.columns(attribute).row_of
        rows = [row_of.get(entity_id) for entity_id in entity_ids]
        if None in rows:
            return None
        lower, upper = envelope
        index = np.fromiter(rows, dtype=np.intp, count=len(rows))
        return lower[index], upper[index]

    # ------------------------------------------------------------- building
    def _build(self, attribute: str) -> AttributeColumns | None:
        summaries = self.database.summaries_for_attribute(attribute)
        if not summaries:
            return None
        try:
            reference = list(self.database.schema.subjective(attribute).markers)
        except SchemaError:
            reference = list(next(iter(summaries.values())).markers)

        entity_ids = [
            entity_id
            for entity_id, summary in summaries.items()
            if summary.markers == reference
        ]
        if not entity_ids:
            return None
        num_markers = len(reference)
        embedder = self.database.phrase_embedder
        dimension = embedder.dimension if embedder is not None else 0
        if dimension:
            name_vectors = np.vstack(
                [embedder.represent(marker.name) for marker in reference]
            )
        else:
            name_vectors = np.zeros((num_markers, 0))

        return AttributeColumns(
            attribute=attribute,
            entity_ids=entity_ids,
            markers=reference,
            marker_sentiments=np.array([marker.sentiment for marker in reference]),
            **_summary_rows(
                [summaries[entity_id] for entity_id in entity_ids], num_markers, dimension
            ),
            name_units=_unit_rows(name_vectors) if dimension else name_vectors,
        )

    # ------------------------------------------------------------ statistics
    def stats_snapshot(self) -> dict[str, object]:
        """Build/invalidation/patch counters plus the currently resident columns."""
        return {
            "data_version": self._version,
            "builds": self.builds,
            "invalidations": self.invalidations,
            "patches": self.patches,
            "rows_patched": self.rows_patched,
            "tensor_blocks_copied": self.tensor_blocks_copied.value,
            "attributes": {
                name: (columns.num_entities if columns is not None else 0)
                for name, columns in self._columns.items()
            },
        }
