"""The column image: the one byte format of column arrays, on disk and on the wire.

A persistent column file (:mod:`repro.storage`), a hydrate snapshot and a
hydrate delta (:class:`~repro.core.columnar.ColumnSnapshot`,
:class:`~repro.core.columnar.SnapshotDelta`) are all one container::

    magic "OPSN" (4) | format version (u16) | crc32 (u32) | flags (u8)
    | meta length (u32) | meta JSON | float64 sections

Header integers are big-endian; the CRC covers every byte after it, the
flags byte included.  The flags say what the image is (0, a full snapshot;
:data:`SNAPSHOT_FLAG_DELTA`; :data:`SNAPSHOT_FLAG_COLUMN_FILE`); any other
value is refused.  The meta JSON (sorted keys, compact — deterministic)
carries the caller's fields, the dtype tag and the section table (name +
shape, in order).  Each section is **native-endian** float64 in C order at
the next :data:`SECTION_ALIGNMENT`-aligned offset, a rule writer and reader
share instead of storing offsets.  Native byte order is what makes reading
free: :func:`read_image` returns read-only views into the payload — a
memory map, a received frame — with no byte swap and no copy; an image of
the other byte order carries another dtype tag and is refused.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from repro.errors import SnapshotError, SnapshotIntegrityError

SNAPSHOT_MAGIC = b"OPSN"
#: Version 2 added the flags byte after the checksum.
SNAPSHOT_FORMAT_VERSION = 2

#: Flag values.  0x01 (a retired zlib body), 0x02 (a retired f32 centroid
#: encoding) and the high bits are refused, never ignored.
SNAPSHOT_FLAG_DELTA = 0x04  # a SnapshotDelta
SNAPSHOT_FLAG_COLUMN_FILE = 0x08  # a persistent column file (repro.storage)
_IMAGE_KINDS = {
    0: "a full snapshot frame (ColumnSnapshot.unpack)",
    SNAPSHOT_FLAG_DELTA: "a delta snapshot frame (SnapshotDelta.unpack)",
    SNAPSHOT_FLAG_COLUMN_FILE: "a persistent column file (repro.storage)",
}

#: Native-endian float64 dtype string recorded in every image's meta.
COLUMN_FILE_DTYPE = np.dtype(np.float64).str

#: Sections start at multiples of this many bytes (cache-line boundaries).
SECTION_ALIGNMENT = 64

#: magic | format version | crc32 | flags; the CRC covers the flags onwards.
_HEADER = struct.Struct("!4sHIB")
_U32 = struct.Struct("!I")
_META_OFFSET = _HEADER.size + _U32.size

#: What an image is made of: ``bytes`` for the header, meta and padding,
#: flat ``uint8`` array views for the sections.
Buffer = bytes | np.ndarray

#: Bytes compared per step when an image is checked against a file.
_COMPARE_BLOCK = 1 << 20

#: Meta fields that, when present, must be non-negative integers below a bound.
_COUNT_FIELDS = {
    **dict.fromkeys(("version", "data_version", "base_version"), 2**64),
    **dict.fromkeys(("slice_id", "start", "stop", "dimension"), 2**32),
}


def _align(offset: int) -> int:
    """The next multiple of :data:`SECTION_ALIGNMENT` at or after ``offset``."""
    return -(-offset // SECTION_ALIGNMENT) * SECTION_ALIGNMENT


def _section_chunks(array) -> list[np.ndarray]:
    """One section as flat byte views of native-endian float64 in C order.

    A :class:`~repro.core.columnar.RowBlocks` yields one view per run, so a
    patched generation is packed without joining its blocks.  C-contiguous
    native float64 is viewed, anything else *converted*, never
    reinterpreted (``reshape``/``view``: ``memoryview.cast`` refuses 0 sizes).
    """
    parts = [run for _, run in array.runs()] if hasattr(array, "runs") else [array]
    return [
        np.ascontiguousarray(part, dtype=np.float64).reshape(-1).view(np.uint8)
        for part in parts
    ]


def fold_crc(chunks: Iterable[Buffer], crc: int = 0) -> int:
    """CRC-32 of the concatenation of ``chunks``, continuing from ``crc``."""
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    return crc


def sections_crc(sections: Mapping[str, np.ndarray]) -> int:
    """CRC-32 over the section bytes in order — independent of the meta."""
    return fold_crc(chunk for array in sections.values() for chunk in _section_chunks(array))


@dataclass(frozen=True, eq=False)
class ColumnFileImage:
    """One packed image as an ordered sequence of buffers, never joined.

    ``chunks`` are the header, the length-prefixed meta JSON, and per
    section its zero padding and byte views over the array, one per run of
    a blocked section (no chunk is empty); ``nbytes`` is their total
    length.  The views alias the caller's arrays: use the image before
    mutating them.
    """

    chunks: tuple[Buffer, ...]
    nbytes: int

    @cached_property
    def crc(self) -> int:
        """CRC-32 of the whole image — the per-file checksum a catalog records."""
        return fold_crc(self.chunks)

    def __bytes__(self) -> bytes:
        return b"".join(self.chunks)

    def equals_file(self, path: str) -> bool:
        """Whether ``path`` holds exactly this image, bit for bit.

        Compares chunk by chunk against a read-only map of the file, so
        neither side is materialised; ``-0.0`` vs ``0.0`` and NaN payloads
        differ.  A missing or unreadable file is unequal.
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


def pack_image(flags: int, meta: Mapping[str, object], sections: Mapping) -> ColumnFileImage:
    """Lay ``meta`` and named float64 arrays out as one image with ``flags``.

    The same inputs always give the same bytes.  Raises
    :class:`SnapshotError` when ``meta`` is not JSON-serializable.
    """
    full_meta = {
        **meta,
        "dtype": COLUMN_FILE_DTYPE,
        "sections": [
            [name, [int(size) for size in np.shape(array)]] for name, array in sections.items()
        ],
    }
    try:
        meta_bytes = json.dumps(full_meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise SnapshotError(f"image meta is not JSON-serializable ({error})") from error
    body: list[Buffer] = [_U32.pack(len(meta_bytes)), meta_bytes]
    position = _META_OFFSET + len(meta_bytes)
    for array in sections.values():
        start = _align(position)
        if start > position:
            body.append(bytes(start - position))
        position = start
        for view in _section_chunks(array):
            if len(view):
                body.append(view)
            position += len(view)
    crc = fold_crc(body, zlib.crc32(bytes([flags])))
    header = _HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_FORMAT_VERSION, crc, flags)
    return ColumnFileImage(chunks=(header, *body), nbytes=position)


@dataclass(frozen=True)
class ColumnImage:
    """One verified image: its meta and read-only section views."""

    meta: dict
    sections: dict[str, np.ndarray]

    def field(self, name: str) -> object:
        """One meta field (already type-checked by :func:`read_image`)."""
        try:
            return self.meta[name]
        except KeyError:
            raise SnapshotError(f"image meta has no {name!r} field") from None

    def section(self, name: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
        """One section, refused unless present (and of ``shape``, when given)."""
        array = self.sections.get(name)
        if array is None:
            raise SnapshotError(f"image has no section {name!r}")
        if shape is not None and array.shape != shape:
            raise SnapshotError(f"image section {name!r} has shape {array.shape}, expected {shape}")
        return array


def _is_count(value: object, limit: int = 2**32) -> bool:
    return type(value) is int and 0 <= value < limit


def _meta_problem(meta: object) -> str | None:
    """What is wrong with a parsed meta's known fields, or ``None``."""
    if not isinstance(meta, dict):
        return f"meta is a JSON {type(meta).__name__}, not an object"
    if meta.get("dtype") != COLUMN_FILE_DTYPE:
        return (
            f"stores dtype {meta.get('dtype')!r} but this platform maps "
            f"{COLUMN_FILE_DTYPE!r}; re-save or re-ship it from this platform"
        )
    for name, value in meta.items():
        if name in _COUNT_FIELDS and not _is_count(value, _COUNT_FIELDS[name]):
            return f"meta field {name!r} is {value!r}, not an integer in [0, {_COUNT_FIELDS[name]})"
        if name in ("attribute", "model") and not isinstance(value, str):
            return f"meta field {name!r} is {value!r}, not a string"
    span = meta.get("stop", 0) - meta.get("start", 0)
    entity_ids = meta.get("entity_ids", [])
    markers = meta.get("markers", [])
    rows = meta.get("rows", [])
    table = meta.get("sections")
    if span < 0:
        return f"meta row range [{meta.get('start')}, {meta.get('stop')}) is reversed"
    if not isinstance(entity_ids, list) or not all(
        entity_id is None or type(entity_id) in (str, int, float) for entity_id in entity_ids
    ):
        return "meta field 'entity_ids' is not a list of str, int, float or null ids"
    if not isinstance(markers, list) or not all(
        isinstance(marker, list)
        and len(marker) == 3
        and isinstance(marker[0], str)
        and _is_count(marker[1])
        and type(marker[2]) in (int, float)
        for marker in markers
    ):
        return "meta field 'markers' is not a list of [name, position, sentiment] triples"
    if not isinstance(rows, list) or not all(
        _is_count(row) and row < span and (index == 0 or rows[index - 1] < row)
        for index, row in enumerate(rows)
    ):
        return f"meta field 'rows' is not a strictly ascending list of rows in [0, {span})"
    if not isinstance(table, list) or not all(
        isinstance(entry, list)
        and len(entry) == 2
        and isinstance(entry[0], str)
        and isinstance(entry[1], list)
        and all(_is_count(size) for size in entry[1])
        for entry in table
    ):
        return "meta field 'sections' is not a list of [name, [non-negative sizes]]"
    if len({entry[0] for entry in table}) != len(table):
        return "meta field 'sections' names a section twice"
    return None


def read_image(payload, flags: int) -> ColumnImage:
    """Verify one image of kind ``flags`` and view its sections, zero-copy.

    ``payload`` is any buffer (``bytes``, ``memoryview``, a ``uint8`` array
    or memory map).  The sections are read-only views sharing its memory;
    a payload at an address that is not float64-aligned is copied once
    first.  Raises :class:`SnapshotIntegrityError` on a checksum mismatch
    and :class:`SnapshotError` on anything else: a short payload, a wrong
    magic, version or flags, or a meta that is not an object, mistypes a
    known field, or declares sections that do not tile the payload.
    """
    data = payload if isinstance(payload, np.ndarray) else np.frombuffer(payload, dtype=np.uint8)
    if len(data) < _META_OFFSET:
        raise SnapshotError(f"image too short ({len(data)} bytes; header is {_META_OFFSET})")
    magic, version, checksum, found = _HEADER.unpack(bytes(data[: _HEADER.size]))
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotError("not a column image (bad magic)")
    if version != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotError(
            f"unsupported image format version {version} "
            f"(this build reads version {SNAPSHOT_FORMAT_VERSION})"
        )
    if zlib.crc32(data[_HEADER.size - 1 :]) != checksum:
        raise SnapshotIntegrityError("column image failed its checksum (torn or corrupted)")
    if found not in _IMAGE_KINDS:
        raise SnapshotError(f"image carries unknown flag bits {found:#04x}")
    if found != flags:
        raise SnapshotError(f"payload is {_IMAGE_KINDS[found]}, not {_IMAGE_KINDS[flags]}")
    (meta_length,) = _U32.unpack(bytes(data[_HEADER.size : _META_OFFSET]))
    position = _META_OFFSET + meta_length
    if position > len(data):
        raise SnapshotError("image meta JSON overruns the payload")
    try:
        meta = json.loads(bytes(data[_META_OFFSET:position]))
    except (ValueError, RecursionError) as error:
        raise SnapshotError(f"image has malformed meta JSON ({error})") from error
    problem = _meta_problem(meta)
    if problem is not None:
        raise SnapshotError(f"image {problem}")
    if data.ctypes.data % np.dtype(np.float64).alignment:
        data = data.copy()
    data = data.view()
    data.flags.writeable = False
    sections = {}
    for name, shape in meta["sections"]:
        start = _align(position)
        position = start + 8 * math.prod(shape)
        if position > len(data):
            raise SnapshotError(f"image section {name!r} overruns the payload")
        sections[name] = data[start:position].view(COLUMN_FILE_DTYPE).reshape(shape)
    if position != len(data):
        raise SnapshotError(f"image has {len(data) - position} bytes after its last section")
    return ColumnImage(meta, sections)
