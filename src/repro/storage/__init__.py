"""Persistent mmap storage tier: durable columns + a WAL-mode SQLite catalog.

The storage tier makes a :class:`~repro.core.database.SubjectiveDatabase`
durable.  ``save_database`` lays every attribute's
:class:`~repro.core.columnar.ColumnarSummaryStore` arrays out on disk in
the snapshot-v2 container layout (magic / format version / CRC preserved)
next to a WAL-mode SQLite catalog tracking entities, attributes,
per-attribute versions and snapshot file paths; ``open_database`` boots a
database back from that directory, reading the column arrays through
``numpy.memmap`` zero-copy views and materialising marker summaries
lazily.  :class:`StoreReader` is the database-free half — cluster shard
nodes use it to hydrate slices from local disk instead of the
coordinator's snapshot wire path — and :class:`PersistentColumnarStore`
serves the mmap-backed columns through the ordinary store protocol,
falling back to an in-RAM rebuild whenever the live ``data_version``
moves past the catalog's.
"""

from repro.storage.catalog import CATALOG_FILENAME, CATALOG_FORMAT_VERSION, StorageCatalog
from repro.storage.columns import (
    COLUMN_FILE_DTYPE,
    ColumnFileImage,
    MappedColumnFile,
    RawSummaryColumns,
    derive_attribute_columns,
    pack_column_file,
    write_bytes_atomically,
)
from repro.storage.persist import (
    PersistentColumnarStore,
    StoreReader,
    open_database,
    save_database,
)
from repro.storage.synthetic import generate_synthetic_store

__all__ = [
    "CATALOG_FILENAME",
    "CATALOG_FORMAT_VERSION",
    "COLUMN_FILE_DTYPE",
    "ColumnFileImage",
    "MappedColumnFile",
    "PersistentColumnarStore",
    "RawSummaryColumns",
    "StorageCatalog",
    "StoreReader",
    "derive_attribute_columns",
    "generate_synthetic_store",
    "open_database",
    "pack_column_file",
    "save_database",
    "write_bytes_atomically",
]
