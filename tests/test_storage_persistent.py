"""Durability battery for the persistent mmap storage tier.

The storage tier's contract is *bit-identity under restart*: a database
booted from disk must be indistinguishable — same ranked ids, bit-identical
scores and column arrays — from the in-RAM database that saved it, across
every serving layer (serial, sharded, cluster).  On top of that the
suite pins the failure modes durability introduces: a torn write (flipped
byte, truncated file) is a typed :class:`~repro.errors.StorageError` and a
clean re-save recovers the directory; a catalog whose versions disagree
with the snapshot files on disk is refused as version skew; read-only mmap
views survive concurrent ingest because saves copy-on-bump into fresh
generation files; and a shard node restarted over a warm local catalog
hydrates itself without a single ``OP_HYDRATE`` frame on the wire.

The write path has its own contract on top: the streamed writer produces,
byte for byte, the file the join-based :func:`reference_column_file` kept
here produces; a save allocates a small multiple of the largest file it
writes; "unchanged" means bit-equal to the previous generation *as it is on
disk*; and a one-entity ingest rewrites one attribute's file.

Set ``REPRO_STORAGE_DIR`` to relocate the scratch directories (the CI
matrix points it at tmpfs and at real disk).
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import struct
import tempfile
import tracemalloc
import zlib

import numpy as np
import pytest

from repro.core.columnar import SNAPSHOT_FLAG_COLUMN_FILE, _pack_container
from repro.core.database import SubjectiveDatabase
from repro.core.markers import MarkerSummary
from repro.errors import CatalogError, StorageError
from repro.serving import (
    ClusterQueryEngine,
    ShardedSubjectiveQueryEngine,
    SubjectiveQueryEngine,
)
from repro.storage import (
    MappedColumnFile,
    PersistentColumnarStore,
    StorageCatalog,
    StoreReader,
    derive_attribute_columns,
    generate_synthetic_store,
    pack_column_file,
    write_bytes_atomically,
)
from repro.storage.catalog import CATALOG_FILENAME
from repro.storage.columns import (
    COLUMN_FILE_DTYPE,
    SECTION_ALIGNMENT,
    attribute_sections,
    raw_summary_columns,
)
from repro.storage.synthetic import SYNTHETIC_ATTRIBUTE
from repro.testing import (
    assert_identical_results,
    build_synthetic_columnar_database,
    corrupt_frame,
)

QUERIES = [
    'select * from Entities where "word001 word003" limit 5',
    'select * from Entities where city = \'london\' and "word017 word018" limit 6',
    'select * from Entities where not "word002" or "word019" limit 4',
]

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


@pytest.fixture()
def storage_dir(tmp_path):
    """A scratch storage directory, relocatable via ``REPRO_STORAGE_DIR``."""
    base = os.environ.get("REPRO_STORAGE_DIR")
    if base:
        os.makedirs(base, exist_ok=True)
        return tempfile.mkdtemp(prefix="repro-storage-", dir=base)
    return str(tmp_path / "store")


@pytest.fixture(scope="module")
def small_database():
    return build_synthetic_columnar_database(
        num_entities=72, markers_per_attribute=20, dimension=16, seed=11
    )


def saved_copy(database: SubjectiveDatabase, directory: str) -> SubjectiveDatabase:
    database.save(directory)
    return SubjectiveDatabase.open(directory)


def tree_digest(directory: str) -> dict[str, str]:
    """sha256 of every column/model file, keyed by relative path."""
    digests: dict[str, str] = {}
    for subdir in ("columns", "models"):
        root = os.path.join(directory, subdir)
        if not os.path.isdir(root):
            continue
        for name in sorted(os.listdir(root)):
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                digests[f"{subdir}/{name}"] = hashlib.sha256(handle.read()).hexdigest()
    return digests


# --------------------------------------------------------------------------
# Differential bit-identity across serving layers
# --------------------------------------------------------------------------

class TestDiskBootBitIdentity:
    def test_column_arrays_bit_identical(self, small_database, storage_dir):
        booted = saved_copy(small_database, storage_dir)
        ram_store = small_database.columnar_store()
        disk_store = booted.columnar_store()
        assert isinstance(disk_store, PersistentColumnarStore)
        for attribute in ("quality", "service"):
            ram = ram_store.columns(attribute)
            disk = disk_store.columns(attribute)
            assert disk is not None
            assert ram.entity_ids == disk.entity_ids
            assert ram.row_of == disk.row_of
            for name in COLUMN_ARRAYS:
                np.testing.assert_array_equal(
                    getattr(ram, name), getattr(disk, name), err_msg=f"{attribute}.{name}"
                )
        assert disk_store.mmap_serves == 2

    def test_serial_engine_equivalence(self, small_database, storage_dir):
        booted = saved_copy(small_database, storage_dir)
        baseline = SubjectiveQueryEngine(database=small_database)
        engine = SubjectiveQueryEngine(database=booted)
        for sql in QUERIES:
            assert_identical_results(baseline.execute(sql), engine.execute(sql), context=sql)

    def test_sharded_engine_equivalence(self, small_database, storage_dir):
        booted = saved_copy(small_database, storage_dir)
        baseline = SubjectiveQueryEngine(database=small_database)
        engine = ShardedSubjectiveQueryEngine(database=booted, num_shards=3)
        for sql in QUERIES:
            assert_identical_results(baseline.execute(sql), engine.execute(sql), context=sql)

    def test_cluster_engine_equivalence(self, small_database, storage_dir):
        booted = saved_copy(small_database, storage_dir)
        baseline = SubjectiveQueryEngine(database=small_database)
        engine = ClusterQueryEngine(database=booted, num_nodes=2)
        try:
            for sql in QUERIES:
                assert_identical_results(baseline.execute(sql), engine.execute(sql), context=sql)
        finally:
            engine.close()

    def test_lazy_summaries_match_eager(self, small_database, storage_dir):
        booted = saved_copy(small_database, storage_dir)
        for entity_id in ("e00000", "e00035", "e00071"):
            for attribute in ("quality", "service"):
                original = small_database.marker_summary(entity_id, attribute)
                restored = booted.marker_summary(entity_id, attribute)
                assert restored is not None
                assert restored._counts == original._counts
                assert restored._sentiment_sums == pytest.approx(original._sentiment_sums)
                assert restored.num_reviews == original.num_reviews


# --------------------------------------------------------------------------
# Warm node restart: no OP_HYDRATE frames on the wire
# --------------------------------------------------------------------------

class TestWarmNodeRestart:
    def test_cluster_boot_from_local_store_ships_no_hydrate_frames(
        self, small_database, storage_dir
    ):
        booted = saved_copy(small_database, storage_dir)
        baseline = SubjectiveQueryEngine(database=small_database)
        engine = ClusterQueryEngine(database=booted, num_nodes=2, data_dir=storage_dir)
        try:
            for sql in QUERIES:
                assert_identical_results(baseline.execute(sql), engine.execute(sql), context=sql)
            store = engine.sharded_store
            # The frame count: zero hydrate frames shipped, every slice
            # satisfied by the nodes' own mapped column files.
            assert store.hydrations == 0
            assert store.local_hydrations > 0
            for stats in store.node_stats():
                assert stats["hydrations"] == 0
                assert stats["local_store"] is True
                assert stats["local_hydrations"] > 0
        finally:
            engine.close()

    def test_hello_ack_advertises_warm_store(self, small_database, storage_dir):
        from repro.serving.cluster import ShardNodeServer
        from repro.serving.protocol import (
            PROTOCOL_VERSION,
            encode_hello,
            read_hello_ack,
        )

        booted = saved_copy(small_database, storage_dir)
        node = ShardNodeServer(data_dir=storage_dir)
        response, accepted = node._handle_hello(
            encode_hello(PROTOCOL_VERSION, booted.data_version)
        )
        assert accepted
        _, data_version, _, local_store = read_hello_ack(response)
        assert local_store is True
        assert data_version == booted.data_version

    def test_stale_local_store_downgrades_to_wire_hydration(
        self, small_database, storage_dir
    ):
        from repro.serving.cluster import ShardNodeServer

        saved_copy(small_database, storage_dir)
        node = ShardNodeServer(data_dir=storage_dir)
        assert node.source.local_store_fresh
        node.source.data_version += 1  # an invalidate moved the node past the catalog
        assert not node.source.local_store_fresh
        assert node.source._local_slice("quality", 0, 0, 10) is None

    def test_missing_data_dir_is_a_cold_start_not_a_refusal(self, storage_dir):
        from repro.serving.cluster import ShardNodeServer

        node = ShardNodeServer(data_dir=os.path.join(storage_dir, "nowhere"))
        assert node.data_version == 0
        assert not node.source.local_store_fresh


# --------------------------------------------------------------------------
# Torn writes and version skew
# --------------------------------------------------------------------------

class TestTornWriteRecovery:
    def _column_file(self, directory: str) -> str:
        names = sorted(os.listdir(os.path.join(directory, "columns")))
        assert names
        return os.path.join(directory, "columns", names[0])

    def test_flipped_byte_is_a_typed_error_and_resave_recovers(
        self, small_database, storage_dir
    ):
        small_database.save(storage_dir)
        path = self._column_file(storage_dir)
        with open(path, "rb") as handle:
            payload = handle.read()
        # Flip one byte mid-body — past the header, inside the section data.
        with open(path, "wb") as handle:
            handle.write(corrupt_frame(payload, len(payload) // 2))
        with pytest.raises(StorageError):
            StoreReader(storage_dir).verify()
        with pytest.raises(StorageError):
            SubjectiveDatabase.open(storage_dir)
        # Clean rebuild: re-saving from the live database restores the
        # directory (the corrupt generation is simply rewritten).
        small_database.save(storage_dir)
        booted = SubjectiveDatabase.open(storage_dir)
        assert booted.data_version == small_database.data_version

    def test_truncated_column_file_is_a_typed_error(self, small_database, storage_dir):
        small_database.save(storage_dir)
        path = self._column_file(storage_dir)
        size = os.path.getsize(path)
        with open(path, "rb+") as handle:
            handle.truncate(size // 2)
        with pytest.raises(StorageError):
            StoreReader(storage_dir).verify()

    def test_corrupt_catalog_is_a_typed_error(self, small_database, storage_dir):
        small_database.save(storage_dir)
        path = os.path.join(storage_dir, CATALOG_FILENAME)
        with open(path, "rb") as handle:
            payload = handle.read()
        with open(path, "wb") as handle:
            # Break the SQLite header magic: the catalog is unreadable.
            handle.write(corrupt_frame(payload, 0, flip=0xFF))
        with pytest.raises(StorageError):
            SubjectiveDatabase.open(storage_dir)

    def test_stale_catalog_version_skew_is_detected(self, small_database, storage_dir):
        small_database.save(storage_dir)
        connection = sqlite3.connect(os.path.join(storage_dir, CATALOG_FILENAME))
        try:
            connection.execute("UPDATE attributes SET version = version + 1")
            connection.commit()
        finally:
            connection.close()
        with pytest.raises(CatalogError, match="version"):
            StoreReader(storage_dir).verify()


# --------------------------------------------------------------------------
# Copy-on-bump: mmap views survive concurrent ingest
# --------------------------------------------------------------------------

class TestCopyOnBump:
    def test_open_views_survive_ingest_and_resave(self, storage_dir):
        database = build_synthetic_columnar_database(
            num_entities=40, markers_per_attribute=8, dimension=8, seed=5
        )
        booted = saved_copy(database, storage_dir)
        before_files = set(os.listdir(os.path.join(storage_dir, "columns")))
        columns = booted.columnar_store().columns("quality")
        frozen = columns.fractions.copy()

        # Concurrent ingest on the booted database: a replaced summary
        # bumps the data version, and the next save must write a *new*
        # generation file rather than touching the one we hold mapped.
        summary = MarkerSummary("quality", list(booted.schema.subjective("quality").markers))
        summary.add_phrase("word000", sentiment=1.0)
        booted.store_summary("e00000", summary)
        booted.save(storage_dir)

        after_files = set(os.listdir(os.path.join(storage_dir, "columns")))
        assert before_files < after_files  # old generation left in place
        np.testing.assert_array_equal(columns.fractions, frozen)

        reopened = SubjectiveDatabase.open(storage_dir)
        refreshed = reopened.marker_summary("e00000", "quality")
        assert refreshed._counts == summary._counts

    def test_stale_reader_falls_back_to_in_ram_build(self, storage_dir):
        database = build_synthetic_columnar_database(
            num_entities=30, markers_per_attribute=8, dimension=8, seed=6
        )
        booted = saved_copy(database, storage_dir)
        store = booted.columnar_store()
        assert store.columns("quality") is not None
        assert store.mmap_serves == 1
        summary = MarkerSummary("quality", list(booted.schema.subjective("quality").markers))
        summary.add_phrase("word001", sentiment=-0.5)
        booted.store_summary("e00001", summary)  # version bump → reader is stale
        fresh_store = booted.columnar_store()
        columns = fresh_store.columns("quality")
        assert columns is not None
        assert fresh_store.mmap_serves == 0  # served by the in-RAM rebuild
        row = columns.row_of["e00001"]
        assert columns.totals[row] == 1.0


# --------------------------------------------------------------------------
# Byte stability, irregular summaries, the synthetic generator
# --------------------------------------------------------------------------

class TestSaveStability:
    def test_save_open_save_is_byte_stable(self, small_database, storage_dir):
        booted = saved_copy(small_database, storage_dir)
        before = tree_digest(storage_dir)
        booted.save(storage_dir)
        assert tree_digest(storage_dir) == before

    def test_irregular_summary_round_trips_through_blob(self, storage_dir):
        database = build_synthetic_columnar_database(
            num_entities=24, markers_per_attribute=6, dimension=8, seed=9
        )
        markers = list(database.schema.subjective("quality").markers)
        odd = MarkerSummary("quality", markers, embedding_dimension=3)  # != store's 8
        odd.add_phrase("word000", sentiment=0.25, vector=np.ones(3))
        database.store_summary("e00002", odd)
        booted = saved_copy(database, storage_dir)
        restored = booted.marker_summary("e00002", "quality")
        assert restored._dimension == 3
        assert restored._counts == odd._counts
        restored_vector = restored._vector_sums["word000"]
        np.testing.assert_array_equal(restored_vector, np.ones(3))


class TestSyntheticStore:
    def test_generated_store_boots_and_rederives(self, storage_dir):
        generate_synthetic_store(storage_dir, num_entities=300, num_markers=6, dimension=4)
        reader = StoreReader(storage_dir).verify()
        raw = reader.raw(SYNTHETIC_ATTRIBUTE)
        derived = derive_attribute_columns(raw)
        columns = reader.columns(SYNTHETIC_ATTRIBUTE)
        np.testing.assert_array_equal(columns.fractions, derived["fractions"])
        np.testing.assert_array_equal(
            columns.overall_sentiments, derived["overall_sentiments"]
        )
        database = SubjectiveDatabase.open(storage_dir)
        assert len(database.entities()) == 300
        summary = database.marker_summary("e0000007", SYNTHETIC_ATTRIBUTE)
        assert summary is not None
        assert summary.num_phrases == raw.num_phrases[7]


# --------------------------------------------------------------------------
# The write path: one layout rule, streamed, compared in place
# --------------------------------------------------------------------------

#: magic (4) + format version (u16) + crc32 (u32) + flags (u8).
HEADER_BYTES = 11


def reference_column_file(meta, sections) -> bytes:
    """The join-based column-file writer the streamed one replaced.

    Kept as the byte-level oracle of the on-disk format: meta JSON with the
    dtype tag and section table, every section copied to bytes and joined
    behind its zero padding, the whole body wrapped by the wire snapshot's
    own ``_pack_container``.  It materialises the file several times over,
    which is exactly why production code no longer does this.
    """
    full_meta = dict(meta)
    full_meta["dtype"] = COLUMN_FILE_DTYPE
    full_meta["sections"] = [
        [name, [int(size) for size in np.shape(array)]] for name, array in sections.items()
    ]
    meta_bytes = json.dumps(full_meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [struct.pack("!I", len(meta_bytes)), meta_bytes]
    position = HEADER_BYTES + 4 + len(meta_bytes)
    for array in sections.values():
        start = -(-position // SECTION_ALIGNMENT) * SECTION_ALIGNMENT
        parts.append(b"\x00" * (start - position))
        payload = np.ascontiguousarray(array, dtype=np.float64).tobytes()
        parts.append(payload)
        position = start + len(payload)
    return _pack_container(b"".join(parts), SNAPSHOT_FLAG_COLUMN_FILE, compress=False)


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def flip_byte(path: str, offset: int) -> None:
    payload = read_bytes(path)
    with open(path, "wb") as handle:
        handle.write(corrupt_frame(payload, offset))


def catalog_rows(directory: str) -> tuple[dict[str, dict], dict[str, dict]]:
    """The catalog's attribute and model rows, keyed by name."""
    with StorageCatalog(directory) as catalog:
        return (
            {row["name"]: dict(row) for row in catalog.attribute_rows()},
            {row["name"]: dict(row) for row in catalog.model_rows()},
        )


def file_identities(directory: str) -> dict[str, tuple[int, int]]:
    """``(inode, mtime_ns)`` of every column/model file, keyed by relative path."""
    identities = {}
    for subdir in ("columns", "models"):
        for name in sorted(os.listdir(os.path.join(directory, subdir))):
            status = os.stat(os.path.join(directory, subdir, name))
            identities[f"{subdir}/{name}"] = (status.st_ino, status.st_mtime_ns)
    return identities


def replace_summary(database, entity_id, attribute, marker, **accumulators) -> None:
    """One single-entity ingest: a replaced marker summary (bumps ``data_version``)."""
    summary = MarkerSummary(attribute, list(database.schema.subjective(attribute).markers))
    summary.add_phrase(marker, sentiment=0.5)
    for name, values in accumulators.items():
        getattr(summary, name).update(values)
    database.store_summary(entity_id, summary)


def assert_image_is_reference(meta, sections, directory: str) -> None:
    """Streamed image == reference bytes, on every surface the image has."""
    reference = reference_column_file(meta, sections)
    image = pack_column_file(meta, sections)
    assert all(len(chunk) for chunk in image.chunks)
    assert b"".join(bytes(chunk) for chunk in image.chunks) == reference
    assert image.nbytes == len(reference)
    assert image.crc == zlib.crc32(reference)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "image.snap")
    write_bytes_atomically(path, image.chunks)
    assert read_bytes(path) == reference
    write_bytes_atomically(path, reference)  # one joined buffer is still accepted
    assert image.equals_file(path)
    mapped = MappedColumnFile(path)
    assert [entry[0] for entry in mapped.meta["sections"]] == list(sections)
    for name, array in sections.items():
        section = mapped.section(name)
        assert section.shape == np.shape(array)
        np.testing.assert_array_equal(section, np.asarray(array, dtype=np.float64))


class TestStreamedLayout:
    """The streamed writer against the join-based reference, byte for byte."""

    @pytest.mark.parametrize("fixture", ["hotel_database", "restaurant_database", "small_database"])
    def test_saved_files_equal_the_reference_layout(self, fixture, request, storage_dir):
        database = request.getfixturevalue(fixture)
        database.save(storage_dir)
        attributes, models = catalog_rows(storage_dir)
        assert attributes
        store = database.columnar_store()
        for name, row in attributes.items():
            columns = store.columns(name)
            raw = raw_summary_columns(columns, database.summaries_for_attribute(name))
            meta = {
                "attribute": name,
                "version": row["version"],
                "entity_ids": list(columns.entity_ids),
                "markers": [[m.name, m.position, m.sentiment] for m in columns.markers],
                "dimension": columns.dimension,
            }
            reference = reference_column_file(meta, attribute_sections(columns, raw))
            assert read_bytes(os.path.join(storage_dir, "columns", row["file"])) == reference
            assert row["crc"] == zlib.crc32(reference)
        row = models["embeddings"]
        reference = reference_column_file(
            {"model": "embeddings", "version": row["version"]},
            {"matrix": database.phrase_embedder.embeddings._matrix},
        )
        assert read_bytes(os.path.join(storage_dir, "models", row["file"])) == reference
        assert row["crc"] == zlib.crc32(reference)

    def test_image_of_an_attribute_round_trips(self, small_database, storage_dir):
        columns = small_database.columnar_store().columns("quality")
        raw = raw_summary_columns(columns, small_database.summaries_for_attribute("quality"))
        meta = {"attribute": "quality", "version": 7, "entity_ids": list(columns.entity_ids)}
        assert_image_is_reference(meta, attribute_sections(columns, raw), storage_dir)

    def test_zero_size_sections_contribute_no_chunk(self, storage_dir):
        # A database without an embedder has dimension 0: (E, M, 0) sections,
        # which ``memoryview.cast`` refuses — including as the last section,
        # where the padding before it is the file's tail.
        sections = {
            "fractions": np.arange(15.0).reshape(3, 5),
            "centroids_unit": np.zeros((3, 5, 0)),
            "totals": np.arange(3.0),
            "vector_sums": np.zeros((3, 5, 0)),
        }
        assert_image_is_reference({"attribute": "a", "version": 1}, sections, storage_dir)
        empty = {"fractions": np.zeros((0, 5)), "totals": np.zeros(0)}
        assert_image_is_reference({"attribute": "a", "version": 1}, empty, storage_dir)

    def test_inputs_are_converted_never_reinterpreted(self, storage_dir):
        values = np.arange(24.0).reshape(4, 6)
        sections = {
            "fortran": np.asfortranarray(values),
            "strided": values[::2, ::3],
            "float32": values.astype(np.float32),
            "integers": np.arange(5),
            "swapped": values.astype(np.dtype(np.float64).newbyteorder()),
        }
        assert_image_is_reference({"attribute": "a", "version": 1}, sections, storage_dir)

    def test_bit_equality_not_float_equality(self, storage_dir):
        os.makedirs(storage_dir, exist_ok=True)
        path = os.path.join(storage_dir, "image.snap")
        meta = {"attribute": "a", "version": 1}
        write_bytes_atomically(path, pack_column_file(meta, {"x": np.array([0.0, 1.0])}).chunks)
        assert pack_column_file(meta, {"x": np.array([0.0, 1.0])}).equals_file(path)
        assert not pack_column_file(meta, {"x": np.array([-0.0, 1.0])}).equals_file(path)
        assert not pack_column_file(meta, {"x": np.array([0.0, 1.0, 2.0])}).equals_file(path)
        assert not pack_column_file(meta, {"x": np.array([0.0, 1.0])}).equals_file(path + ".gone")


class TestSaveMemoryCeiling:
    """A save holds the sections once — it never materialises a file in RAM."""

    CEILING = 3.0  # × the largest column file written; the joined writer needed > 5 ×

    @staticmethod
    def _largest_column_file(directory: str) -> int:
        root = os.path.join(directory, "columns")
        return max(os.path.getsize(os.path.join(root, name)) for name in os.listdir(root))

    def _peak_over(self, action) -> int:
        tracemalloc.start()
        try:
            action()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_database_save_stays_under_the_ceiling(self, storage_dir):
        database = build_synthetic_columnar_database(num_entities=1600, seed=11)
        peak = self._peak_over(lambda: database.save(storage_dir))
        assert peak < self.CEILING * self._largest_column_file(storage_dir)

    def test_synthetic_generator_stays_under_the_ceiling(self, storage_dir):
        peak = self._peak_over(lambda: generate_synthetic_store(storage_dir, num_entities=5000))
        assert peak < self.CEILING * self._largest_column_file(storage_dir)


class TestChangeDetection:
    """A file is unchanged when it is bit-equal to the previous generation on disk."""

    @pytest.fixture()
    def database(self):
        return build_synthetic_columnar_database(
            num_entities=40, markers_per_attribute=8, dimension=8, seed=5
        )

    @staticmethod
    def _regions(path: str) -> dict[str, int]:
        """One byte offset inside each kind of region of a column file."""
        mapped = MappedColumnFile(path)
        (meta_length,) = struct.unpack("!I", read_bytes(path)[HEADER_BYTES : HEADER_BYTES + 4])
        meta_end = HEADER_BYTES + 4 + meta_length
        position, padding = meta_end, None
        for _, shape in mapped.meta["sections"]:
            start = -(-position // SECTION_ALIGNMENT) * SECTION_ALIGNMENT
            if padding is None and start > position:
                padding = position
            position = start + int(np.prod(shape)) * 8
        assert padding is not None
        return {
            "header_crc": 7,
            "meta_json": HEADER_BYTES + 4 + meta_length // 2,
            "padding": padding,
            "section": (meta_end + position) // 2,
        }

    @pytest.mark.parametrize("region", ["header_crc", "meta_json", "padding", "section"])
    def test_a_byte_flipped_on_disk_forces_the_next_generation(
        self, database, storage_dir, region
    ):
        database.save(storage_dir)
        attributes, models = catalog_rows(storage_dir)
        damaged = os.path.join(storage_dir, "columns", attributes["quality"]["file"])
        flip_byte(damaged, self._regions(damaged)[region])
        database.save(storage_dir)
        after, models_after = catalog_rows(storage_dir)
        assert after["quality"]["version"] == attributes["quality"]["version"] + 1
        assert after["quality"]["file"] != attributes["quality"]["file"]
        assert after["service"] == attributes["service"]  # intact: reused
        assert models_after == models
        booted = SubjectiveDatabase.open(storage_dir)
        np.testing.assert_array_equal(
            booted.columnar_store().columns("quality").fractions,
            database.columnar_store().columns("quality").fractions,
        )

    def test_unchanged_files_are_not_touched(self, database, storage_dir):
        database.save(storage_dir)
        before = file_identities(storage_dir)
        rows = catalog_rows(storage_dir)
        database.save(storage_dir)
        SubjectiveDatabase.open(storage_dir).save(storage_dir)
        assert file_identities(storage_dir) == before
        assert catalog_rows(storage_dir) == rows

    def test_a_sign_bit_counts_as_a_change(self, database, storage_dir):
        # Two summaries that are == cell for cell and differ in one sign bit:
        # the unmatched marker's sentiment sum is 0.0 in one and -0.0 in the other.
        replace_summary(database, "e00003", "quality", "word000")
        database.save(storage_dir)
        first, _ = catalog_rows(storage_dir)
        replace_summary(
            database, "e00003", "quality", "word000", _sentiment_sums={"word001": -0.0}
        )
        database.save(storage_dir)
        second, _ = catalog_rows(storage_dir)
        assert second["quality"]["version"] == first["quality"]["version"] + 1
        old = MappedColumnFile(os.path.join(storage_dir, "columns", first["quality"]["file"]))
        new = MappedColumnFile(os.path.join(storage_dir, "columns", second["quality"]["file"]))
        for name, _ in new.meta["sections"]:
            np.testing.assert_array_equal(old.section(name), new.section(name))
        row = old.entity_ids.index("e00003")
        assert not np.signbit(old.section("sentiment_sums")[row, 1])
        assert np.signbit(new.section("sentiment_sums")[row, 1])

    def test_one_entity_ingest_rewrites_one_attribute_file(self, database, storage_dir):
        database.save(storage_dir)
        before = file_identities(storage_dir)
        first, models = catalog_rows(storage_dir)
        replace_summary(database, "e00007", "service", "word010")
        database.save(storage_dir)
        after = file_identities(storage_dir)
        second, models_after = catalog_rows(storage_dir)
        written = set(after) - set(before)
        assert written == {f"columns/{second['service']['file']}"}
        assert second["service"]["version"] == first["service"]["version"] + 1
        assert {path: after[path] for path in before} == before  # nothing else touched
        assert second["quality"] == first["quality"]
        assert models_after == models


class TestStaleTemporaries:
    def test_a_killed_saves_temp_files_are_ignored_by_open_and_swept_by_save(
        self, small_database, storage_dir
    ):
        small_database.save(storage_dir)
        listing = file_identities(storage_dir)
        stale = [
            os.path.join(storage_dir, "columns", "00_quality.v2.snap.tmp.99999"),
            os.path.join(storage_dir, "models", "model_embeddings.v2.snap.tmp.99999"),
        ]
        for path in stale:
            with open(path, "wb") as handle:
                handle.write(b"half a file")
        booted = SubjectiveDatabase.open(storage_dir)
        assert booted.data_version == small_database.data_version
        booted.save(storage_dir)
        assert not any(os.path.exists(path) for path in stale)
        assert file_identities(storage_dir) == listing
