"""Direct-to-disk synthetic storage directories for scale benchmarks.

A ≥100k-entity run needs a storage directory far larger than the
extraction pipeline (or even the in-RAM synthetic builder in
:mod:`repro.testing`) can produce in bench time.  This generator writes
the column file and catalog *directly* — vectorized NumPy draws laid out
and streamed by the same ``pack_column_file`` / ``write_bytes_atomically``
pair ``save_database`` uses, no ``SubjectiveDatabase``, no
``MarkerSummary`` objects — yet the result is a fully consistent
directory: ``open_database`` boots it, the mmap store serves it, and the
raw sections reconstruct summaries that re-derive the stored serving
arrays bit-identically (the derived sections are computed with
:func:`~repro.storage.columns.derive_attribute_columns`, the same
vectorized arithmetic the durability tests pin against the scalar path).
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.core.column_image import sections_crc
from repro.core.columnar import _unit_rows
from repro.storage.catalog import StorageCatalog, encode_entity_id
from repro.storage.columns import (
    RawSummaryColumns,
    columns_filename,
    derive_attribute_columns,
    pack_column_file,
    write_bytes_atomically,
)
from repro.text.sentiment import SentimentAnalyzer

#: Attribute name of the single subjective attribute a synthetic store has.
SYNTHETIC_ATTRIBUTE = "quality"


def generate_synthetic_store(
    directory: str,
    num_entities: int = 100_000,
    num_markers: int = 8,
    dimension: int = 8,
    seed: int = 0,
) -> None:
    """Write a consistent synthetic storage directory of ``num_entities``.

    One subjective attribute (``quality``) with ``num_markers`` markers on
    a linear scale; every entity gets a dense summary row drawn from a
    seeded RNG.  No reviews, extractions or embedder are written — boot
    time is dominated by exactly the paths the benchmark measures (CRC
    pass, catalog reads, entity restore) rather than BM25 indexing of
    synthetic text.
    """
    os.makedirs(os.path.join(directory, "columns"), exist_ok=True)
    rng = np.random.default_rng(seed)
    entity_ids = [f"e{index:07d}" for index in range(num_entities)]
    span = max(1, num_markers - 1)
    marker_triples = [
        [f"word{index:03d}", index, 1.0 - 2.0 * index / span]
        for index in range(num_markers)
    ]

    counts = rng.integers(1, 9, size=(num_entities, num_markers)).astype(np.float64)
    sentiment_sums = rng.uniform(-1.0, 1.0, size=(num_entities, num_markers)) * counts
    vector_sums = rng.normal(size=(num_entities, num_markers, dimension))
    raw = RawSummaryColumns(
        attribute=SYNTHETIC_ATTRIBUTE,
        entity_ids=entity_ids,
        markers=[],  # unused by derive_attribute_columns
        counts=counts,
        sentiment_sums=sentiment_sums,
        vector_sums=vector_sums,
        num_phrases=counts.sum(axis=1),
        num_reviews=np.zeros(num_entities),
        unmatched=np.zeros(num_entities),
        vector_dims=np.full(num_entities, float(dimension)),
        kind_codes=np.zeros(num_entities),
    )
    derived = derive_attribute_columns(raw)
    sections = {
        "marker_sentiments": np.array([triple[2] for triple in marker_triples]),
        "fractions": derived["fractions"],
        "average_sentiments": derived["average_sentiments"],
        "totals": derived["totals"],
        "unmatched": derived["unmatched"],
        "overall_sentiments": derived["overall_sentiments"],
        "centroids_unit": derived["centroids_unit"],
        "name_units": _unit_rows(rng.normal(size=(num_markers, dimension))),
        "counts": raw.counts,
        "sentiment_sums": raw.sentiment_sums,
        "vector_sums": raw.vector_sums,
        "num_phrases": raw.num_phrases,
        "num_reviews": raw.num_reviews,
        "vector_dims": raw.vector_dims,
        "kind_codes": raw.kind_codes,
    }
    meta = {
        "attribute": SYNTHETIC_ATTRIBUTE,
        "version": 1,
        "entity_ids": entity_ids,
        "markers": marker_triples,
        "dimension": dimension,
    }
    image = pack_column_file(meta, sections)
    filename = columns_filename(0, SYNTHETIC_ATTRIBUTE, 1)
    write_bytes_atomically(os.path.join(directory, "columns", filename), image.chunks)

    schema_document = {
        "name": "synthetic_store",
        "entity_key": "eid",
        "objective": [],
        "subjective": [
            {
                "name": SYNTHETIC_ATTRIBUTE,
                "markers": marker_triples,
                "kind": "linear",
                "domain": {triple[0]: 1 for triple in marker_triples},
                "aspect_seeds": [],
                "opinion_seeds": [],
                "description": "synthetic scale-bench attribute",
            }
        ],
    }
    catalog_meta = {
        "data_version": "1",
        "next_extraction_id": "0",
        "embedding_dimension": str(dimension),
        "schema": json.dumps(schema_document, sort_keys=True, separators=(",", ":")),
        "sentiment_lexicon": json.dumps(
            SentimentAnalyzer()._lexicon, sort_keys=True, separators=(",", ":")
        ),
        "embedder": "null",
    }
    with StorageCatalog(directory, create=True) as catalog:
        catalog.replace_state(
            meta=catalog_meta,
            entities=((encode_entity_id(eid), "{}") for eid in entity_ids),
            reviews=(),
            extractions=(),
            variations=(
                (SYNTHETIC_ATTRIBUTE, triple[0], triple[0]) for triple in marker_triples
            ),
            provenance=(),
            attributes=[
                (
                    SYNTHETIC_ATTRIBUTE,
                    0,
                    1,
                    filename,
                    image.crc,
                    sections_crc(sections),
                    num_entities,
                )
            ],
            summaries=(
                (SYNTHETIC_ATTRIBUTE, encode_entity_id(eid), row, None)
                for row, eid in enumerate(entity_ids)
            ),
            models=(),
        )
