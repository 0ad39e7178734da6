"""Cold hydration and kill-one-node recovery of the cluster serving layer.

The standing bottleneck of fully-cold fleet serving is that every cold
start re-ships whole column slices.
This benchmark pins what the PR-8 recovery machinery buys back, in two
measurements:

* **Cold hydrate, compressed vs lossless.**  Per slice, the three real
  costs of a hydration are measured directly: coordinator pack CPU, frame
  bytes, and node-side install CPU (``handle_frame`` on a real
  :class:`ShardNodeServer` — the identical code path the TCP node runs,
  minus the socket).  Loopback wall-clock cannot see the bytes (localhost
  moves gigabytes per second, so both arms measure the same kernel time —
  recorded here as the honest ``loopback_*`` figures); a cluster crossing
  a network does, so the headline figure models the cold hydrate on a
  reference 1 Gbps link: ``pack + bytes/bandwidth + install`` summed over
  every slice.  The compressed arm is the full optimisation — zlib
  framing plus f32 centroid quantization under an explicit ``1e-6``
  tolerance; zlib-only (bit-lossless) bytes are recorded alongside.  The
  floor: the compressed cold hydrate is ≥ 1.5× faster than the lossless
  full-snapshot hydrate on the reference link.

* **Kill-one-node recovery.**  Over real TCP with ``replication=2``: node
  0 is paused (provably unanswered), a cold fan-out is issued, node 0 is
  SIGKILLed mid-flight, and the batch must complete **bit-identical** to
  the unsharded store with zero caller-visible errors — pinned as
  ``killnode_replicated_success`` 1.0 with a 1.0 floor.  The failover
  latency is recorded next to the ``replication=1`` alternative (typed
  error, then respawn + full re-hydrate on the next query).

A one-entity ingest's delta frame size is recorded against the full
snapshot it replaces (``delta_to_full_ratio``), pinning the delta path's
payload saving.  Results land in ``BENCH_recovery.json``.

Scale knobs: ``REPRO_BENCH_RECOVERY_ENTITIES`` (default 800, floored at
400).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from benchmarks.conftest import print_result
from repro.core.columnar import ColumnSnapshot, ColumnarSummaryStore, SnapshotDelta
from repro.core.markers import MarkerSummary
from repro.core.processor import SubjectiveQueryProcessor
from repro.experiments.common import ExperimentTable
from repro.serving import ClusterShardStore, ShardNodeServer, WorkerCrashedError
from repro.serving.protocol import encode_hydrate_request
from repro.serving.sharded import partition_bounds
from repro.testing import (
    ClusterFaultInjector,
    build_synthetic_columnar_database,
    env_int,
)

pytestmark = pytest.mark.slow

#: The measurement harness, recorded verbatim under ``"harness"`` in the
#: results document so a stale ``BENCH_recovery.json`` is detectable.  Must
#: stay a pure literal — ``tools/check_bench_floors.py`` reads it with
#: ``ast.literal_eval`` and warns when it drifts from the committed JSON.
HARNESS = {
    "benchmark": "bench_cold_recovery",
    "domain": "synthetic",
    "entities_default": 800,
    "entities_env": "REPRO_BENCH_RECOVERY_ENTITIES",
    "num_nodes": 2,
    "num_slices": 4,
    "replication": 2,
    "reference_link_gbps": 1.0,
    "centroid_tolerance": 1e-06,
    "passes": 5,
    "timing": "best-of-passes; modeled transfer = pack + bytes/link + install",
    "compressed_speedup_floor": 1.5,
    "killnode_replicated_success_floor": 1.0,
}

ENTITIES = max(400, env_int("REPRO_BENCH_RECOVERY_ENTITIES", 800))
NUM_NODES = 2
NUM_SLICES = 4
REFERENCE_BYTES_PER_SECOND = 1.0e9 / 8  # 1 Gbps reference link
CENTROID_TOLERANCE = 1e-6
COMPRESSED_SPEEDUP_FLOOR = 1.5
PASSES = 5
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_recovery.json"
FAST = {"connect_timeout": 10.0, "io_timeout": 60.0}


@pytest.fixture(scope="module")
def recovery_database():
    return build_synthetic_columnar_database(num_entities=ENTITIES, seed=0)


def _best_ms(action, passes: int = PASSES) -> float:
    """Best-of-``passes`` wall-clock of ``action`` in milliseconds."""
    best = float("inf")
    for _ in range(passes):
        started = time.perf_counter()
        action()
        best = min(best, time.perf_counter() - started)
    return best * 1000.0


def _slice_snapshots(database) -> list[ColumnSnapshot]:
    """Every (attribute, slice) snapshot the cold fan-out would ship."""
    store = ColumnarSummaryStore(database)
    snapshots = []
    for attribute in database.schema.subjective_attributes:
        columns = store.columns(attribute.name)
        bounds = partition_bounds(columns.num_entities, NUM_SLICES)
        for slice_id, (start, stop) in enumerate(zip(bounds, bounds[1:])):
            snapshots.append(
                ColumnSnapshot.of_slice(
                    columns, slice_id, start, stop, database.data_version
                )
            )
    return snapshots


def _hydrate_profile(database, membership, **pack_kwargs):
    """(pack ms, payload bytes, install ms) summed over every cold slice.

    Install time is measured on a real :class:`ShardNodeServer` through
    ``handle_frame`` — container verify, (de)compression, array unpack and
    slice install, exactly what the TCP node executes per hydrate frame.
    """
    snapshots = _slice_snapshots(database)
    node = ShardNodeServer(node_id=0, membership=membership)
    pack_ms = sum(
        _best_ms(lambda s=snapshot: s.pack(**pack_kwargs)) for snapshot in snapshots
    )
    payloads = [snapshot.pack(**pack_kwargs) for snapshot in snapshots]
    total_bytes = sum(len(payload) for payload in payloads)
    install_ms = sum(
        _best_ms(lambda p=payload: node.handle_frame(encode_hydrate_request(p)))
        for payload in payloads
    )
    return pack_ms, total_bytes, install_ms


def _modeled_cold_ms(pack_ms: float, total_bytes: int, install_ms: float) -> float:
    """Cold-hydrate time on the reference link: CPU plus modeled transfer."""
    return pack_ms + total_bytes / REFERENCE_BYTES_PER_SECOND * 1000.0 + install_ms


def _loopback_rehydrate_ms(database, membership, ids, attributes, **store_kwargs):
    """Wall-clock of a forced full re-hydration fan-out over live TCP."""
    store = ClusterShardStore(
        database, num_nodes=NUM_NODES, num_slices=NUM_SLICES, **store_kwargs, **FAST
    )
    try:
        phrases = iter(f"word{index:03d}" for index in range(2, 2 + PASSES + 1))
        store.pair_degrees(membership, ids, attributes[0], next(phrases))
        best = float("inf")
        for _ in range(PASSES):
            store._hydrated.clear()
            store._node_bases.clear()
            phrase = next(phrases)
            started = time.perf_counter()
            for attribute in attributes:
                store.pair_degrees(membership, ids, attribute, phrase)
            best = min(best, time.perf_counter() - started)
        return best * 1000.0
    finally:
        store.close()


def _delta_bytes(database) -> tuple[int, int]:
    """(delta frame bytes, full frame bytes) for a one-entity ingest."""
    attribute = database.schema.subjective_attributes[0]
    store = ColumnarSummaryStore(database)
    columns = store.columns(attribute.name)
    old = ColumnSnapshot.of_slice(
        columns, 0, 0, columns.num_entities, database.data_version
    )
    summary = MarkerSummary(attribute.name, list(attribute.markers))
    summary.add_phrase(attribute.markers[0].name, sentiment=0.5)
    database.store_summary(columns.entity_ids[0], summary)
    fresh = ColumnarSummaryStore(database)
    new_columns = fresh.columns(attribute.name)
    new = ColumnSnapshot.of_slice(
        new_columns, 0, 0, new_columns.num_entities, database.data_version
    )
    delta = SnapshotDelta.between(old, new)
    assert delta is not None
    return len(delta.pack(compress=True)), len(new.pack())


def _measure_killnode(database, membership, ids, attribute, expected):
    """(success flag, failover ms, failovers) of the mid-flight kill scenario."""
    store = ClusterShardStore(
        database, num_nodes=NUM_NODES, num_slices=NUM_SLICES, replication=2, **FAST
    )
    faults = ClusterFaultInjector(store)
    try:
        store.pair_degrees(membership, ids, attribute, "word001")
        faults.pause_node(0)
        request = store.request_degrees(membership, ids, attribute, "word003")
        faults.kill_node(0)
        started = time.perf_counter()
        degrees = store.collect_degrees(request)
        failover_ms = (time.perf_counter() - started) * 1000.0
        success = degrees == expected and store.failovers > 0
        return (1.0 if success else 0.0), failover_ms, store.failovers
    finally:
        faults.restore()
        store.close()


def _measure_respawn(database, membership, ids, attribute):
    """Recovery latency of the unreplicated alternative: respawn + re-hydrate."""
    store = ClusterShardStore(
        database, num_nodes=NUM_NODES, num_slices=NUM_SLICES, replication=1, **FAST
    )
    faults = ClusterFaultInjector(store)
    try:
        store.pair_degrees(membership, ids, attribute, "word001")
        faults.kill_node(0)
        started = time.perf_counter()
        try:
            store.pair_degrees(membership, ids, attribute, "word003")
        except WorkerCrashedError:
            pass
        store.pair_degrees(membership, ids, attribute, "word003")
        return (time.perf_counter() - started) * 1000.0
    finally:
        store.close()


def test_cold_recovery_benchmark(recovery_database):
    database = recovery_database
    membership = SubjectiveQueryProcessor(database).membership
    attributes = [attribute.name for attribute in database.schema.subjective_attributes]
    base = ColumnarSummaryStore(database)
    ids = list(base.columns(attributes[0]).entity_ids)
    expected = base.pair_degrees(membership, ids, attributes[0], "word003")

    # --- cold hydrate: lossless vs compressed --------------------------------
    pack_lossless, bytes_lossless, install_lossless = _hydrate_profile(
        database, membership
    )
    pack_compressed, bytes_compressed, install_compressed = _hydrate_profile(
        database, membership, compress=True, centroid_tolerance=CENTROID_TOLERANCE
    )
    bytes_zlib = sum(
        len(snapshot.pack(compress=True)) for snapshot in _slice_snapshots(database)
    )
    cold_lossless = _modeled_cold_ms(pack_lossless, bytes_lossless, install_lossless)
    cold_compressed = _modeled_cold_ms(
        pack_compressed, bytes_compressed, install_compressed
    )
    compressed_speedup = cold_lossless / cold_compressed

    loopback_lossless = _loopback_rehydrate_ms(database, membership, ids, attributes)
    loopback_compressed = _loopback_rehydrate_ms(
        database,
        membership,
        ids,
        attributes,
        snapshot_compression=True,
        centroid_tolerance=CENTROID_TOLERANCE,
    )

    # --- kill-one-node recovery ---------------------------------------------
    killnode_success, failover_ms, failovers = _measure_killnode(
        database, membership, ids, attributes[0], expected
    )
    respawn_ms = _measure_respawn(database, membership, ids, attributes[0])

    # Mutates the database (one-entity ingest), so this runs last.
    delta_bytes, full_bytes = _delta_bytes(database)

    table = ExperimentTable(
        title=f"Cold hydrate & recovery ({ENTITIES} entities, "
        f"{NUM_NODES} nodes, 1 Gbps reference link)",
        columns=["measurement", "value"],
    )
    table.add_row("cold hydrate lossless (ms)", round(cold_lossless, 1))
    table.add_row("cold hydrate compressed (ms)", round(cold_compressed, 1))
    table.add_row("compressed speedup", round(compressed_speedup, 2))
    table.add_row("hydrate bytes lossless", bytes_lossless)
    table.add_row("hydrate bytes compressed", bytes_compressed)
    table.add_row("delta vs full bytes (1-entity ingest)", f"{delta_bytes}/{full_bytes}")
    table.add_row("kill-node failover (ms, R=2)", round(failover_ms, 1))
    table.add_row("kill-node respawn+rehydrate (ms, R=1)", round(respawn_ms, 1))
    print_result(table.format())

    RESULTS_PATH.write_text(
        json.dumps(
            {
                "benchmark": "bench_cold_recovery",
                "domain": "synthetic",
                "entities": len(database),
                "num_nodes": NUM_NODES,
                "num_slices": NUM_SLICES,
                "reference_link_gbps": 1.0,
                "hydrate_bytes_lossless": bytes_lossless,
                "hydrate_bytes_zlib": bytes_zlib,
                "hydrate_bytes_compressed": bytes_compressed,
                "pack_ms_lossless": round(pack_lossless, 2),
                "pack_ms_compressed": round(pack_compressed, 2),
                "install_ms_lossless": round(install_lossless, 2),
                "install_ms_compressed": round(install_compressed, 2),
                "cold_hydrate_ms_lossless": round(cold_lossless, 2),
                "cold_hydrate_ms_compressed": round(cold_compressed, 2),
                "compressed_speedup": round(compressed_speedup, 2),
                "compressed_speedup_floor": COMPRESSED_SPEEDUP_FLOOR,
                "loopback_rehydrate_ms_lossless": round(loopback_lossless, 1),
                "loopback_rehydrate_ms_compressed": round(loopback_compressed, 1),
                "delta_bytes_one_entity_ingest": delta_bytes,
                "full_snapshot_bytes": full_bytes,
                "delta_to_full_ratio": round(delta_bytes / full_bytes, 4),
                "killnode_replicated_success": killnode_success,
                "killnode_replicated_success_floor": 1.0,
                "killnode_failover_ms": round(failover_ms, 1),
                "killnode_respawn_ms": round(respawn_ms, 1),
                "killnode_failovers": failovers,
                "harness": HARNESS,
            },
            indent=2,
        )
        + "\n"
    )

    assert killnode_success == 1.0, "kill-one-node with R=2 was not invisible"
    assert compressed_speedup >= COMPRESSED_SPEEDUP_FLOOR, (
        f"compressed cold hydrate only {compressed_speedup:.2f}x lossless "
        f"on the reference link"
    )
