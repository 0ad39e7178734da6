"""Child processes of the benchmark: the gateway host and the post-restart boot.

Run as ``python -m benchmarks.e2e.child <role> ...``.  A child writes one JSON
object per line on stdout — first when its work is ready, then one per command
read from stdin — and exits when stdin closes, so a parent that dies (or is
killed on a timeout) never leaves a child, or the fleet it forked, behind.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def reply(document: dict) -> None:
    sys.stdout.write(json.dumps(document) + "\n")
    sys.stdout.flush()


def gateway(entities: int, traced: bool) -> None:
    """Host ``ServingGateway`` over the fleet until stdin closes.

    Commands: ``{"command": "trace", "on": bool}`` switches span recording in
    this process (frames to the nodes carry the flag with them);
    ``{"command": "oracle", "queries": [...]}`` answers each query with a
    fresh serial processor on **this** process's database — a database built
    in another process differs in the last bits of its embeddings (README
    finding), so only an oracle over the same instance can be compared bit
    for bit.
    """
    from benchmarks.e2e import queries, spec, workloads
    from repro import obs
    from repro.serving import start_gateway

    if traced:
        workloads.prepare_tracing()
    database = workloads.build_database(entities)
    with workloads.fleet_engine(database) as engine:
        hydrate_s = workloads.warm_up(engine)
        with start_gateway(engine, max_frame_bytes=spec.FLEET["max_frame_bytes"]) as handle:
            reply({"address": list(handle.address), "pid": os.getpid(), "hydrate_s": hydrate_s})
            for line in sys.stdin:
                command = json.loads(line)
                if command["command"] == "trace":
                    (obs.enable_tracing if command["on"] else obs.disable_tracing)()
                    reply({"ok": True})
                elif command["command"] == "oracle":
                    oracle = queries.Oracle(database)
                    reply({"answers": [oracle.answer(sql).to_json()
                                       for sql in command["queries"]]})


def boot(directory: str, seed: int, stream_seconds: float, traced: bool) -> None:
    """Open the storage directory, answer one query, then serve a cold stream.

    With ``stream_seconds`` 0 the boot is all there is: ``restart`` boots
    several fresh processes per cycle for a median ``boot_s`` and lets only
    the last one serve (and, in the traced pass, probe the open path).
    """
    from benchmarks.e2e import layers, probes, queries, workloads
    from repro.core.database import SubjectiveDatabase
    from repro.storage import StorageCatalog, StoreReader
    from repro.utils.timing import now

    if traced:
        workloads.prepare_tracing()
    began = now()
    database = SubjectiveDatabase.open(directory)
    engine = workloads.inproc_engine(database)
    first_sql = queries.WARMUP_QUERIES[0]
    first = queries.Answer.of_result(engine.execute(first_sql))
    boot_s = now() - began

    before = workloads.engine_view(engine)
    if stream_seconds > 0:
        reads = workloads.read_pass(engine.execute, queries.cold_stream(seed), stream_seconds,
                                    traced)
    else:
        reads = workloads.ReadPass(workloads.Run())
    document = {
        "boot_s": boot_s,
        "first": [first_sql, first.to_json()],
        "main": reads.main.to_json(),
        "reference": reads.reference.to_json() if reads.reference else None,
        "num_reviews": database.num_reviews(),
        "data_version": database.data_version,
        "moved": layers.delta(workloads.engine_view(engine), before),
        "spans": workloads.collected_spans(engine) if traced else [],
        "storage": {},
    }
    if traced and stream_seconds > 0:
        # The parts of open_database, each timed by calling it from outside
        # (all against the page cache the first open already warmed).
        open_s = probes.seconds(lambda: SubjectiveDatabase.open(directory))
        catalog_s = probes.seconds(lambda: StorageCatalog(directory).close())
        map_s = probes.seconds(lambda: StoreReader(directory).verify()) - catalog_s
        store = engine.stats_snapshot()["columnar_store"]
        document["storage"] = {
            "storage.catalog_open_s": catalog_s,
            "storage.map_s": map_s,
            "storage.relational_load_s": open_s - catalog_s - map_s,
            "storage.mmap_serves": float(store.get("base", store).get("mmap_serves", 0)),
        }
    reply(document)
    sys.stdin.read()  # stay alive (and countable in peak_rss_mb) until released


def main() -> int:
    from benchmarks.e2e.environment import bootstrap, exit_on_sigterm

    bootstrap()
    exit_on_sigterm()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    roles = parser.add_subparsers(dest="role", required=True)
    role = roles.add_parser("gateway")
    role.add_argument("entities", type=int)
    role = roles.add_parser("boot")
    role.add_argument("directory")
    role.add_argument("seed", type=int)
    role.add_argument("stream_seconds", type=float)
    for role in roles.choices.values():
        role.add_argument("--traced", type=int, default=0)
    arguments = parser.parse_args()
    try:
        if arguments.role == "gateway":
            gateway(arguments.entities, bool(arguments.traced))
        else:
            boot(arguments.directory, arguments.seed, arguments.stream_seconds,
                 bool(arguments.traced))
    except Exception as error:  # noqa: BLE001 - reported to the parent, which fails the run
        reply({"error": f"{type(error).__name__}: {error}"})
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
