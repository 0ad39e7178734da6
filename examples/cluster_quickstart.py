"""Cluster quickstart: two TCP shard nodes, one coordinator.

Shows the multi-node serving tier end to end on one machine:

1. build a small synthetic hotel database,
2. start two :class:`repro.serving.ShardNodeServer` instances on ephemeral
   localhost TCP ports (in a real deployment these run on other machines —
   they hold no database; their column slices arrive over the wire as
   checksummed ``ColumnSnapshot`` bytes),
3. point a :class:`repro.serving.ClusterQueryEngine` at their addresses
   and run a query batch — each query ships as one ``rank`` frame per
   node, and every node ranks its own slices,
4. print the ranked answers and the per-node transport statistics.

Results are exactly those of the single-process engine; only the execution
placement changes.  Run with:  python examples/cluster_quickstart.py
"""

from __future__ import annotations

from repro.core import SubjectiveQueryProcessor
from repro.datasets import generate_hotel_corpus, hotel_seed_sets
from repro.experiments.common import build_subjective_database
from repro.serving import ClusterQueryEngine, start_local_node

QUERIES = [
    'select * from Entities where "has really clean rooms" limit 3',
    'select * from Entities where "friendly staff" and "great breakfast" limit 3',
    "select * from Entities where city = 'london' and \"quiet room\" limit 3",
    'select * from Entities where "has really clean rooms" limit 3',
]


def main() -> None:
    print("Building a small hotel database (20 hotels)...")
    corpus = generate_hotel_corpus(num_entities=20, reviews_per_entity=12, seed=0)
    database = build_subjective_database(corpus, hotel_seed_sets(), seed=0)
    processor = SubjectiveQueryProcessor(database)

    print("Starting 2 shard nodes on localhost TCP ports...")
    servers = [
        start_local_node(processor.membership, node_id=index)[0] for index in range(2)
    ]
    addresses = [server.address for server in servers]
    for index, address in enumerate(addresses):
        print(f"  node {index} listening on {address[0]}:{address[1]}")

    engine = ClusterQueryEngine(database=database, processor=processor, addresses=addresses)
    try:
        print(f"\nRunning a batch of {len(QUERIES)} queries through the cluster...")
        batch = engine.run_batch(QUERIES)
        for sql, result in zip(QUERIES, batch.results):
            print(f"\n  {sql}")
            for entity in result:
                print(f"    {entity.entity_id:<12} score={entity.score:.3f}")

        print(f"\nBatch: {len(batch)} queries in {batch.elapsed_seconds * 1000:.1f} ms "
              f"({batch.queries_per_second:.0f} qps)")
        print("Transport:",
              {name: value for name, value in batch.cache_stats.items()
               if name.startswith(("rpc_", "node_", "snapshot_"))})
        print("\nPer-node statistics:")
        for entry in engine.partition_stats():
            print(f"  node {entry['node']} @ {entry['address']}: "
                  f"requests={entry['requests']} "
                  f"bytes_sent={entry['bytes_sent']} "
                  f"bytes_received={entry['bytes_received']} "
                  f"hydrated_slices={entry.get('hydrated_slices', 0)} "
                  f"cache_hits={entry.get('cache_hits', 0)}")
    finally:
        engine.close()
        for server in servers:
            server.stop()
    print("\nDone: engine closed, nodes stopped.")


if __name__ == "__main__":
    main()
