"""Pruned top-k quickstart: bound-based pruning over the cluster engine.

Shows the threshold-style top-k path (on by default) end to end:

1. build a small synthetic hotel database,
2. point a :class:`repro.serving.ClusterQueryEngine` at it — the
   coordinator forks a fleet of local TCP shard nodes and ships the
   query to them as one ``rank`` frame per node; each node scans its own
   slices in bound order, skips the exact kernel for entities whose degree
   *upper bound* cannot reach its running k-th best score, and returns its
   exact local top-k for the coordinator to merge,
3. run a selective top-3 conjunction and print the ranked answers,
4. print the ``partition_stats()`` pruning counters — how many entities
   each node settled exactly (``entities_scored``) versus from bounds
   alone (``entities_pruned``),
5. cross-check the ranking against an engine with ``prune_topk=False``:
   pruning changes how much work runs, never a returned bit.

Run with:  python examples/pruned_topk_quickstart.py
"""

from __future__ import annotations

from repro.datasets import generate_hotel_corpus, hotel_seed_sets
from repro.experiments.common import build_subjective_database
from repro.serving import ClusterQueryEngine, ShardedSubjectiveQueryEngine

QUERY = (
    'select * from Entities where "has really clean rooms"'
    ' and "friendly staff" limit 3'
)


def main() -> None:
    print("Building a hotel database (300 hotels)...")
    corpus = generate_hotel_corpus(num_entities=300, reviews_per_entity=6, seed=0)
    database = build_subjective_database(corpus, hotel_seed_sets(), seed=0)

    print("Starting a 4-node local cluster (bound pruning on by default)...")
    with ClusterQueryEngine(database=database, num_nodes=4) as engine:
        print(f"\n  {QUERY}")
        result = engine.execute(QUERY)
        for entity in result:
            print(f"    {entity.entity_id:<12} score={entity.score:.3f}")

        store = engine.sharded_store
        print(
            f"\nCoordinator totals: entities_scored={store.entities_scored} "
            f"entities_pruned={store.entities_pruned}"
        )
        print("Per-node pruning counters:")
        for entry in engine.partition_stats():
            print(
                f"  node {entry['node']}: "
                f"requests={entry['requests']} "
                f"entities_scored={entry.get('entities_scored', 0)} "
                f"entities_pruned={entry.get('entities_pruned', 0)}"
            )

        # Pruning is a work-avoidance layer, never a semantics layer: the
        # unpruned engine returns the identical ranking, bit for bit.
        with ShardedSubjectiveQueryEngine(
            database=database, num_shards=4, prune_topk=False
        ) as full:
            expected = full.execute(QUERY)
        assert [e.entity_id for e in result] == [e.entity_id for e in expected]
        assert [e.score for e in result] == [e.score for e in expected]
        print("\nRanking identical to the unpruned engine: True")
    print("Done: coordinator closed, node fleet shut down.")


if __name__ == "__main__":
    main()
