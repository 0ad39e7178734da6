"""Serving layer: batched subjective-query execution with caches.

The core :class:`repro.core.SubjectiveQueryProcessor` reproduces the paper's
pipeline faithfully but treats every query as independent: each call
re-parses the SQL, re-interprets every subjective predicate, and scores each
candidate entity from scratch.  This package amortises that work across a
query stream, which is what a production deployment serving repeated and
overlapping queries needs:

* :class:`LRUCache` / :class:`DegreeColumnCache` — the bounded cache
  primitives shared by the layers below (plans and candidates, the shard
  service's per-slice vectors, membership-degree columns);
* :func:`normalize_sql` / :class:`QueryPlan` — normalised-SQL keyed plans
  bundling the parsed statement with its predicate interpretations;
* :class:`SubjectiveQueryEngine` — the serving front end: an LRU plan cache,
  a per-database membership-degree cache invalidated on ingest, batch
  (vectorized) degree computation over candidate entities, a ``run_batch()``
  API, and cache/latency statistics;
* :class:`ShardedSubjectiveQueryEngine` / :class:`ShardedColumnarStore` —
  the entity-sharded scale-out tier: K contiguous slice views per
  attribute, per-slice kernel fan-out (serial/thread backends),
  per-shard membership-cache counters, vectorized WHERE-tree scoring and
  per-shard top-k merge;
* :class:`ShardService` (:mod:`repro.serving.service`) — the frame handler
  behind every cluster node: ``score`` / ``rank`` / ``invalidate`` /
  ``stats`` / ``traces`` over the node's hydrated slices (a ``rank`` frame
  runs a pruned query's chunk loop over the node's own slices);
* :class:`ClusterQueryEngine` / :class:`ClusterShardStore` /
  :class:`ShardNodeServer` (:mod:`repro.serving.cluster`) — the
  multi-process tier: shard nodes listening on **TCP** (the frame protocol
  of :mod:`repro.serving.protocol`), forked on this machine or started
  anywhere, hydrated from shipped
  :class:`~repro.core.columnar.ColumnSnapshot` bytes, a versioned
  ``hello`` handshake, pipelined per-node request queues, and a
  concurrent ``run_batch`` that overlaps independent queries' fan-outs;
* :class:`ServingGateway` / :class:`AsyncGatewayClient` / :class:`GatewayClient`
  (:mod:`repro.serving.gateway`) — the client-facing front door: an
  ``asyncio`` server that coalesces identical in-flight requests, folds
  concurrent arrivals into ``run_batch`` micro-batches, enforces typed
  admission control (:class:`AdmissionController`), and answers a live
  ``stats`` opcode even while the engine is saturated.

Every engine produces results identical to the wrapped processor — caches
only short-circuit recomputation of values the processor would have
produced, and sharded, cluster or gateway execution reorders work, never
arithmetic.  ``docs/ARCHITECTURE.md`` documents every layer, the
cache hierarchy, and the ``data_version`` invalidation contract in one
place.
"""

from repro.serving.cache import CacheStats, DegreeColumnCache, LRUCache
from repro.serving.cluster import (
    ClusterQueryEngine,
    ClusterShardStore,
    ShardNodeServer,
    start_local_node,
)
from repro.serving.engine import (
    BatchResult,
    ServingStats,
    SubjectiveQueryEngine,
)
from repro.serving.gateway import (
    AdmissionController,
    AsyncGatewayClient,
    GatewayClient,
    GatewayHandle,
    GatewayReply,
    ServingGateway,
    coalescing_key,
    start_gateway,
)
from repro.serving.plans import QueryPlan, normalize_sql
from repro.serving.protocol import (
    OP_TRACES,
    PROTOCOL_VERSION,
    FrameTooLargeError,
    GatewayOverloadedError,
    HandshakeError,
    RpcError,
    WorkerCrashedError,
)
from repro.serving.service import ShardService
from repro.serving.sharded import (
    ShardedColumnarStore,
    ShardedSubjectiveQueryEngine,
    default_num_shards,
    merge_shard_topk,
    partition_bounds,
)

__all__ = [
    "AdmissionController",
    "AsyncGatewayClient",
    "BatchResult",
    "CacheStats",
    "ClusterQueryEngine",
    "ClusterShardStore",
    "DegreeColumnCache",
    "FrameTooLargeError",
    "GatewayClient",
    "GatewayHandle",
    "GatewayOverloadedError",
    "GatewayReply",
    "HandshakeError",
    "LRUCache",
    "OP_TRACES",
    "PROTOCOL_VERSION",
    "QueryPlan",
    "RpcError",
    "ServingGateway",
    "ServingStats",
    "ShardNodeServer",
    "ShardService",
    "ShardedColumnarStore",
    "ShardedSubjectiveQueryEngine",
    "SubjectiveQueryEngine",
    "WorkerCrashedError",
    "coalescing_key",
    "default_num_shards",
    "merge_shard_topk",
    "normalize_sql",
    "partition_bounds",
    "start_gateway",
    "start_local_node",
]
