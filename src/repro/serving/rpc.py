"""Shard-service RPC: worker processes scoring slices, a coordinator merging.

PR 3 made the contiguous entity slice the unit of placement but kept every
shard in one process.  This module moves the shards behind a service
boundary — the deployment shape of a disaggregated, coordinator/worker
query engine — while pinning the same exact-equality contract as every
other serving layer:

* **Frame protocol** — the length-prefixed binary frames, opcodes and
  error types of :mod:`repro.serving.protocol` (one definition shared with
  the TCP cluster transport of :mod:`repro.serving.cluster`), spoken here
  over local stream sockets;
* :class:`ShardServiceWorker` — the server side: a long-lived worker
  process owning a set of contiguous entity slices.  It is a
  :class:`~repro.serving.service.ShardService` — the one frame handler
  every shard transport shares — over a
  :class:`~repro.serving.service.StoreSliceSource`: shipped
  ``(attribute, start, stop[, rows])`` indices are resolved against the
  worker's own deterministic rebuild of the column arrays;
* :class:`ShardServiceClient` — the coordinator's per-worker handle:
  pipelined request writes, typed response reads, and clean
  :class:`WorkerCrashedError` surfacing when a worker dies mid-request;
* :class:`RpcShardStore` — implements the same ``pair_degrees`` protocol
  as :class:`~repro.serving.sharded.ShardedColumnarStore`, so the query
  processor routes through it unchanged: resident rows are grouped into
  per-slice score requests (:func:`repro.core.columnar.plan_slice_requests`
  — the identical plan the in-process store executes), requests are
  written to every involved worker before any response is read (workers
  compute concurrently), and the returned vectors are scattered back into
  one store-wide degree array;
* :class:`CoordinatorQueryEngine` — the serving front end: plans once
  through the inherited plan cache, fans WHERE-tree scoring out to the
  workers through the installed :class:`RpcShardStore`, and merges
  per-shard top-k heaps under the exact existing ``(-score,
  str(entity_id), position)`` stable order (all of
  :class:`~repro.serving.sharded.ShardedSubjectiveQueryEngine`'s ranking
  machinery is reused verbatim — only the degree transport changed).

Workers are forked, so they inherit the database snapshot of the moment
they were spawned; ingest in the coordinator process can never reach them.
A ``data_version`` bump therefore tears the worker fleet down and the next
query re-forks it over the current data — one invalidation unit with the
engine caches and the base column arrays.  The ``invalidate`` RPC drops
worker-side degree caches *within* a snapshot's lifetime (used by
benchmarks and by deployments that recycle caches without re-forking); it
reports the worker's snapshot version so the coordinator can detect skew.

Because worker slices are rebuilt deterministically from the same snapshot
the coordinator's own base store reads, every shipped kernel result is
bit-identical to an in-process pass — the differential suite pins
rankings, scores and degrees of :class:`CoordinatorQueryEngine` exactly
equal to the unsharded engine across worker counts {1, 2, 4}.
"""

from __future__ import annotations

import json
import multiprocessing
import socket
from typing import Hashable, Sequence

import numpy as np

from repro.core.columnar import (
    AttributeColumns,
    ColumnarSummaryStore,
    columnar_kernel,
    gather_degrees,
    plan_slice_requests,
    scalar_fallback_scorer,
)
from repro.core.database import SubjectiveDatabase
from repro.core.processor import SubjectiveQueryProcessor
from repro.errors import ExecutionError
from repro.obs.metrics import MetricsRegistry, cell_property
from repro.obs.trace import current_wire_trace, global_trace_store, span
from repro.serving.protocol import (
    _HEADER,
    _U8,
    DEFAULT_MAX_FRAME_BYTES,
    OP_SHUTDOWN,
    OP_STATS,
    STATUS_ERROR,
    FrameTooLargeError,
    Reader,
    RpcError,
    WorkerCrashedError,
    encode_invalidate_request,
    encode_score_bounded_request,
    encode_score_request,
    encode_traces_request,
    read_score_bounded_response,
    recv_frame,
    send_frame,
)
from repro.serving.service import DEFAULT_WORKER_CACHE_SIZE, ShardService, StoreSliceSource
from repro.serving.sharded import (
    ShardedSubjectiveQueryEngine,
    default_num_shards,
    partition_bounds,
)

# --------------------------------------------------------------------------
# The worker (server side)
# --------------------------------------------------------------------------


class ShardServiceWorker(ShardService):
    """One forked shard-service worker: the shard service over its own store.

    The worker holds a forked snapshot of the database and rebuilds its
    column arrays from it on demand (:class:`ColumnarSummaryStore` builds
    deterministically, so the arrays — and every kernel result — are
    bit-identical to the coordinator's own).
    """

    def __init__(
        self,
        index: int,
        database: SubjectiveDatabase,
        membership: object,
        owned_slice_ids: Sequence[int],
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        cache_size: int | None = DEFAULT_WORKER_CACHE_SIZE,
    ) -> None:
        super().__init__(
            "worker",
            index,
            membership,
            StoreSliceSource(database, owned_slice_ids),
            max_frame_bytes,
            cache_size,
        )


def _worker_main(
    index: int,
    sock: socket.socket,
    close_in_child: list[socket.socket],
    database: SubjectiveDatabase,
    membership: object,
    owned_slice_ids: list[int],
    max_frame_bytes: int,
    cache_size: int | None,
) -> None:
    """Forked worker entry point: close inherited peer sockets, then serve."""
    for other in close_in_child:
        try:
            other.close()
        except OSError:
            pass
    # The fork copies the coordinator's span buffer; without this clear,
    # worker_traces() would re-serve the parent's spans as duplicates.
    global_trace_store().clear()
    worker = ShardServiceWorker(
        index=index,
        database=database,
        membership=membership,
        owned_slice_ids=owned_slice_ids,
        max_frame_bytes=max_frame_bytes,
        cache_size=cache_size,
    )
    try:
        worker.serve(sock)
    finally:
        sock.close()


# --------------------------------------------------------------------------
# The client handle (coordinator side)
# --------------------------------------------------------------------------

class ShardServiceClient:
    """The coordinator's handle to one worker: framed requests, typed reads.

    Writes and reads are decoupled so the coordinator can pipeline — write
    score requests to *every* involved worker, then collect responses —
    which is what lets the workers compute concurrently.  Transport
    failures surface as :class:`WorkerCrashedError` naming the worker.
    """

    def __init__(
        self,
        index: int,
        process: multiprocessing.process.BaseProcess,
        sock: socket.socket,
        owned_slice_ids: Sequence[int],
        max_frame_bytes: int,
        counters: dict[str, int] | None = None,
    ) -> None:
        self.index = index
        self.process = process
        self.sock = sock
        self.owned_slice_ids = list(owned_slice_ids)
        self.max_frame_bytes = max_frame_bytes
        # Per-worker transport counters; the store shares one dict per
        # worker index across respawns so the statistics survive the fleet.
        if counters is None:
            counters = {"requests": 0, "bytes_sent": 0, "bytes_received": 0}
        self.counters = counters

    @property
    def alive(self) -> bool:
        """Whether the worker process is still running."""
        return self.process.is_alive()

    def _crashed(self, detail: str) -> WorkerCrashedError:
        return WorkerCrashedError(
            f"shard worker {self.index} (pid {self.process.pid}) {detail}; "
            "the worker fleet will be respawned on the next query"
        )

    def send(self, payload: bytes) -> None:
        """Write one request frame (no response read — see :meth:`read_ok`)."""
        try:
            send_frame(self.sock, payload, self.max_frame_bytes)
        except FrameTooLargeError:
            raise
        except OSError as error:
            raise self._crashed(f"is unreachable ({error})") from error
        self.counters["requests"] += 1
        self.counters["bytes_sent"] += _HEADER.size + len(payload)

    def read_ok(self) -> Reader:
        """Read one response frame, raising transported worker errors."""
        try:
            payload = recv_frame(self.sock, self.max_frame_bytes)
        except FrameTooLargeError:
            raise
        except (RpcError, OSError) as error:
            raise self._crashed(f"died mid-request ({error})") from error
        if payload is None:
            raise self._crashed("closed its connection with a request in flight")
        self.counters["bytes_received"] += _HEADER.size + len(payload)
        reader = Reader(payload)
        if reader.read_u8() == STATUS_ERROR:
            raise RpcError(f"shard worker {self.index}: {reader.read_str()}")
        return reader

    def read_score_vector(self) -> np.ndarray:
        """The degree vector of one previously sent ``score`` request."""
        reader = self.read_ok()
        return reader.read_f64_array(reader.read_u32())

    def read_score_bounded(self) -> tuple[np.ndarray, np.ndarray, int, int]:
        """The ``(values, exact_mask, scored, pruned)`` of one bounded request."""
        return read_score_bounded_response(self.read_ok())

    def invalidate(self, data_version: int) -> tuple[int, int]:
        """Drop the worker's degree caches; returns (snapshot version, dropped)."""
        self.send(encode_invalidate_request(data_version))
        reader = self.read_ok()
        return reader.read_u64(), reader.read_u32()

    def stats(self) -> dict:
        """The worker's counters and cache statistics (a ``stats`` RPC)."""
        self.send(_U8.pack(OP_STATS))
        return json.loads(self.read_ok().read_str())

    def traces(self, trace_id: int = 0, limit: int = 0) -> list[dict]:
        """Span records from the worker's trace store (a ``traces`` RPC)."""
        self.send(encode_traces_request(trace_id, limit))
        return json.loads(self.read_ok().read_str())

    def close(self, kill: bool = False) -> None:
        """Stop the worker: graceful ``shutdown`` RPC, or ``kill`` outright.

        Idempotent and safe on crashed workers; always reaps the process.
        """
        if not kill and self.alive:
            try:
                self.send(_U8.pack(OP_SHUTDOWN))
                self.read_ok()
            except RpcError:
                pass
        try:
            self.sock.close()
        except OSError:
            pass
        if self.alive:
            self.process.terminate()
        self.process.join(timeout=5)
        if self.process.is_alive():  # pragma: no cover - last resort
            self.process.kill()
            self.process.join(timeout=5)


# --------------------------------------------------------------------------
# The coordinator store
# --------------------------------------------------------------------------

class RpcShardStore:
    """Entity-sliced degree scoring over shard-service worker processes.

    Implements the ``pair_degrees`` protocol of
    :class:`~repro.core.columnar.ColumnarSummaryStore` /
    :class:`~repro.serving.sharded.ShardedColumnarStore`, so a
    :class:`~repro.core.processor.SubjectiveQueryProcessor` routes through
    it unchanged.  The store keeps its own base columnar store for row
    lookup and scalar fallbacks; kernel work ships to the workers as
    ``(attribute, start, stop[, rows])`` slice indices — never arrays.

    Slices are assigned to workers contiguously
    (:func:`~repro.serving.sharded.partition_bounds` over the slice ids),
    so each worker owns a set of contiguous entity slices.  Workers are
    forked lazily on first use and live until the data version moves, the
    membership function changes, a worker crashes, or :meth:`close`.
    """

    def __init__(
        self,
        database: SubjectiveDatabase,
        num_workers: int | None = None,
        num_slices: int | None = None,
        base: ColumnarSummaryStore | None = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        worker_cache_size: int | None = DEFAULT_WORKER_CACHE_SIZE,
    ) -> None:
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ExecutionError(
                "the shard-service RPC layer requires the 'fork' start method; "
                "use the in-process sharded engine on this platform"
            )
        if num_workers is None:
            num_workers = default_num_shards()
        if num_workers < 1:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        if num_slices is None:
            num_slices = num_workers
        if num_slices < num_workers:
            raise ValueError(f"num_slices ({num_slices}) must be >= num_workers ({num_workers})")
        self.database = database
        self.num_workers = num_workers
        self.num_slices = num_slices
        self.base = base if base is not None else database.columnar_store()
        self.max_frame_bytes = max_frame_bytes
        self.worker_cache_size = worker_cache_size
        # Worker w owns the contiguous slice-id range [bounds[w], bounds[w+1]).
        self._ownership = partition_bounds(num_slices, num_workers)
        self._owner_of = [
            worker
            for worker, (start, stop) in enumerate(zip(self._ownership, self._ownership[1:]))
            for _ in range(stop - start)
        ]
        self._workers: list[ShardServiceClient] = []
        self._membership: object | None = None
        self._version = database.data_version
        self.metrics = MetricsRegistry()
        self._invalidations_cell = self.metrics.counter(
            "invalidations", help="Fleet teardowns forced by a data-version bump"
        )
        self._respawns_cell = self.metrics.counter(
            "respawns", help="Worker-fleet forks (lazy spawns and crash recoveries)"
        )
        self._fanouts_cell = self.metrics.counter(
            "fanouts", help="Sharded kernel passes (one per predicate computation)"
        )
        self._rpc_requests_cell = self.metrics.counter(
            "rpc_requests", help="Individual score requests shipped to workers"
        )
        self._entities_scored_cell = self.metrics.counter(
            "entities_scored", help="Requested rows scored exactly (bounded path)"
        )
        self._entities_pruned_cell = self.metrics.counter(
            "entities_pruned", help="Requested rows dismissed on a bound alone"
        )
        # Per-worker transport counters, shared with the client handles and
        # kept across respawns so partition_stats() describes the lifetime.
        self._worker_counters = [
            {"requests": 0, "bytes_sent": 0, "bytes_received": 0, "respawns": 0}
            for _ in range(num_workers)
        ]

    invalidations = cell_property("_invalidations_cell")
    respawns = cell_property("_respawns_cell")
    fanouts = cell_property("_fanouts_cell")
    rpc_requests = cell_property("_rpc_requests_cell")
    entities_scored = cell_property("_entities_scored_cell")
    entities_pruned = cell_property("_entities_pruned_cell")

    # ------------------------------------------------------------ lifecycle
    @property
    def data_version(self) -> int:
        """The database version the current worker fleet was forked against."""
        return self._version

    def _check_version(self) -> None:
        if self._version != self.database.data_version:
            self.invalidate()

    def invalidate(self) -> None:
        """Drop base columns and tear the (stale-snapshot) worker fleet down.

        Forked workers pin the database as of fork time, so a
        ``data_version`` bump makes every worker stale at once; the next
        query re-forks the fleet over the current data.  Base columns, the
        fleet, and the serving engine's caches all fall in the same
        invalidation unit.
        """
        self.base.invalidate()
        self._shutdown_workers()
        self._version = self.database.data_version
        self.invalidations += 1

    def invalidate_worker_caches(self) -> int:
        """Drop every live worker's degree caches; returns entries dropped.

        The ``invalidate`` RPC: cache recycling *within* a snapshot's
        lifetime (the data did not change, so the workers stay up).  Each
        worker reports its snapshot version; skew tears the fleet down —
        the snapshot can only be refreshed by re-forking.
        """
        dropped_total = 0
        stale = False
        for client in self._workers:
            version, dropped = client.invalidate(self.database.data_version)
            dropped_total += dropped
            stale = stale or version != self.database.data_version
        if stale:  # pragma: no cover - defensive; respawn handles skew
            self._shutdown_workers()
        return dropped_total

    def close(self) -> None:
        """Shut the worker fleet down gracefully (idempotent)."""
        self._shutdown_workers()

    def _shutdown_workers(self, kill: bool = False) -> None:
        workers, self._workers = self._workers, []
        for client in workers:
            client.close(kill=kill)

    # --------------------------------------------------------------- spawn
    def _ensure_workers(self, membership: object) -> None:
        """Fork the worker fleet if absent, stale, or bound to another membership."""
        if self._workers and self._membership is not membership:
            self._shutdown_workers()
        if self._workers and not all(client.alive for client in self._workers):
            self._shutdown_workers(kill=True)
        if self._workers:
            return
        context = multiprocessing.get_context("fork")
        clients: list[ShardServiceClient] = []
        for index in range(self.num_workers):
            owned = list(range(self._ownership[index], self._ownership[index + 1]))
            parent_sock, child_sock = socket.socketpair()
            # The child inherits every previously spawned worker's parent-
            # side socket (plus its own); it must close those copies or a
            # sibling crash would never surface as EOF to the coordinator.
            close_in_child = [client.sock for client in clients] + [parent_sock]
            process = context.Process(
                target=_worker_main,
                args=(
                    index,
                    child_sock,
                    close_in_child,
                    self.database,
                    membership,
                    owned,
                    self.max_frame_bytes,
                    self.worker_cache_size,
                ),
                daemon=True,
                name=f"repro-shard-service-{index}",
            )
            process.start()
            child_sock.close()
            self._worker_counters[index]["respawns"] += 1
            clients.append(
                ShardServiceClient(
                    index,
                    process,
                    parent_sock,
                    owned,
                    self.max_frame_bytes,
                    counters=self._worker_counters[index],
                )
            )
        self._workers = clients
        self._membership = membership
        self.respawns += 1

    @property
    def workers(self) -> list[ShardServiceClient]:
        """The live worker handles (empty before the first fan-out)."""
        return self._workers

    # ----------------------------------------------------------- partitions
    def columns(self, attribute: str) -> AttributeColumns | None:
        """The unpartitioned column arrays (delegates to the base store)."""
        self._check_version()
        return self.base.columns(attribute)

    # -------------------------------------------------------------- scoring
    def pair_degrees(
        self,
        membership: object,
        entity_ids: Sequence[Hashable],
        attribute: str,
        phrase: str,
    ) -> list[float] | None:
        """RPC analog of :meth:`ShardedColumnarStore.pair_degrees`.

        Resident entities are grouped into per-slice score requests (the
        in-process store's exact plan), the requests are written to every
        involved worker *before* any response is read — so workers compute
        their slices concurrently — and the returned vectors are scattered
        into one store-wide degree array.  Entities absent from the columns
        fall back to per-entity scalar scoring on the coordinator, and
        ``None`` is returned under the same conditions as the base store,
        so callers' fallback behaviour is unchanged.

        A worker crash surfaces as :class:`WorkerCrashedError`; the fleet
        is torn down so the next query re-forks it cleanly.
        """
        self._check_version()
        kernel = columnar_kernel(membership, self.database)
        if kernel is None:
            return None
        columns = self.base.columns(attribute)
        if columns is None:
            return None
        rows = [columns.row_of.get(entity_id) for entity_id in entity_ids]
        resident = sorted({row for row in rows if row is not None})
        batch: np.ndarray | None = None
        if resident:
            self._ensure_workers(membership)
            bounds = partition_bounds(columns.num_entities, self.num_slices)
            requests = plan_slice_requests(bounds, resident)
            batch = np.empty(columns.num_entities)
            per_worker: dict[int, list[tuple]] = {}
            for request in requests:
                per_worker.setdefault(self._owner_of[request[0]], []).append(request)
            try:
                rounds = max(len(group) for group in per_worker.values())
                with span("transport", layer="rpc", requests=len(requests)):
                    trace = current_wire_trace()
                    for round_index in range(rounds):
                        self._fanout_round(
                            per_worker, round_index, attribute, phrase, batch, trace
                        )
            except Exception:
                # Any failure mid-fan-out — a crash, a transported worker
                # error, an oversized frame — can leave unread responses
                # queued in healthy workers' sockets, desynchronising the
                # framed streams; kill the whole fleet so the next query
                # starts from a clean fork instead of consuming stale frames.
                self._shutdown_workers(kill=True)
                raise
            self.fanouts += 1
            self.rpc_requests += len(requests)
        return gather_degrees(
            batch,
            rows,
            entity_ids,
            scalar_fallback_scorer(membership, self.database, attribute, phrase, columns),
        )

    def pair_degrees_bounded(
        self,
        membership: object,
        entity_ids: Sequence[Hashable],
        attribute: str,
        phrase: str,
        threshold: float,
    ) -> "tuple[np.ndarray, np.ndarray, int, int] | None":
        """Threshold-pruned RPC scoring: workers skip rows their bounds cap.

        The bounded twin of :meth:`pair_degrees`: the same per-slice request
        plan is fanned out as ``score bounded`` frames carrying the
        coordinator's prune threshold, and each worker evaluates its own
        slice's bound envelope first — rows (or whole slices) whose degree
        upper bound is below the threshold never reach the exact kernel.
        Responses scatter values plus a per-row exactness mask; the
        returned counters cover the *requested* entities, mirroring the
        base store.  ``None`` under the base store's fallback conditions
        (no kernel, no bound envelope, absent entities), in which case the
        caller takes the full exact path.
        """
        self._check_version()
        kernel = columnar_kernel(membership, self.database)
        if kernel is None or getattr(membership, "degree_bounds", None) is None:
            return None
        columns = self.base.columns(attribute)
        if columns is None:
            return None
        rows = [columns.row_of.get(entity_id) for entity_id in entity_ids]
        if any(row is None for row in rows):
            return None
        resident = sorted(set(rows))
        self._ensure_workers(membership)
        bounds = partition_bounds(columns.num_entities, self.num_slices)
        requests = plan_slice_requests(bounds, resident)
        values = np.empty(columns.num_entities)
        exact = np.zeros(columns.num_entities, dtype=bool)
        per_worker: dict[int, list[tuple]] = {}
        for request in requests:
            per_worker.setdefault(self._owner_of[request[0]], []).append(request)
        try:
            rounds = max(len(group) for group in per_worker.values())
            with span("transport", layer="rpc", requests=len(requests), bounded=True):
                trace = current_wire_trace()
                for round_index in range(rounds):
                    for worker_index, group in per_worker.items():
                        if round_index < len(group):
                            slice_id, start, stop, slice_rows, _ = group[round_index]
                            self._workers[worker_index].send(
                                encode_score_bounded_request(
                                    slice_id,
                                    attribute,
                                    phrase,
                                    start,
                                    stop,
                                    slice_rows,
                                    threshold,
                                    trace=trace,
                                )
                            )
                    for worker_index, group in per_worker.items():
                        if round_index < len(group):
                            scatter = group[round_index][4]
                            vector, mask, _scored, _pruned = self._workers[
                                worker_index
                            ].read_score_bounded()
                            values[scatter] = vector
                            exact[scatter] = mask
        except Exception:
            # Same hygiene as pair_degrees: a mid-fan-out failure can leave
            # unread responses queued; kill the fleet so the next query
            # starts from a clean fork.
            self._shutdown_workers(kill=True)
            raise
        self.fanouts += 1
        self.rpc_requests += len(requests)
        index = np.fromiter(rows, dtype=np.intp, count=len(rows))
        requested_exact = exact[index]
        scored = int(np.count_nonzero(requested_exact))
        pruned = int(index.size - scored)
        self.entities_scored += scored
        self.entities_pruned += pruned
        return values[index], requested_exact, scored, pruned

    def degree_envelope(
        self, membership: object, attribute: str, phrase: str
    ) -> "tuple[np.ndarray, np.ndarray] | None":
        """Whole-store bound envelope from the coordinator's own base store.

        No frame ships: the workers rebuild the very columns ``self.base``
        holds, so the coordinator's envelope is theirs.  Exposing it lets
        the pruned scan order candidates by descending bound, stop early
        and narrow the alive set *before* any fan-out, as the in-process
        engine does; the workers' per-slice threshold check stays as the
        second line of defence.
        """
        self._check_version()
        return self.base.degree_envelope(membership, attribute, phrase)

    def _fanout_round(
        self,
        per_worker: dict[int, list[tuple]],
        round_index: int,
        attribute: str,
        phrase: str,
        batch: np.ndarray,
        trace: tuple[int, int] | None = None,
    ) -> None:
        """One fan-out round: write at most one request per worker, then read.

        All writes of the round complete before the first read, so every
        involved worker computes concurrently; bounding each round to one
        in-flight request per worker means a blocked peer is always
        draining its socket — the buffers can never fill in both directions
        at once, so the fan-out cannot deadlock at any frame size.
        """
        for worker_index, group in per_worker.items():
            if round_index < len(group):
                slice_id, start, stop, rows, _ = group[round_index]
                payload = encode_score_request(
                    slice_id, attribute, phrase, start, stop, rows, trace=trace
                )
                self._workers[worker_index].send(payload)
        for worker_index, group in per_worker.items():
            if round_index < len(group):
                scatter = group[round_index][4]
                batch[scatter] = self._workers[worker_index].read_score_vector()

    # ------------------------------------------------------------ statistics
    def worker_stats(self) -> list[dict]:
        """One ``stats()`` RPC result per live worker (empty when not spawned).

        Dead or unreachable workers are skipped rather than raised — the
        statistics surface must stay usable while a crash is being handled.
        """
        stats: list[dict] = []
        for client in self._workers:
            if not client.alive:
                continue
            try:
                stats.append(client.stats())
            except RpcError:
                continue
        return stats

    def worker_traces(self, trace_id: int = 0, limit: int = 0) -> list[dict]:
        """Span records collected from every live worker's trace store.

        Workers record spans whenever a score frame carries a trace field,
        so the coordinator can stitch a cross-process span tree by querying
        the fleet after a traced query.  Dead or unreachable workers are
        skipped, mirroring :meth:`worker_stats`.
        """
        spans: list[dict] = []
        for client in self._workers:
            if not client.alive:
                continue
            try:
                spans.extend(client.traces(trace_id=trace_id, limit=limit))
            except RpcError:
                continue
        return spans

    def partition_stats(self) -> list[dict[str, object]]:
        """One dict per worker: transport counters plus worker cache activity.

        Transport counters (``requests``, ``bytes_sent``, ``bytes_received``,
        ``respawns``) are tracked coordinator-side and survive fleet
        respawns.  For live, reachable workers the dict additionally merges
        the worker's own ``stats()`` RPC result (cache entries and hits,
        owned slices, pruning counters); dead workers report
        transport counters only — the statistics surface must stay usable
        while a crash is being handled.
        """
        by_index = {client.index: client for client in self._workers}
        stats: list[dict[str, object]] = []
        for index, counters in enumerate(self._worker_counters):
            entry: dict[str, object] = {"worker": index, **counters}
            client = by_index.get(index)
            entry["alive"] = bool(client is not None and client.alive)
            if client is not None and client.alive:
                try:
                    remote = client.stats()
                except RpcError:
                    remote = None
                if remote is not None:
                    entry["cache_entries"] = remote.get("cache_entries")
                    entry["cache_hits"] = remote.get("cache_hits", 0)
                    entry["owned_slices"] = remote.get("owned_slices")
                    entry["entities_scored"] = remote.get("entities_scored", 0)
                    entry["entities_pruned"] = remote.get("entities_pruned", 0)
            stats.append(entry)
        return stats

    def transport_counters(self) -> dict[str, int]:
        """Aggregate RPC transport counters (surfaced in ``run_batch`` stats)."""
        return {
            "rpc_requests": sum(c["requests"] for c in self._worker_counters),
            "rpc_bytes_sent": sum(c["bytes_sent"] for c in self._worker_counters),
            "rpc_bytes_received": sum(c["bytes_received"] for c in self._worker_counters),
            "worker_respawns": sum(c["respawns"] for c in self._worker_counters),
        }

    def stats_snapshot(self) -> dict[str, object]:
        """Coordinator counters plus the wrapped base store's snapshot."""
        return {
            "num_workers": self.num_workers,
            "num_slices": self.num_slices,
            "backend": "rpc",
            "data_version": self._version,
            "live_workers": sum(1 for client in self._workers if client.alive),
            "invalidations": self.invalidations,
            "respawns": self.respawns,
            "fanouts": self.fanouts,
            "rpc_requests": self.rpc_requests,
            "entities_scored": self.entities_scored,
            "entities_pruned": self.entities_pruned,
            "base": self.base.stats_snapshot(),
        }


# --------------------------------------------------------------------------
# The coordinator engine
# --------------------------------------------------------------------------

class CoordinatorQueryEngine(ShardedSubjectiveQueryEngine):
    """Serving front end over shard-service workers; results exactly equal
    to the unsharded engine.

    The engine plans once through the inherited plan/candidate caches, and
    every uncached membership degree is computed by the worker fleet
    through the installed :class:`RpcShardStore`.  Ranking reuses the
    sharded engine verbatim: WHERE-tree scoring over degree vectors via
    the fuzzy logic's array connectives, per-shard top-k heaps merged
    under the exact ``(-score, str(entity_id), position)`` stable order.
    Only the degree transport differs — which is precisely why the
    differential suite can pin rankings, scores and degrees bit-identical
    to :class:`~repro.serving.engine.SubjectiveQueryEngine` across worker
    counts.

    Parameters mirror the sharded engine, with ``num_workers`` (worker
    processes; default one per core) replacing the backend choice and
    ``num_shards`` naming the slice count (default ``num_workers``; must
    be at least ``num_workers``).  ``max_frame_bytes`` bounds RPC frame
    sizes in both directions; ``worker_cache_size`` bounds each worker's
    memoised slice vectors.  Call :meth:`close` (or use the engine as a
    context manager) to shut the fleet down.
    """

    engine_backends = ("rpc",)

    def __init__(
        self,
        database: SubjectiveDatabase | None = None,
        processor: SubjectiveQueryProcessor | None = None,
        num_workers: int | None = None,
        num_shards: int | None = None,
        plan_cache_size: int | None = 256,
        membership_cache_size: int | None = 200_000,
        candidate_cache_size: int | None = 64,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        worker_cache_size: int | None = DEFAULT_WORKER_CACHE_SIZE,
    ) -> None:
        if num_workers is None:
            num_workers = default_num_shards()
        if num_workers < 1:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        self.num_workers = num_workers
        self.max_frame_bytes = max_frame_bytes
        self.worker_cache_size = worker_cache_size
        super().__init__(
            database=database,
            processor=processor,
            num_shards=num_shards if num_shards is not None else num_workers,
            backend="rpc",
            max_workers=num_workers,
            plan_cache_size=plan_cache_size,
            membership_cache_size=membership_cache_size,
            candidate_cache_size=candidate_cache_size,
        )

    def _build_sharded_store(
        self, base: ColumnarSummaryStore | None, max_workers: int | None
    ) -> RpcShardStore:
        """Install an :class:`RpcShardStore` as the processor's columnar store."""
        return RpcShardStore(
            self.database,
            num_workers=max_workers,
            num_slices=self.num_shards,
            base=base,
            max_frame_bytes=self.max_frame_bytes,
            worker_cache_size=self.worker_cache_size,
        )

    def stats_snapshot(self) -> dict[str, object]:
        """Serving counters plus coordinator fan-out and live-worker stats."""
        snapshot = super().stats_snapshot()
        snapshot["num_workers"] = self.num_workers
        if self.sharded_store is not None:
            snapshot["workers"] = self.sharded_store.worker_stats()
        return snapshot
