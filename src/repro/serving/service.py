"""The shard service: the frame handler behind every cluster node.

A shard service answers the scoring frames of
:mod:`repro.serving.protocol` — ``score``, ``rank``, ``invalidate``,
``stats``, ``traces``, ``shutdown`` — over any stream socket.  The TCP
cluster node (:class:`repro.serving.cluster.ShardNodeServer`) is this
class plus the node-only opcodes; its slices come from one
:class:`HydratedSlices`: snapshots shipped over the wire (``hydrate`` /
``hydrate delta`` frames, handled by the node), or carved out of a local
persistent store the node was booted from.

Either way the arrays are bit-identical to the coordinator's own, so every
degree a service returns is exactly the in-process kernel's.
"""

from __future__ import annotations

import json
import os
import socket
from dataclasses import dataclass

import numpy as np

from repro.core.columnar import (
    AttributeColumns,
    ColumnSnapshot,
    ScoreBounds,
    SnapshotDelta,
    bounded_pair_degrees,
    gather_rows,
)
from repro.engine.expressions import Expression
from repro.errors import SnapshotError, StorageError
from repro.obs.metrics import Counter, MetricsRegistry, cell_property
from repro.obs.trace import global_trace_store, record_span
from repro.serving.cache import LRUCache
from repro.serving.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    OP_INVALIDATE,
    OP_RANK,
    OP_SCORE,
    OP_SHUTDOWN,
    OP_STATS,
    OP_TRACES,
    STATUS_OK,
    WIRE_F64,
    FrameTooLargeError,
    ProtocolError,
    RankRequest,
    Reader,
    RpcError,
    ScoreRequest,
    _U8,
    _U32,
    _U64,
    encode_error,
    encode_rank_response,
    pack_str,
    read_rank_request,
    read_score_request,
    recv_frame,
    send_frame,
)
from repro.serving.sharded import (
    RANK_LOGICS,
    PrunedPredicate,
    decode_where_tree,
    fold_scan_bound,
    rank_pruned_chunks,
)
from repro.utils.timing import now

#: Default bound on memoised degree vectors per served ``(attribute, slice)``.
DEFAULT_WORKER_CACHE_SIZE = 4096

#: Conditions whose envelope and exact degrees a node keeps per served
#: ``(attribute, slice)`` for ``rank`` frames (least recently used out).
RANK_CACHE_CONDITIONS = 32


class HydratedSlices:
    """Slices installed from shipped snapshots, or carved from a local store.

    What a cluster node scores.  It holds **no database**: column data
    arrives as :class:`~repro.core.columnar.ColumnSnapshot` objects
    (:meth:`install`, :meth:`apply_delta`), all at one ``data_version`` —
    a snapshot of a newer version (or an ``invalidate`` naming one) retires
    every held slice together, so mixed-version scoring is impossible by
    construction.  One retired generation is kept as delta bases: never
    served from, only patched by :meth:`apply_delta` — together with the
    :class:`~repro.core.columnar.ScoreBounds` built for it, which a delta
    patches on its rows instead of the next bounded score rebuilding them.

    Given ``data_dir``, it maps the persistent storage tier's
    column files and adopts the catalog's durable ``data_version``; while
    that version stays current, a slice nobody hydrated is carved out of
    the mapped file on first use.  An unreadable or corrupt directory
    downgrades to the ordinary wire-hydrated cold start.
    """

    def __init__(self, data_dir: str | None = None) -> None:
        self.data_version = 0
        self._local: "object | None" = None
        if data_dir is not None:
            from repro.storage import StoreReader

            try:
                self._local = StoreReader(data_dir).verify()
            except StorageError:
                self._local = None
            else:
                self.data_version = self._local.data_version
        self._slices: dict[tuple[str, int], ColumnSnapshot] = {}
        self._stale: dict[tuple[str, int], ColumnSnapshot] = {}
        self._stale_version = 0
        # Built from a slice's columns on its first bounded score, or patched
        # from the base's by a delta; retired and dropped together with the
        # snapshot they summarise.
        self._bounds: dict[tuple[str, int], ScoreBounds] = {}
        self._stale_bounds: dict[tuple[str, int], ScoreBounds] = {}
        self.local_hydrations = Counter(
            "local_hydrations", help="Snapshots served from the local mmap store"
        )
        self.bounds_builds = Counter(
            "bounds_builds", help="Slice bounds built from every row (ScoreBounds.of_columns)"
        )
        self.bounds_patches = Counter(
            "bounds_patches", help="Slice bounds patched on a delta's rows"
        )
        self.tensor_blocks_copied = Counter(
            "tensor_blocks_copied", help="Centroid blocks a delta copied (the rest are shared)"
        )

    @property
    def owned_slice_ids(self) -> list[int]:
        """Slice ids currently hydrated (sorted)."""
        return sorted({slice_id for _, slice_id in self._slices})

    @property
    def local_store_fresh(self) -> bool:
        """Whether the local store matches the current data version.

        A store the node has moved past (an ``invalidate`` or a newer
        hydrate) must never answer a score, exactly as a stale snapshot
        never does.
        """
        local = self._local
        return local is not None and self.data_version == local.data_version

    def retire(self, new_version: int) -> None:
        """Supersede every held slice, keeping one generation as delta bases."""
        if self._slices:
            self._stale, self._stale_bounds = self._slices, self._bounds
            self._stale_version = self.data_version
        self._slices, self._bounds = {}, {}
        self.data_version = new_version

    def install(self, snapshot: ColumnSnapshot, bounds: ScoreBounds | None = None) -> bool:
        """Hold ``snapshot``; whether its version retired the previous slices.

        ``bounds`` are the slice's bound summaries when the caller has
        them; otherwise the slice's first bounded score builds them.
        """
        retired = snapshot.data_version != self.data_version
        if retired:
            self.retire(snapshot.data_version)
        key = (snapshot.columns.attribute, snapshot.slice_id)
        self._slices[key] = snapshot
        if bounds is None:
            self._bounds.pop(key, None)
        else:
            self._bounds[key] = bounds
        return retired

    def apply_delta(self, delta: SnapshotDelta) -> tuple[ColumnSnapshot, ScoreBounds | None]:
        """The snapshot ``delta`` produces over the base still held here, and its bounds.

        The base is looked up among the live slices (the delta's base
        version may still be current here) and then among the retired
        generation; a missing base or one the delta does not fit raises
        :class:`~repro.errors.SnapshotError` — a doubtful slice is never
        built.  Bounds built for the base are patched on the delta's rows,
        which equals ``ScoreBounds.of_columns`` of the new slice bit for
        bit; ``None`` when the base had none.
        """
        key = (delta.columns.attribute, delta.slice_id)
        base: ColumnSnapshot | None = None
        bounds: ScoreBounds | None = None
        if self.data_version == delta.base_version:
            base, bounds = self._slices.get(key), self._bounds.get(key)
        if base is None and self._stale_version == delta.base_version:
            base, bounds = self._stale.get(key), self._stale_bounds.get(key)
        if base is None:
            raise SnapshotError(
                f"no base snapshot at version {delta.base_version} for slice "
                f"{delta.slice_id} of {delta.columns.attribute!r} (have version "
                f"{self.data_version}, stale {self._stale_version}); ship a full snapshot"
            )
        snapshot = delta.apply(base)
        self.tensor_blocks_copied += snapshot.columns.centroids_unit.unshared_blocks(
            base.columns.centroids_unit
        )
        if bounds is not None:
            bounds = bounds.patched(snapshot.columns, list(delta.rows))
            self.bounds_patches += 1
        return snapshot, bounds

    def _local_slice(
        self, attribute: str, slice_id: int, start: int, stop: int
    ) -> "ColumnSnapshot | None":
        """Carve one slice out of the local mmap store instead of the wire.

        ``None`` whenever the store cannot serve the request bit-exactly
        (stale version, unknown attribute, bounds outside the persisted
        rows), so the caller reports the slice as not hydrated and the
        coordinator ships it.  A served slice is a zero-copy view over the
        mapped column file, held exactly as a wire hydration would be.
        """
        if not self.local_store_fresh:
            return None
        try:
            columns = self._local.columns(attribute)
        except StorageError:
            return None
        if columns is None or not (0 <= start <= stop <= columns.num_entities):
            return None
        snapshot = ColumnSnapshot.of_slice(columns, slice_id, start, stop, self.data_version)
        self._slices[(attribute, slice_id)] = snapshot
        self.local_hydrations += 1
        return snapshot

    def slice_columns(
        self, slice_id: int, attribute: str, start: int, stop: int
    ) -> AttributeColumns:
        """The held (or locally carved) slice's columns."""
        snapshot = self._slices.get((attribute, slice_id))
        if snapshot is None:
            snapshot = self._local_slice(attribute, slice_id, start, stop)
        if snapshot is None:
            raise RpcError(
                f"slice {slice_id} of attribute {attribute!r} is not hydrated "
                f"(data_version {self.data_version})"
            )
        if snapshot.start != start or snapshot.stop != stop:
            raise RpcError(
                f"slice bounds mismatch for slice {slice_id} of {attribute!r}: "
                f"request [{start}, {stop}) vs hydrated "
                f"[{snapshot.start}, {snapshot.stop})"
            )
        return snapshot.columns

    def slice_bounds(self, slice_id: int, attribute: str, start: int, stop: int) -> ScoreBounds:
        """Bound summaries of the held slice, built on first use."""
        columns = self.slice_columns(slice_id, attribute, start, stop)
        key = (attribute, slice_id)
        bounds = self._bounds.get(key)
        if bounds is None:
            bounds = self._bounds[key] = ScoreBounds.of_columns(columns)
            self.bounds_builds += 1
        return bounds

    def invalidate(self, caller_version: int) -> None:
        """Retire every slice when the coordinator has moved to another version."""
        if caller_version != self.data_version:
            self.retire(caller_version)

    def stats(self) -> dict[str, object]:
        """Hydration state for the ``stats`` response."""
        return {
            "hydrated_slices": len(self._slices),
            "stale_slices": len(self._stale),
            "local_store": self.local_store_fresh,
            "local_hydrations": self.local_hydrations.value,
            "bounds_builds": self.bounds_builds.value,
            "bounds_patches": self.bounds_patches.value,
            "tensor_blocks_copied": self.tensor_blocks_copied.value,
        }


@dataclass
class _SliceDegrees:
    """One condition over one served slice: its envelope and the exact degrees known so far."""

    columns: AttributeColumns
    lo: np.ndarray
    hi: np.ndarray
    values: np.ndarray
    known: np.ndarray


class _CandidateIds:
    """Entity id of a rank frame's candidate ``i``, looked up only when asked.

    The pruned scan needs an id only for the rows it offers to its heap.
    """

    def __init__(self, ids: list[list], owner: np.ndarray, local: np.ndarray) -> None:
        self._ids = ids
        self._owner = owner
        self._local = local

    def __len__(self) -> int:
        return len(self._owner)

    def __getitem__(self, index: int):
        return self._ids[self._owner[index]][self._local[index]]


class ShardService:
    """Serve the scoring frames of the shard protocol from hydrated slices.

    ``index`` names the service in its spans (``node_score`` /
    ``node_rank``, attribute ``node``), its ``stats`` response (key
    ``"node"``) and its error messages.  Exact degree vectors are memoised
    in one bounded :class:`~repro.serving.cache.LRUCache` per served
    ``(attribute, slice)``, so pressure on a hot slice never evicts a
    colder slice's vectors; ``rank`` frames keep each condition's envelope
    and the exact degrees found so far in a second, smaller such cache.
    Each reads the other's exact degrees, so no kernel pass runs twice for
    one condition.  ``invalidate`` drops them all.

    :meth:`handle_frame` is the transport-free dispatch (one request payload
    in, one response payload out); :meth:`serve` wraps it in the framed
    socket loop.  Subclasses add opcodes by overriding :meth:`dispatch`.
    """

    def __init__(
        self,
        index: int,
        membership: object | None,
        source: HydratedSlices,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        cache_size: int | None = DEFAULT_WORKER_CACHE_SIZE,
    ) -> None:
        self.index = index
        self.membership = membership
        self.source = source
        self.max_frame_bytes = max_frame_bytes
        self.cache_size = cache_size
        self._caches: dict[tuple[str, int], LRUCache] = {}
        self._ranked: dict[tuple[str, int], LRUCache] = {}
        # Counters live in a per-service registry; the attributes below are
        # value-read/cell-write properties over the cells, so the ``stats``
        # response and the registry always agree.
        self.metrics = MetricsRegistry()
        self._score_requests_cell = self.metrics.counter(
            "score_requests", help="Exact score frames served"
        )
        self._rank_requests_cell = self.metrics.counter("rank_requests", help="Rank frames served")
        self._kernel_calls_cell = self.metrics.counter(
            "kernel_calls", help="Columnar kernel invocations (cache misses)"
        )
        self._entities_scored_cell = self.metrics.counter(
            "entities_scored", help="Rows scored exactly by rank frames"
        )
        self._entities_pruned_cell = self.metrics.counter(
            "entities_pruned", help="Rows answered with a bound alone"
        )
        self._invalidations_cell = self.metrics.counter(
            "invalidations", help="Invalidate frames served"
        )
        self.metrics.register("bounds_builds", source.bounds_builds)
        self.metrics.register("bounds_patches", source.bounds_patches)
        self.metrics.register("tensor_blocks_copied", source.tensor_blocks_copied)

    score_requests = cell_property("_score_requests_cell")
    rank_requests = cell_property("_rank_requests_cell")
    kernel_calls = cell_property("_kernel_calls_cell")
    entities_scored = cell_property("_entities_scored_cell")
    entities_pruned = cell_property("_entities_pruned_cell")
    invalidations = cell_property("_invalidations_cell")

    @property
    def data_version(self) -> int:
        """The data version of the slices this service can score."""
        return self.source.data_version

    @property
    def owned_slice_ids(self) -> list[int]:
        """Slice ids currently hydrated."""
        return self.source.owned_slice_ids

    def _all_caches(self) -> list[LRUCache]:
        """Every memo this service holds: score vectors and rank state alike."""
        return [*self._caches.values(), *self._ranked.values()]

    @property
    def cache_entries(self) -> int:
        """Memoised entries across every ``(attribute, slice)`` cache, rank state included."""
        return sum(len(cache) for cache in self._all_caches())

    # ------------------------------------------------------------- dispatch
    def handle_frame(self, payload: bytes) -> tuple[bytes, bool]:
        """One request payload → ``(response payload, stop serving?)``.

        Service-side failures are transported as error responses, never
        exceptions — a bad request must not take the service down.
        """
        try:
            reader = Reader(payload)
            opcode = reader.read_u8()
            if opcode == OP_SHUTDOWN:
                # A shutdown is the bare opcode: one with trailing bytes is a
                # mangled frame of some other request, not a request to stop.
                if reader.remaining:
                    raise ProtocolError(
                        f"{reader.remaining} trailing bytes after a shutdown request"
                    )
                return _U8.pack(STATUS_OK), True
            return self.dispatch(opcode, reader), False
        except Exception as error:  # noqa: BLE001 - transported to the peer
            return encode_error(f"{type(error).__name__}: {error}"), False

    def dispatch(self, opcode: int, reader: Reader) -> bytes:
        """The response to one decoded opcode (``shutdown`` never gets here)."""
        if opcode == OP_SCORE:
            return self._handle_score(read_score_request(reader))
        if opcode == OP_RANK:
            return self._handle_rank(read_rank_request(reader))
        if opcode == OP_INVALIDATE:
            return self._handle_invalidate(reader)
        if opcode == OP_STATS:
            return self._handle_stats()
        if opcode == OP_TRACES:
            return self._handle_traces(reader)
        return encode_error(f"unknown opcode {opcode}")

    # -------------------------------------------------------------- scoring
    def _cache_for(self, request: ScoreRequest) -> tuple[LRUCache, tuple]:
        """The request's ``(attribute, slice)`` cache and its key within it."""
        served = (request.attribute, request.slice_id)
        cache = self._caches.get(served)
        if cache is None:
            cache = self._caches[served] = LRUCache(self.cache_size)
        rows = tuple(request.rows) if request.rows is not None else None
        return cache, (request.phrase, request.start, request.stop, rows)

    def _score(self, request: ScoreRequest) -> np.ndarray:
        """One exact kernel pass over the requested rows of the slice."""
        kernel = getattr(self.membership, "degrees_columnar", None)
        if kernel is None:
            raise RpcError(
                f"node {self.index} has no membership function with a columnar kernel"
            )
        view = self.source.slice_columns(
            request.slice_id, request.attribute, request.start, request.stop
        )
        if request.rows is not None:
            view = gather_rows(view, request.rows)
        self.kernel_calls += 1
        return np.asarray(kernel(view, request.phrase), dtype=np.float64)

    def _record(
        self, name: str, trace: "tuple[int, int] | None", started: float, **attributes
    ) -> None:
        """One ``node_<name>`` span under the caller's wire trace (if traced)."""
        if trace is not None:
            record_span(
                f"node_{name}", trace[0], trace[1], now() - started, node=self.index, **attributes
            )

    def _handle_score(self, request: ScoreRequest) -> bytes:
        started = now()
        self.score_requests += 1
        cache, key = self._cache_for(request)
        vector = cache.get(key)
        if vector is None:
            vector = self._ranked_degrees(request)
        cached = vector is not None
        if vector is None:
            vector = self._score(request)
            cache.put(key, vector)
        self._record(
            "score",
            request.trace,
            started,
            slice_id=request.slice_id,
            attribute=request.attribute,
            cached=cached,
        )
        return _U8.pack(STATUS_OK) + _U32.pack(len(vector)) + vector.astype(WIRE_F64).tobytes()

    def _ranked_degrees(self, request: ScoreRequest) -> np.ndarray | None:
        """The requested rows' exact degrees when a rank frame already found every one."""
        memo = self._ranked.get((request.attribute, request.slice_id))
        state = None if memo is None else memo.peek((request.phrase, request.start, request.stop))
        if state is None:
            return None
        rows = slice(None) if request.rows is None else np.asarray(request.rows, dtype=np.intp)
        return state.values[rows] if state.known[rows].all() else None

    # ----------------------------------------------------------------- rank
    def drop_slice_caches(self, served: "tuple[str, int] | None" = None) -> None:
        """Forget memoised vectors and rank state of one ``(attribute, slice)``, or all."""
        if served is None:
            self._caches.clear()
            self._ranked.clear()
        else:
            self._caches.pop(served, None)
            self._ranked.pop(served, None)

    def _slice_degrees(
        self, attribute: str, slice_id: int, start: int, stop: int, phrase: str
    ) -> _SliceDegrees:
        """The condition's rank state over one held slice, built on first use.

        The envelope is the membership's ``degree_bounds`` over the slice's
        own :class:`~repro.core.columnar.ScoreBounds` (``[0, 1]`` where it
        has none).  Exact degrees start from a full-slice vector a ``score``
        frame already memoised, when there is one (shared, not copied: a
        fully known memo is never written), and answer later ``score``
        frames in turn (:meth:`_ranked_degrees`), so neither frame kind
        repeats the other's kernel pass.
        """
        served = (attribute, slice_id)
        cache = self._ranked.get(served)
        if cache is None:
            cache = self._ranked[served] = LRUCache(RANK_CACHE_CONDITIONS)
        key = (phrase, start, stop)
        state = cache.get(key)
        if state is None:
            columns = self.source.slice_columns(slice_id, attribute, start, stop)
            degree_bounds = getattr(self.membership, "degree_bounds", None)
            envelope = None
            if degree_bounds is not None:
                bounds = self.source.slice_bounds(slice_id, attribute, start, stop)
                envelope = degree_bounds(bounds, phrase)
            count = columns.num_entities
            lo, hi = envelope if envelope is not None else (np.zeros(count), np.ones(count))
            scored = self._caches.get(served)
            full = None if scored is None else scored.peek((phrase, start, stop, None))
            state = _SliceDegrees(
                columns,
                lo,
                hi,
                full if full is not None else np.zeros(count),
                np.full(count, full is not None),
            )
            cache.put(key, state)
        return state

    def _handle_rank(self, request: RankRequest) -> bytes:
        """Rank the frame's candidates over this node's slices; the exact local top-k.

        Runs :func:`~repro.serving.sharded.rank_pruned_chunks` — the loop
        the in-process engine runs — with both ends of the scan bound folded
        from the slices' own envelopes (``lo`` seeds the floor of this node's
        local top k) and a fetch that scores exactly only what can
        still win (:func:`~repro.core.columnar.bounded_pair_degrees`).  The
        heap key is the coordinator's ``(-score, str(entity_id), position)``,
        so the global top-k lies in the union of the nodes' lists.
        """
        started = now()
        self.rank_requests += 1
        kernel = getattr(self.membership, "degrees_columnar", None)
        if kernel is None:
            raise RpcError(f"node {self.index} has no membership function with a columnar kernel")
        logic_class = RANK_LOGICS.get(request.logic)
        if logic_class is None:
            raise RpcError(f"node {self.index} cannot rank under fuzzy logic {request.logic!r}")
        logic = logic_class()
        predicates = [PrunedPredicate(*fields) for fields in request.predicates]
        where = decode_where_tree(request.tree, [predicate.text for predicate in predicates])
        rows = request.rows
        starts = np.array([start for _, start, _ in request.slices], dtype=np.intp)
        owner = np.searchsorted(starts, rows, side="right") - 1
        local = rows - starts[owner]
        cuts = np.searchsorted(owner, np.arange(len(request.slices) + 1))
        states: dict[tuple[str, str], list[_SliceDegrees]] = {}

        def slice_states(attribute: str, phrase: str) -> list[_SliceDegrees]:
            """The condition's state on every shipped slice, in slice order."""
            found = states.get((attribute, phrase))
            if found is None:
                found = states[(attribute, phrase)] = [
                    self._slice_degrees(attribute, slice_id, start, stop, phrase)
                    for slice_id, start, stop in request.slices
                ]
            return found

        def pair_end(attribute: str, phrase: str, upper: bool) -> np.ndarray:
            """One envelope end of a condition at every candidate."""
            parts = slice_states(attribute, phrase)
            return np.concatenate(
                [
                    (state.hi if upper else state.lo)[local[cuts[k] : cuts[k + 1]]]
                    for k, state in enumerate(parts)
                ]
            )

        counts = {"scored": 0, "pruned": 0}

        def fetch(attribute: str, phrase: str, indices: np.ndarray, threshold: float):
            """Exact degrees of the candidates at ``indices``, bounds where they cannot win."""
            values = np.empty(indices.size)
            exact = np.empty(indices.size, dtype=bool)
            owners = owner[indices]
            for k, state in enumerate(slice_states(attribute, phrase)):
                picked = np.flatnonzero(owners == k)
                if not picked.size:
                    continue
                values[picked], exact[picked], scored, pruned = bounded_pair_degrees(
                    kernel,
                    state.columns,
                    phrase,
                    state.hi,
                    threshold,
                    local[indices[picked]],
                    state.values,
                    state.known,
                )
                counts["scored"] += scored
                counts["pruned"] += pruned
                if scored:
                    self.kernel_calls += 1
            return values, exact

        def crisp(leaf: Expression, indices: "np.ndarray | None" = None) -> np.ndarray:
            """A crisp leaf's shipped 0/1 values (at ``indices`` when given)."""
            vector = request.crisp[leaf.index]
            return vector if indices is None else vector[indices]

        first_attribute = predicates[0].pairs[0][0]
        ids = [
            self.source.slice_columns(slice_id, first_attribute, start, stop).entity_ids
            for slice_id, start, stop in request.slices
        ]
        ranking = rank_pruned_chunks(
            where,
            logic,
            predicates,
            request.limit,
            fold_scan_bound(where, logic, predicates, len(rows), pair_end, crisp),
            fetch,
            crisp,
            _CandidateIds(ids, owner, local),
            request.positions,
            chunk_size=request.chunk_size,
            chunk_growth=request.chunk_growth,
        )
        if ranking is None:
            raise RpcError(f"node {self.index} found no bound form for the ranked query")
        winners = ranking.heap.selected()
        degrees = np.array(
            [
                [vectors[predicate.text][index] for predicate in predicates]
                for _, _, vectors, index in winners
            ],
            dtype=np.float64,
        ).reshape(len(winners), len(predicates))
        pruned = ranking.pruned + counts["pruned"]
        self.entities_scored += counts["scored"]
        self.entities_pruned += pruned
        self._record(
            "rank",
            request.trace,
            started,
            slices=len(request.slices),
            candidates=len(rows),
            scanned=ranking.scanned,
            scored=counts["scored"],
        )
        return encode_rank_response(
            [int(request.positions[candidate]) for candidate, _, _, _ in winners],
            [score for _, score, _, _ in winners],
            degrees,
            ranking.scanned,
            counts["scored"],
            pruned,
        )

    # ------------------------------------------------- invalidate and stats
    def _handle_invalidate(self, reader: Reader) -> bytes:
        caller_version = reader.read_u64()
        # The version *before* the slices react: the coordinator compares
        # it with its own to detect skew.
        reported = self.source.data_version
        dropped = self.cache_entries
        self.drop_slice_caches()
        self.source.invalidate(caller_version)
        self.invalidations += 1
        return _U8.pack(STATUS_OK) + _U64.pack(reported) + _U32.pack(dropped)

    def stats(self) -> dict[str, object]:
        """The ``stats`` response as a dict: counters, caches, hydration state."""
        return {
            "node": self.index,
            "pid": os.getpid(),
            "data_version": self.source.data_version,
            "owned_slices": self.source.owned_slice_ids,
            "score_requests": self.score_requests,
            "rank_requests": self.rank_requests,
            "kernel_calls": self.kernel_calls,
            "entities_scored": self.entities_scored,
            "entities_pruned": self.entities_pruned,
            "invalidations": self.invalidations,
            "cache_hits": sum(cache.stats.hits for cache in self._all_caches()),
            "cache_entries": self.cache_entries,
            **self.source.stats(),
        }

    def _handle_stats(self) -> bytes:
        return _U8.pack(STATUS_OK) + pack_str(json.dumps(self.stats()))

    def _handle_traces(self, reader: Reader) -> bytes:
        """Serve this process's buffered spans as a JSON array.

        The request carries a trace-id filter (0 = all) and a newest-N
        limit (0 = no limit).
        """
        trace_id = reader.read_u64()
        limit = reader.read_u32()
        payload = global_trace_store().to_json(trace_id=trace_id, limit=limit)
        return _U8.pack(STATUS_OK) + pack_str(payload)

    # ---------------------------------------------------------- socket loop
    def serve(self, sock: socket.socket) -> bool:
        """Serve framed requests on ``sock``; whether a ``shutdown`` ended it.

        ``False`` when the peer closed its end (cleanly or mid-frame) or a
        frame had to be refused.
        """
        while True:
            try:
                payload = recv_frame(sock, self.max_frame_bytes)
            except FrameTooLargeError as error:
                # The stream cannot be resynchronised after refusing a
                # frame; report why, then drop the connection.
                try:
                    send_frame(sock, encode_error(str(error)), self.max_frame_bytes)
                except OSError:
                    pass
                return False
            except (RpcError, OSError):
                return False  # peer vanished mid-frame
            if payload is None:
                return False  # clean EOF: the coordinator closed its end
            response, stop = self.handle_frame(payload)
            try:
                send_frame(sock, response, self.max_frame_bytes)
            except OSError:
                return False
            if stop:
                return True
