"""Cluster transport: TCP shard nodes, snapshot hydration, a concurrent coordinator.

The multi-process engine: entity shards served by node processes behind a
TCP boundary.  Column data reaches the nodes explicitly, as shipped
snapshots, never by copy-on-write inheritance, and the coordinator overlaps
independent queries' fan-outs:

* :class:`ShardNodeServer` — a shard process that listens on **TCP** and
  speaks exactly the frame protocol of :mod:`repro.serving.protocol`.  Every
  connection opens with a versioned ``hello`` handshake carrying the
  protocol version, the node's ``data_version`` and its owned slice ids;
  version skew is a typed :class:`~repro.serving.protocol.HandshakeError`,
  never a hang.  The node holds **no database**: its column slices arrive
  over the wire as packed :class:`~repro.core.columnar.ColumnSnapshot`
  bytes (``hydrate`` frames) — deterministic, checksummed, bit-exact — so
  a node can run in any process on any machine, not just a fork of the
  coordinator;
* :class:`ClusterShardStore` — the coordinator side: implements the same
  ``pair_degrees`` protocol as every other columnar store over a registry
  of node connections.  Requests are **pipelined** through per-node
  send/receive queues with a bounded in-flight window (a select-driven
  pump keeps every node fed while responses stream back), slices are
  hydrated lazily per ``(node, attribute, slice)`` and re-hydrated after
  every ``data_version`` bump, and a lost connection or dead node surfaces
  as a typed :class:`~repro.serving.protocol.WorkerCrashedError` — the
  fleet reconnects or respawns on the next query;
* :class:`ClusterQueryEngine` — subclasses the sharded engine, so
  WHERE-tree vectorization and the exact ``(-score, str(entity_id),
  position)`` top-k merge are reused verbatim, and adds a **concurrent**
  :meth:`~ClusterQueryEngine.run_batch`: a bounded window of queries is
  planned ahead and their uncached degree fan-outs are issued to the nodes
  before earlier queries finish ranking, so node latency hides under
  coordinator CPU.  Results are bit-identical to serial execution — the
  prefetch only warms the same caches the serial path would fill, with the
  same deterministic values (every kernel is row-independent, so batching
  composition cannot change a single bit).

Exact equality is pinned by ``tests/test_serving_cluster.py``: rankings,
scores and degrees equal to the unsharded engine over TCP for node counts
{1, 2, 4} on two domains, including mid-batch ingest (snapshot
re-hydration) and node loss → :class:`WorkerCrashedError` → recovery.
"""

from __future__ import annotations

import json
import multiprocessing
import select
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Hashable, Sequence

import numpy as np

from repro.core.columnar import (
    AttributeColumns,
    ColumnarSummaryStore,
    ColumnSnapshot,
    ScoreBounds,
    SnapshotDelta,
    columnar_kernel,
    gather_degrees,
    plan_slice_requests,
    scalar_fallback_scorer,
)
from repro.core.database import SubjectiveDatabase
from repro.core.interpreter import InterpretationMethod
from repro.core.processor import SubjectiveQueryProcessor
from repro.obs.metrics import MetricsRegistry, cell_property
from repro.obs.trace import current_wire_trace, global_trace_store, span
from repro.serving.engine import BatchResult, CandidateSet
from repro.serving.plans import QueryPlan, normalize_sql
from repro.serving.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    OP_HELLO,
    OP_HYDRATE,
    OP_HYDRATE_DELTA,
    OP_SHUTDOWN,
    OP_STATS,
    PROTOCOL_VERSION,
    STATUS_ERROR,
    STATUS_OK,
    FrameTooLargeError,
    HandshakeError,
    ProtocolError,
    RankReply,
    Reader,
    RpcError,
    WorkerCrashedError,
    check_where_tree,
    encode_error,
    encode_hello,
    encode_hello_ack,
    encode_hydrate_delta_request,
    encode_hydrate_request,
    encode_invalidate_request,
    encode_rank_request,
    encode_score_request,
    encode_traces_request,
    frame_bytes,
    read_hello_ack,
    read_rank_response,
    recv_frame,
    send_frame,
)
from repro.serving.protocol import (
    _HEADER,
    _U8,
    _U32,
    _U64,
)
from repro.serving.service import DEFAULT_WORKER_CACHE_SIZE, HydratedSlices, ShardService
from repro.serving.sharded import (
    RANK_LOGICS,
    PrunedPredicate,
    PrunedRanking,
    ShardedSubjectiveQueryEngine,
    TopKThreshold,
    default_num_shards,
    encode_where_tree,
    partition_bounds,
)
from repro.utils.timing import now

#: Default bound on score/hydrate requests in flight per node connection.
DEFAULT_INFLIGHT_WINDOW = 32

#: Default bound on batch queries whose fan-outs may overlap in
#: :meth:`ClusterQueryEngine.run_batch`.
DEFAULT_MAX_INFLIGHT_QUERIES = 16

#: Default seconds allowed for connecting + handshaking with one node.
DEFAULT_CONNECT_TIMEOUT = 10.0

#: Default seconds a fan-out may wait on node responses before the
#: affected nodes are treated as crashed.
DEFAULT_IO_TIMEOUT = 60.0

#: Sentinel distinguishing "absent from the cache" from cached ``None``
#: during batch prefetch probing.
_PREFETCH_MISSING = object()


# --------------------------------------------------------------------------
# The shard node (server side)
# --------------------------------------------------------------------------

class ShardNodeServer(ShardService):
    """One TCP shard node: hydrated column slices, scored over the wire.

    The node is a :class:`~repro.serving.service.ShardService` over a
    :class:`~repro.serving.service.HydratedSlices`.  It owns **no
    database** — it is constructed with only the membership function (the
    scoring model, a deployment artifact) and receives its column data as
    packed :class:`~repro.core.columnar.ColumnSnapshot` bytes.  Snapshots
    are checksummed and bit-exact, so a hydrated node computes exactly the
    degrees the coordinator's own store would.

    On top of the shared scoring frames the node answers three opcodes of
    its own — ``hello``, ``hydrate`` and ``hydrate delta`` — and runs the
    TCP accept loop.  Every connection must open with a ``hello`` frame;
    the node refuses a protocol version other than its own with a
    transported error (a typed
    :class:`~repro.serving.protocol.HandshakeError` on the client side) and
    otherwise acknowledges with its protocol version, the ``data_version``
    of its hydrated snapshots (0 before any hydration) and the slice ids
    it currently owns.  An ``invalidate`` frame carrying a *newer* data
    version drops the hydrated slices too, so the next scores can only be
    served after re-hydration.

    ``serve_forever`` accepts connections sequentially (the coordinator
    holds one pipelined connection per node and reconnects after a loss);
    :meth:`stop` wakes and stops the accept loop.
    """

    def __init__(
        self,
        node_id: int = 0,
        membership: object | None = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        cache_size: int | None = DEFAULT_WORKER_CACHE_SIZE,
        data_dir: str | None = None,
    ) -> None:
        super().__init__(
            node_id,
            membership,
            HydratedSlices(data_dir),
            max_frame_bytes,
            cache_size,
        )
        self.data_dir = data_dir
        self._listener: socket.socket | None = None
        self._active: socket.socket | None = None
        self._stopped = False
        self._hydrations_cell = self.metrics.counter(
            "hydrations", help="Full snapshot installs over the wire"
        )
        self._delta_hydrations_cell = self.metrics.counter(
            "delta_hydrations", help="Snapshots rebuilt locally from a delta"
        )
        self.metrics.register("local_hydrations", self.source.local_hydrations)
        self._connections_cell = self.metrics.counter(
            "connections", help="Coordinator connections accepted"
        )

    hydrations = cell_property("_hydrations_cell")
    delta_hydrations = cell_property("_delta_hydrations_cell")
    connections = cell_property("_connections_cell")

    @property
    def node_id(self) -> int:
        """The id this node reports in stats and spans."""
        return self.index

    # ------------------------------------------------------------- lifecycle
    def bind(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Open the TCP listener; returns the bound ``(host, port)``.

        ``port=0`` binds an ephemeral port — read :attr:`address` after.
        """
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(8)
        self._listener = listener
        return self.address

    def adopt_listener(self, listener: socket.socket) -> None:
        """Serve on an already-bound listening socket (forked node entry)."""
        self._listener = listener

    @property
    def address(self) -> tuple[str, int]:
        """The listener's bound ``(host, port)``."""
        if self._listener is None:
            raise RpcError("node is not bound; call bind() first")
        return self._listener.getsockname()

    def stop(self) -> None:
        """Stop the accept loop and close the listener (thread-safe wake)."""
        self._stopped = True
        listener = self._listener
        if listener is not None:
            try:
                # Wake a blocked accept() portably with a throwaway connect.
                with socket.create_connection(listener.getsockname(), timeout=1):
                    pass
            except OSError:
                pass
            try:
                listener.close()
            except OSError:
                pass
        active = self._active
        if active is not None:
            try:
                active.close()
            except OSError:
                pass

    def serve_forever(self) -> None:
        """Accept and serve connections until :meth:`stop` or ``shutdown``."""
        if self._listener is None:
            raise RpcError("node is not bound; call bind() first")
        while not self._stopped:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                break
            if self._stopped:
                connection.close()
                break
            self.connections += 1
            self._active = connection
            try:
                self._serve_connection(connection)
            finally:
                self._active = None
                try:
                    connection.close()
                except OSError:
                    pass
        try:
            self._listener.close()
        except OSError:
            pass

    # ------------------------------------------------------------ connection
    def _serve_connection(self, sock: socket.socket) -> None:
        """One connection: hello handshake first, then the framed loop."""
        try:
            # A node answers pipelined requests with back-to-back small
            # frames; with Nagle on, the second response waits out the
            # coordinator's delayed ACK (~40 ms) on every fan-out round.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            first = recv_frame(sock, self.max_frame_bytes)
        except (RpcError, OSError):
            return
        if first is None:
            return
        response, accepted = self._handle_hello(first)
        try:
            send_frame(sock, response, self.max_frame_bytes)
        except OSError:
            return
        if accepted and self.serve(sock):
            self._stopped = True

    def _handle_hello(self, payload: bytes) -> tuple[bytes, bool]:
        """Validate the connection-opening hello; ``(response, accepted?)``."""
        try:
            reader = Reader(payload)
            opcode = reader.read_u8()
            if opcode != OP_HELLO:
                return (
                    encode_error(
                        f"expected a hello frame to open the connection, got opcode {opcode}"
                    ),
                    False,
                )
            return self._acknowledge(reader)
        except RpcError as error:
            return encode_error(f"malformed hello frame ({error})"), False

    def _acknowledge(self, reader: Reader) -> tuple[bytes, bool]:
        """Answer a hello whose opcode has been read: the ack, or a refusal."""
        peer_version = reader.read_u32()
        reader.read_u64()  # the coordinator's data_version (diagnostic)
        if peer_version != PROTOCOL_VERSION:
            return (
                encode_error(
                    f"protocol version mismatch: peer speaks {peer_version}, "
                    f"node speaks {PROTOCOL_VERSION}"
                ),
                False,
            )
        ack = encode_hello_ack(
            PROTOCOL_VERSION,
            self.data_version,
            self.owned_slice_ids,
            local_store=self.source.local_store_fresh,
        )
        return ack, True

    # ------------------------------------------------------------- dispatch
    def dispatch(self, opcode: int, reader: Reader) -> bytes:
        """The shared scoring frames plus the node-only opcodes."""
        if opcode == OP_HYDRATE:
            return self._handle_hydrate(reader)
        if opcode == OP_HYDRATE_DELTA:
            return self._handle_hydrate_delta(reader)
        if opcode == OP_HELLO:
            return self._acknowledge(reader)[0]
        return super().dispatch(opcode, reader)

    def _install_snapshot(
        self, snapshot: ColumnSnapshot, bounds: ScoreBounds | None = None
    ) -> bytes:
        """Install one unpacked snapshot and its bounds; the shared hydrate OK response."""
        if self.source.install(snapshot, bounds):
            self.drop_slice_caches()  # a new version outdates every memoised vector
        else:
            # Re-hydrating one attribute's slice must not evict another
            # attribute's still-valid vectors.
            self.drop_slice_caches((snapshot.columns.attribute, snapshot.slice_id))
        self.hydrations += 1
        return (
            _U8.pack(STATUS_OK)
            + _U64.pack(self.data_version)
            + _U32.pack(snapshot.columns.num_entities)
        )

    def _handle_hydrate(self, reader: Reader) -> bytes:
        return self._install_snapshot(ColumnSnapshot.unpack(reader.read_rest()))

    def _handle_hydrate_delta(self, reader: Reader) -> bytes:
        """Re-hydrate one slice from a delta over a base the node still holds.

        A missing or version-skewed base, a corrupt frame, or a delta whose
        expectations do not match the base all transport a typed error back
        — the coordinator responds by re-shipping a full snapshot; the node
        never installs a doubtful slice.  The base's bound summaries, when
        built, are patched on the delta's rows and installed with the slice.
        """
        delta = SnapshotDelta.unpack(reader.read_rest())
        response = self._install_snapshot(*self.source.apply_delta(delta))
        self.delta_hydrations += 1
        return response

    def stats(self) -> dict[str, object]:
        """The shared ``stats`` dict plus hydration and connection counters."""
        return {
            **super().stats(),
            "hydrations": self.hydrations,
            "delta_hydrations": self.delta_hydrations,
            "connections": self.connections,
        }


def _node_main(
    node_id: int,
    listener: socket.socket,
    close_in_child: list[socket.socket],
    membership: object,
    max_frame_bytes: int,
    cache_size: int | None,
    data_dir: str | None = None,
) -> None:
    """Forked node entry point: close inherited sockets, then serve TCP."""
    for other in close_in_child:
        try:
            other.close()
        except OSError:
            pass
    # The fork copies the coordinator's span buffer; without this clear,
    # node_traces() would re-serve the parent's spans as duplicates.
    global_trace_store().clear()
    server = ShardNodeServer(
        node_id=node_id,
        membership=membership,
        max_frame_bytes=max_frame_bytes,
        cache_size=cache_size,
        data_dir=data_dir,
    )
    server.adopt_listener(listener)
    server.serve_forever()


# --------------------------------------------------------------------------
# Replies and per-node channels (coordinator side)
# --------------------------------------------------------------------------

class NodeReply:
    """One in-flight request's eventual response (single-threaded future).

    Resolved by the I/O pump when the node's response frame arrives, or
    failed with a transport error when the connection is lost.  ``decode``
    turns the OK-status remainder of the response into the reply value.
    """

    __slots__ = ("decode", "done", "value", "error")

    def __init__(self, decode: Callable[[Reader], object]) -> None:
        self.decode = decode
        self.done = False
        self.value: object = None
        self.error: Exception | None = None

    def resolve(self, payload: bytes, node_index: int) -> None:
        """Decode one response frame into this reply (errors captured)."""
        try:
            reader = Reader(payload)
            if reader.read_u8() == STATUS_ERROR:
                raise RpcError(f"cluster node {node_index}: {reader.read_str()}")
            self.value = self.decode(reader)
        except Exception as error:  # noqa: BLE001 - surfaced at collect time
            self.error = error
        self.done = True

    def fail(self, error: Exception) -> None:
        """Mark the reply failed (connection lost before the response)."""
        if not self.done:
            self.error = error
            self.done = True


def _decode_score(reader: Reader) -> np.ndarray:
    """A ``score`` response: the slice's degree vector."""
    return reader.read_f64_array(reader.read_u32())


def _decode_rank(reader: Reader) -> RankReply:
    """A ``rank`` response: the node's exact local top-k and its counters."""
    return read_rank_response(reader)


def _score_frame(
    slice_id: int,
    attribute: str,
    phrase: str,
    start: int,
    stop: int,
    rows: "list[int] | None",
    _slice_ids: list[int],
) -> bytes:
    """One slice's ``score`` frame, traced under the current span (if any)."""
    return encode_score_request(
        slice_id, attribute, phrase, start, stop, rows, trace=current_wire_trace()
    )


def _decode_versioned(reader: Reader) -> tuple[int, int]:
    """A ``hydrate``/``invalidate`` response: (data_version, count)."""
    return reader.read_u64(), reader.read_u32()


def _decode_stats(reader: Reader) -> dict:
    """A ``stats`` response: the node's JSON counters."""
    return json.loads(reader.read_str())


def _decode_traces(reader: Reader) -> list[dict]:
    """A ``traces`` response: the node's recorded spans as JSON."""
    return json.loads(reader.read_str())


def _decode_ack(reader: Reader) -> None:
    """An empty OK response (``shutdown``)."""
    return None


class ClusterNodeClient:
    """The coordinator's pipelined connection to one shard node.

    Requests enter a send queue; a bounded window of them is in flight at
    any moment (framed into the output buffer and counted against
    ``window``), and responses are matched to their
    :class:`NodeReply` futures strictly in order — the node serves one
    connection sequentially, so FIFO matching is exact.  All socket I/O is
    non-blocking; :class:`ClusterShardStore`'s select pump drives every
    channel together, which is what lets all nodes compute concurrently
    while the coordinator does its own work.
    """

    def __init__(
        self,
        index: int,
        address: tuple[str, int],
        max_frame_bytes: int,
        window: int,
        counters: dict[str, int],
        owned_slice_ids: Sequence[int] = (),
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    ) -> None:
        self.index = index
        self.address = address
        self.max_frame_bytes = max_frame_bytes
        self.window = max(1, window)
        self.counters = counters
        self.owned_slice_ids = list(owned_slice_ids)
        self.connect_timeout = connect_timeout
        self.sock: socket.socket | None = None
        self.dead = False
        self.remote_data_version = 0
        self.remote_owned: list[int] = []
        self.remote_local_store = False
        self.queue: deque[tuple[bytes, NodeReply]] = deque()
        self.inflight: deque[NodeReply] = deque()
        self._out = bytearray()
        self._in = bytearray()

    # ------------------------------------------------------------ connection
    def connect(self, data_version: int) -> None:
        """Connect and run the versioned hello handshake (blocking).

        Raises :class:`~repro.serving.protocol.HandshakeError` on protocol
        skew or a malformed acknowledgement, and
        :class:`~repro.serving.protocol.WorkerCrashedError` when the node
        cannot be reached at all.
        """
        try:
            sock = socket.create_connection(self.address, timeout=self.connect_timeout)
        except OSError as error:
            self.dead = True
            raise WorkerCrashedError(
                f"cluster node {self.index} at {self.address} is unreachable "
                f"({error}); the coordinator will reconnect or respawn it on "
                "the next query"
            ) from error
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            send_frame(sock, encode_hello(PROTOCOL_VERSION, data_version), self.max_frame_bytes)
            payload = recv_frame(sock, self.max_frame_bytes)
            if payload is None:
                raise HandshakeError(
                    f"cluster node {self.index} closed the connection during the handshake"
                )
            ack = read_hello_ack(payload)
            _, self.remote_data_version, self.remote_owned, self.remote_local_store = ack
        except HandshakeError:
            sock.close()
            self.dead = True
            raise
        except (RpcError, OSError) as error:
            sock.close()
            self.dead = True
            raise HandshakeError(
                f"handshake with cluster node {self.index} failed ({error})"
            ) from error
        sock.setblocking(False)
        self.sock = sock
        self.dead = False

    def fileno(self) -> int:
        """The connected socket's file descriptor (for ``select``)."""
        return self.sock.fileno()

    @property
    def has_work(self) -> bool:
        """Whether any request is queued, buffered, or awaiting a response."""
        return bool(self.queue or self._out or self.inflight)

    @property
    def wants_write(self) -> bool:
        """Whether the pump should register this channel for writability."""
        return bool(self._out) or bool(self.queue and len(self.inflight) < self.window)

    # --------------------------------------------------------------- queueing
    def enqueue(self, payload: bytes, decode: Callable[[Reader], object]) -> NodeReply:
        """Queue one request frame; returns its :class:`NodeReply` future."""
        if self.dead or self.sock is None:
            raise WorkerCrashedError(
                f"cluster node {self.index} at {self.address} has no live "
                "connection; the coordinator will reconnect or respawn it on "
                "the next query"
            )
        reply = NodeReply(decode)
        self.queue.append((frame_bytes(payload, self.max_frame_bytes), reply))
        self.counters["requests"] += 1
        return reply

    # ------------------------------------------------------------------ pump
    def pump_writes(self) -> None:
        """Frame queued requests up to the window and flush what the socket takes."""
        while self.queue and len(self.inflight) < self.window:
            frame, reply = self.queue.popleft()
            self._out += frame
            self.inflight.append(reply)
        if not self._out:
            return
        try:
            sent = self.sock.send(self._out)
        except (BlockingIOError, InterruptedError):
            return
        if sent:
            self.counters["bytes_sent"] += sent
            del self._out[:sent]

    def pump_reads(self) -> None:
        """Read available bytes and resolve completed response frames in order."""
        try:
            data = self.sock.recv(1 << 16)
        except (BlockingIOError, InterruptedError):
            return
        if not data:
            raise RpcError("node closed its connection")
        self.counters["bytes_received"] += len(data)
        self._in += data
        while True:
            if len(self._in) < _HEADER.size:
                return
            (length,) = _HEADER.unpack(bytes(self._in[: _HEADER.size]))
            if length > self.max_frame_bytes:
                raise FrameTooLargeError(
                    f"node {self.index} announced a {length}-byte frame "
                    f"(limit {self.max_frame_bytes} bytes)"
                )
            if len(self._in) < _HEADER.size + length:
                return
            payload = bytes(self._in[_HEADER.size : _HEADER.size + length])
            del self._in[: _HEADER.size + length]
            if not self.inflight:
                raise RpcError(f"node {self.index} sent a response with no request in flight")
            self.inflight.popleft().resolve(payload, self.index)

    # --------------------------------------------------------------- failure
    def fail_all(self, error: Exception) -> None:
        """Fail every outstanding reply and close the connection."""
        for reply in self.inflight:
            reply.fail(error)
        for _, reply in self.queue:
            reply.fail(error)
        self.inflight.clear()
        self.queue.clear()
        self._out.clear()
        self._in.clear()
        self.dead = True
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
            self.sock = None

    def close(self) -> None:
        """Close the connection without failing replies (clean teardown)."""
        self.dead = True
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
            self.sock = None


# --------------------------------------------------------------------------
# The cluster store (coordinator side)
# --------------------------------------------------------------------------

@dataclass
class _SliceWork:
    """One request's work on a set of slices, re-encodable for any subset of them.

    ``columns`` are the attributes the work reads — hydrated ahead of it on
    every node it is sent to — and ``bounds`` their shared partition
    bounds.  ``encode(slice_ids)`` builds the request frame covering those
    slices and ``decode`` reads its response; ``scatter`` places a score
    call's vector into the store-wide batch.
    """

    columns: dict[str, AttributeColumns]
    bounds: list[int]
    encode: Callable[[list[int]], bytes]
    decode: Callable[[Reader], object]
    scatter: object = None


@dataclass
class _PendingCall:
    """One enqueued node call of a fan-out, with everything needed to retry it.

    ``kind`` is ``"hydrate"`` or ``"work"``.  A work call (a ``score`` or
    ``rank`` frame) carries its :class:`_SliceWork` and the slices it
    covers, so that when the serving node dies mid-request
    :meth:`ClusterShardStore._collect_calls` can re-issue those slices on
    untried replicas; ``tried`` accumulates the nodes already attempted so
    a failover can never loop.
    """

    kind: str
    reply: NodeReply
    node: int
    hydration_key: "tuple[int, str, int] | None" = None
    work: _SliceWork | None = None
    slices: list[int] = field(default_factory=list)
    tried: set[int] = field(default_factory=set)


@dataclass
class DegreeRequest:
    """An issued-but-uncollected degree fan-out (one ``pair_degrees`` worth).

    Produced by :meth:`ClusterShardStore.request_degrees`, consumed by
    :meth:`ClusterShardStore.collect_degrees`.  Holding several of these at
    once is what lets the concurrent coordinator overlap independent
    queries' fan-outs across the nodes.
    """

    data_version: int
    entity_ids: list[Hashable]
    rows: list[int | None]
    membership: object
    attribute: str
    phrase: str
    columns: AttributeColumns
    batch: np.ndarray | None
    pending: list[_PendingCall] = field(default_factory=list)


class ClusterShardStore:
    """Entity-sliced degree scoring over TCP shard nodes.

    Implements the ``pair_degrees`` protocol of
    :class:`~repro.core.columnar.ColumnarSummaryStore`, so the query
    processor routes through it unchanged.  Kernel work ships to the nodes
    as ``(slice_id, attribute, start, stop[, rows])`` score requests over
    pipelined per-node queues; column data ships exactly once per
    ``(node, attribute, slice, data_version)`` as packed
    :class:`~repro.core.columnar.ColumnSnapshot` bytes, enqueued ahead of
    the first score request that needs the slice (the per-node FIFO
    guarantees hydration lands first).

    Two fleet shapes are supported: **managed** (default) — the store forks
    local node processes listening on ephemeral localhost ports and owns
    their full lifecycle, respawning dead nodes on the next query — and
    **external** (``addresses=[(host, port), ...]``) — the store connects
    to already-running :class:`ShardNodeServer` instances and can reconnect
    after a connection loss but never spawns or shuts them down.  In both
    shapes a node lost mid-request surfaces as
    :class:`~repro.serving.protocol.WorkerCrashedError`.

    A ``data_version`` bump lets the base store catch up (patched rows
    where the change journal allows, a full drop otherwise), drops the
    hydration records, pushes ``invalidate`` to every reachable node
    (dropping node caches *and* hydrated slices), and the next fan-out
    re-hydrates lazily — the node processes stay up across versions.

    Two cold-path controls (both default-off and lossless):

    * ``replication`` — hydrate every slice on R nodes (the owner plus its
      R−1 ring successors) and route each score to the least-loaded live
      replica.  A node killed mid-fan-out then degrades to a warm replica:
      the in-flight calls fail over and the caller never sees a
      :class:`~repro.serving.protocol.WorkerCrashedError`; the dead node
      rejoins (reconnect or respawn) on the next fan-out.  With the
      default ``replication=1`` the single-owner crash semantics are
      exactly the pre-replication ones.
    Independent of those flags, re-hydration after an ingest ships **delta
    frames** wherever it can: the coordinator keeps the previous packed
    generation per slice, and a node still holding that base receives only
    the changed rows (:class:`~repro.core.columnar.SnapshotDelta`) instead
    of the whole slice, and patches the slice's bound summaries on the
    delta's rows instead of rebuilding them.  A node that cannot apply a
    delta answers with a typed error and a full snapshot is shipped — never
    a stale slice.
    """

    def __init__(
        self,
        database: SubjectiveDatabase,
        num_nodes: int | None = None,
        num_slices: int | None = None,
        base: ColumnarSummaryStore | None = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        node_cache_size: int | None = DEFAULT_WORKER_CACHE_SIZE,
        addresses: Sequence[tuple[str, int]] | None = None,
        window: int = DEFAULT_INFLIGHT_WINDOW,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        io_timeout: float = DEFAULT_IO_TIMEOUT,
        replication: int = 1,
        data_dir: str | None = None,
    ) -> None:
        self._managed = addresses is None
        if self._managed:
            if "fork" not in multiprocessing.get_all_start_methods():
                raise RpcError(
                    "managed cluster nodes require the 'fork' start method; "
                    "start ShardNodeServer instances yourself and pass addresses=..."
                )
            if num_nodes is None:
                num_nodes = default_num_shards()
        else:
            if num_nodes is not None and num_nodes != len(addresses):
                raise ValueError(
                    f"num_nodes ({num_nodes}) contradicts the {len(addresses)} addresses given"
                )
            num_nodes = len(addresses)
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be positive, got {num_nodes}")
        if num_slices is None:
            num_slices = num_nodes
        if num_slices < num_nodes:
            raise ValueError(f"num_slices ({num_slices}) must be >= num_nodes ({num_nodes})")
        if replication < 1:
            raise ValueError(f"replication must be positive, got {replication}")
        self.database = database
        self.num_nodes = num_nodes
        self.num_slices = num_slices
        self.base = base if base is not None else database.columnar_store()
        self.max_frame_bytes = max_frame_bytes
        self.node_cache_size = node_cache_size
        self.window = window
        self.connect_timeout = connect_timeout
        self.io_timeout = io_timeout
        # R is clamped to the fleet size: replicating a slice onto the same
        # node twice buys nothing.
        self.replication = min(replication, num_nodes)
        # Directory of the persistent storage tier the managed nodes boot
        # from (None → nodes cold-start and hydrate over the wire).
        self.data_dir = data_dir
        # Node n owns the contiguous slice-id range [bounds[n], bounds[n+1]).
        self._ownership = partition_bounds(num_slices, num_nodes)
        self._owner_of = [
            node
            for node, (start, stop) in enumerate(zip(self._ownership, self._ownership[1:]))
            for _ in range(stop - start)
        ]
        self._channels: list[ClusterNodeClient | None] = [None] * num_nodes
        self._processes: list[multiprocessing.process.BaseProcess | None] = [None] * num_nodes
        self._addresses: list[tuple[str, int] | None] = (
            [None] * num_nodes if self._managed else [tuple(a) for a in addresses]
        )
        self._hydrated: set[tuple[int, str, int]] = set()
        # Delta-hydration bookkeeping: the current packed generation per
        # (attribute, slice), the previous generation (the delta base), the
        # data version each (node, attribute, slice) last received, and a
        # one-entry delta cache per slice so R replicas (and re-issues)
        # never pack the same delta twice.
        self._slice_bases: dict[tuple[str, int], ColumnSnapshot] = {}
        # The attribute generation each current snapshot was cut from: cut
        # again from the same one, a slice changed in no row.
        self._slice_sources: dict[tuple[str, int], AttributeColumns] = {}
        self._slice_prev: dict[tuple[str, int], ColumnSnapshot] = {}
        self._node_bases: dict[tuple[int, str, int], int] = {}
        self._slice_deltas: dict[tuple[str, int], tuple[int, int, bytes | None]] = {}
        self._membership: object | None = None
        self._version = database.data_version
        # The version before the latest bump: the one generation a node
        # still holds retired slices of (its delta bases).
        self._retired_version = self._version
        # Whether this version step's deltas are still to ship
        # (``_ship_pending_deltas``).
        self._deltas_due = False
        self.metrics = MetricsRegistry()
        self._invalidations_cell = self.metrics.counter(
            "invalidations", help="Data-version bumps pushed to the node fleet"
        )
        self._fanouts_cell = self.metrics.counter(
            "fanouts", help="Sharded kernel passes (one per predicate computation)"
        )
        self._rpc_requests_cell = self.metrics.counter(
            "rpc_requests", help="Individual score requests shipped to nodes"
        )
        self._hydrations_cell = self.metrics.counter(
            "hydrations", help="Snapshots shipped (full or delta)"
        )
        self._delta_hydrations_cell = self.metrics.counter(
            "delta_hydrations", help="Hydrations shipped as delta frames"
        )
        self._local_hydrations_cell = self.metrics.counter(
            "local_hydrations", help="Hydrate frames skipped: node store was warm"
        )
        self._failovers_cell = self.metrics.counter(
            "failovers", help="Crashed score calls re-issued on a replica"
        )
        self._entities_scored_cell = self.metrics.counter(
            "entities_scored", help="Rows the nodes' exact kernels evaluated"
        )
        self._entities_pruned_cell = self.metrics.counter(
            "entities_pruned", help="Rows settled by bounds alone"
        )
        self._node_counters = [
            {"requests": 0, "bytes_sent": 0, "bytes_received": 0, "reconnects": 0, "respawns": 0}
            for _ in range(num_nodes)
        ]
        # Nodes connected at least once: only their later spawns and
        # connects are respawns and reconnects, never the fleet's start.
        self._connected_nodes: set[int] = set()

    invalidations = cell_property("_invalidations_cell")
    fanouts = cell_property("_fanouts_cell")
    rpc_requests = cell_property("_rpc_requests_cell")
    hydrations = cell_property("_hydrations_cell")
    delta_hydrations = cell_property("_delta_hydrations_cell")
    local_hydrations = cell_property("_local_hydrations_cell")
    failovers = cell_property("_failovers_cell")
    entities_scored = cell_property("_entities_scored_cell")
    entities_pruned = cell_property("_entities_pruned_cell")

    # ------------------------------------------------------------ lifecycle
    @property
    def data_version(self) -> int:
        """The database version the current hydration state reflects."""
        return self._version

    @property
    def managed(self) -> bool:
        """Whether this store spawns and owns its node processes."""
        return self._managed

    @property
    def channels(self) -> list[ClusterNodeClient | None]:
        """The per-node connection channels (``None`` before first use)."""
        return self._channels

    @property
    def processes(self) -> list[multiprocessing.process.BaseProcess | None]:
        """Managed node processes (all ``None`` for external fleets)."""
        return self._processes

    def _check_version(self) -> None:
        if self._version != self.database.data_version:
            self.base.sync()  # patches the replaced rows where it can
            self._retire_hydration()

    def invalidate(self) -> None:
        """Drop the base columns outright, then retire the fleet's hydration."""
        self.base.invalidate()
        self._retire_hydration()

    def _retire_hydration(self) -> None:
        """Honor a ``data_version`` bump on the fleet: push node invalidation.

        Hydration records drop immediately; every reachable node receives
        an ``invalidate`` frame carrying the new version, which makes it
        drop its degree caches *and* its hydrated slices (they are stale by
        definition).  Fresh snapshots — deltas against the generation each
        node last received, wherever it still holds one — ship lazily with
        the next fan-out: re-hydration, not re-fork.  A node that cannot be
        reached is dropped and reconnected-or-respawned on the next query;
        this never raises.
        """
        self._hydrated.clear()
        self._retired_version = self._version
        self._version = self.database.data_version
        self._deltas_due = True
        self.invalidations += 1
        replies: list[NodeReply] = []
        for channel in self._channels:
            if channel is None or channel.dead or channel.sock is None:
                continue
            try:
                replies.append(
                    channel.enqueue(encode_invalidate_request(self._version), _decode_versioned)
                )
            except RpcError:
                continue
        if replies:
            self._pump_until(replies, raise_errors=False)

    def invalidate_node_caches(self) -> int:
        """Drop every live node's degree caches; returns entries dropped.

        Cache recycling *within* a snapshot's lifetime: the data did not
        change, so hydrated slices stay in place (each node sees its own
        current version in the frame and keeps its columns).  A node
        reporting a different snapshot version has skewed — its hydration
        records are dropped so the next fan-out re-ships fresh snapshots.
        """
        replies: list[tuple[int, NodeReply]] = []
        for index, channel in enumerate(self._channels):
            if channel is None or channel.dead or channel.sock is None:
                continue
            frame = encode_invalidate_request(self._version)
            replies.append((index, channel.enqueue(frame, _decode_versioned)))
        self._pump_until([reply for _, reply in replies])
        dropped_total = 0
        for index, reply in replies:
            if reply.error is not None:
                raise reply.error
            version, dropped = reply.value
            dropped_total += dropped
            if version != self._version:
                self._drop_hydration(index)
        return dropped_total

    def close(self) -> None:
        """Shut the fleet down (idempotent).

        Managed node processes receive a graceful ``shutdown`` frame and
        are reaped (terminated if unresponsive); external nodes only have
        their connections closed — their lifecycle belongs to whoever
        started them.
        """
        for index, channel in enumerate(self._channels):
            if channel is None:
                continue
            if self._managed and not channel.dead and channel.sock is not None:
                try:
                    reply = channel.enqueue(_U8.pack(OP_SHUTDOWN), _decode_ack)
                    self._pump_until([reply], raise_errors=False, timeout=5.0)
                except RpcError:
                    pass
            channel.close()
            self._channels[index] = None
        if self._managed:
            for index, process in enumerate(self._processes):
                if process is None:
                    continue
                process.join(timeout=5)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5)
                if process.is_alive():  # pragma: no cover - last resort
                    process.kill()
                    process.join(timeout=5)
                self._processes[index] = None
        self._hydrated.clear()
        self._node_bases.clear()

    # ----------------------------------------------------------------- fleet
    def _spawn_node(self, index: int, membership: object) -> None:
        """Fork one local node process listening on an ephemeral TCP port.

        The listener is bound in the coordinator (so the address is known
        without a rendezvous) and inherited by the fork; the child closes
        the coordinator's live connections to its siblings so a sibling
        crash always surfaces as EOF.
        """
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        address = listener.getsockname()
        close_in_child = [
            channel.sock
            for channel in self._channels
            if channel is not None and channel.sock is not None
        ]
        context = multiprocessing.get_context("fork")
        process = context.Process(
            target=_node_main,
            args=(
                index,
                listener,
                close_in_child,
                membership,
                self.max_frame_bytes,
                self.node_cache_size,
                self.data_dir,
            ),
            daemon=True,
            name=f"repro-cluster-node-{index}",
        )
        process.start()
        listener.close()
        self._processes[index] = process
        self._addresses[index] = address

    def _ensure_nodes(self, membership: object) -> None:
        """Connect (and for managed fleets, spawn) every node that needs it.

        Reconnect-or-respawn: a channel lost since the last fan-out is
        reconnected to the same address; a managed node whose process died
        is forked afresh first.  A reconnected node keeps nothing the
        coordinator relies on — its hydration records are dropped so the
        next fan-out re-ships snapshots (hydration is idempotent).
        Switching membership functions tears a managed fleet down (the
        model is baked into the node processes at fork time).

        Every scoring entry point calls this *before* it touches
        ``self.base``: a node forked after the coordinator built an
        attribute's E×M×D column tensor and bound summaries would inherit
        (and be charged for) pages it never reads — nodes hold only the
        slices hydrated over the wire.
        """
        if self._membership is not None and self._membership is not membership:
            if self._managed:
                self.close()
            else:
                for index, channel in enumerate(self._channels):
                    if channel is not None:
                        channel.close()
                        self._channels[index] = None
                        self._drop_hydration(index)
        self._membership = membership
        for index in range(self.num_nodes):
            channel = self._channels[index]
            if channel is not None and not channel.dead and channel.sock is not None:
                continue
            recovering = index in self._connected_nodes
            if self._managed:
                process = self._processes[index]
                if process is None or not process.is_alive():
                    self._spawn_node(index, membership)
                    if recovering:
                        self._node_counters[index]["respawns"] += 1
            channel = ClusterNodeClient(
                index,
                self._addresses[index],
                self.max_frame_bytes,
                self.window,
                self._node_counters[index],
                owned_slice_ids=range(self._ownership[index], self._ownership[index + 1]),
                connect_timeout=self.connect_timeout,
            )
            self._connect_with_retry(channel)
            if recovering:
                self._node_counters[index]["reconnects"] += 1
            self._connected_nodes.add(index)
            self._channels[index] = channel
            self._drop_hydration(index)

    def _connect_with_retry(self, channel: ClusterNodeClient, attempts: int = 40) -> None:
        """Connect to one node, retrying briefly (a freshly forked node may
        not have reached ``accept`` yet)."""
        deadline = time.monotonic() + self.connect_timeout
        last: Exception | None = None
        for _ in range(attempts):
            try:
                channel.connect(self._version)
                return
            except HandshakeError:
                raise
            except WorkerCrashedError as error:
                last = error
                if time.monotonic() >= deadline:
                    break
                time.sleep(0.05)
        raise last if last is not None else WorkerCrashedError("node connect failed")

    def _drop_hydration(self, index: int) -> None:
        """Forget what one node holds (its state is unknown after a loss).

        Dropping the node's base-version records too means the next
        hydration ships full snapshots — a reconnected node *may* still
        hold its slices, but delta shipping must never bet on it.
        """
        self._hydrated = {key for key in self._hydrated if key[0] != index}
        self._node_bases = {
            key: version for key, version in self._node_bases.items() if key[0] != index
        }

    def _drop_channel(self, channel: ClusterNodeClient, error: Exception) -> None:
        """A connection failed: fail its replies, mark it for reconnection."""
        wrapped = WorkerCrashedError(
            f"cluster node {channel.index} at {channel.address} failed "
            f"mid-request ({error}); the coordinator will reconnect or "
            "respawn it on the next query"
        )
        wrapped.__cause__ = error
        channel.fail_all(wrapped)
        self._drop_hydration(channel.index)

    # ------------------------------------------------- hydration and routing
    def _replicas_of(self, slice_id: int) -> list[int]:
        """The nodes hosting one slice: its owner plus R−1 ring successors."""
        primary = self._owner_of[slice_id]
        return [(primary + offset) % self.num_nodes for offset in range(self.replication)]

    def _hydration_payload(
        self,
        node: int,
        columns: AttributeColumns,
        attribute: str,
        slice_id: int,
        start: int,
        stop: int,
        delta_only: bool = False,
    ) -> bytes | None:
        """The hydrate frame for one ``(node, slice)``: delta when possible.

        The coordinator keeps the current packed generation per slice and
        one previous generation.  When the target node's last-shipped
        version matches the previous generation, the frame is a
        :class:`~repro.core.columnar.SnapshotDelta` carrying only the
        changed rows (packed once per slice per version step, shared by
        every replica); in every other case — first hydration, a slice the
        node last received more than one version step ago (nodes retire a
        single generation), a reconnect that wiped its records, or a slice
        where too much changed — it is a full snapshot.  A slice cut again
        from the attribute generation its previous snapshot came from (the
        ingest did not patch it) ships :meth:`SnapshotDelta.unchanged`
        without comparing a row.  ``delta_only`` returns ``None`` where the
        frame would be a full snapshot.
        """
        key = (attribute, slice_id)
        current = self._slice_bases.get(key)
        if current is None or current.data_version != self._version:
            if current is not None:
                self._slice_prev[key] = current
                if self._slice_sources[key] is columns:
                    # The ingest left this attribute's generation alone: the
                    # delta is empty, no row needs comparing.
                    blob = SnapshotDelta.unchanged(current, self._version).pack()
                    self._slice_deltas[key] = (current.data_version, self._version, blob)
            current = ColumnSnapshot.of_slice(columns, slice_id, start, stop, self._version)
            self._slice_bases[key] = current
            self._slice_sources[key] = columns
        prev = self._slice_prev.get(key)
        node_version = self._node_bases.get((node, attribute, slice_id))
        if (
            prev is not None
            and node_version == prev.data_version == self._retired_version
            and prev.data_version != self._version
        ):
            cached = self._slice_deltas.get(key)
            if cached is None or cached[0] != prev.data_version or cached[1] != self._version:
                delta = SnapshotDelta.between(prev, current)
                blob = delta.pack() if delta is not None else None
                cached = (prev.data_version, self._version, blob)
                self._slice_deltas[key] = cached
            if cached[2] is not None:
                self.delta_hydrations += 1
                return encode_hydrate_delta_request(cached[2])
        if delta_only:
            return None
        return encode_hydrate_request(current.pack())

    def _enqueue_hydration(
        self,
        node: int,
        columns: AttributeColumns,
        attribute: str,
        slice_id: int,
        start: int,
        stop: int,
        delta_only: bool = False,
    ) -> _PendingCall | None:
        """Queue one slice's hydrate frame on ``node`` and record it as shipped.

        ``None``, and nothing queued, when ``delta_only`` and no delta fits.
        """
        with span("hydrate", node=node, attribute=attribute, slice_id=slice_id):
            payload = self._hydration_payload(
                node, columns, attribute, slice_id, start, stop, delta_only
            )
        if payload is None:
            return None
        try:
            reply = self._channels[node].enqueue(payload, _decode_versioned)
        except FrameTooLargeError as error:
            raise FrameTooLargeError(
                f"hydrate frame for attribute {attribute!r} slice {slice_id} "
                f"({stop - start} entities) does not fit: {error}; "
                "raise `max_frame_bytes` or `num_shards`"
            ) from error
        hydration_key = (node, attribute, slice_id)
        self._hydrated.add(hydration_key)
        self._node_bases[hydration_key] = self._version
        self.hydrations += 1
        return _PendingCall(kind="hydrate", reply=reply, node=node, hydration_key=hydration_key)

    def _channel_load(self, node: int) -> int:
        """One node's outstanding work (queued + in-flight requests)."""
        channel = self._channels[node]
        return len(channel.inflight) + len(channel.queue)

    def _hydrate_ahead(
        self,
        pending: list[_PendingCall],
        columns_of: dict[str, AttributeColumns],
        bounds: list[int],
        node: int,
        slice_ids: list[int],
    ) -> None:
        """Queue a hydrate frame for every ``(attribute, slice)`` ``node`` lacks.

        The per-node FIFO lands them ahead of any frame queued after them.
        """
        channel = self._channels[node]
        for attribute, columns in columns_of.items():
            for slice_id in slice_ids:
                hydration_key = (node, attribute, slice_id)
                if hydration_key in self._hydrated:
                    continue
                if channel.remote_local_store and channel.remote_data_version == self._version:
                    # The node advertised a warm persistent store at exactly
                    # the coordinator's version: it will carve this slice out
                    # of its own mmap on first use, so no hydrate frame ships.
                    self._hydrated.add(hydration_key)
                    self._node_bases[hydration_key] = self._version
                    self.local_hydrations += 1
                    continue
                start, stop = bounds[slice_id], bounds[slice_id + 1]
                pending.append(
                    self._enqueue_hydration(node, columns, attribute, slice_id, start, stop)
                )

    def _ship_pending_deltas(self, pending: list[_PendingCall]) -> None:
        """Queue, once per version step, every delta hydration the fleet is owed.

        After a bump, a node holding a slice one version back can catch up
        by a delta.  Shipping them all in the step's first fan-out means a
        later read touching an attribute the first one did not finds its
        slices current instead of paying a hydration round of its own.
        Only deltas ship here: a slice that needs a full snapshot waits for
        a read that needs it, so full frames still go out one attribute at
        a time, and an attribute the coordinator no longer holds columns
        for is not rebuilt for it.
        """
        if not self._deltas_due:
            return
        self._deltas_due = False
        for attribute, slice_id in list(self._slice_bases):
            columns = self.base.resident_columns(attribute)
            if columns is None:
                continue
            bounds = partition_bounds(columns.num_entities, self.num_slices)
            for node in self._replicas_of(slice_id):
                hydration_key = (node, attribute, slice_id)
                if (
                    hydration_key in self._hydrated
                    or self._node_bases.get(hydration_key) != self._retired_version
                ):
                    continue
                call = self._enqueue_hydration(
                    node,
                    columns,
                    attribute,
                    slice_id,
                    bounds[slice_id],
                    bounds[slice_id + 1],
                    delta_only=True,
                )
                if call is not None:
                    pending.append(call)

    def _enqueue_work(
        self,
        pending: list[_PendingCall],
        work: _SliceWork,
        node: int,
        slice_ids: list[int],
        tried: set[int],
    ) -> None:
        """Hydrate ``node`` as needed, then queue ``work``'s frame for ``slice_ids`` on it."""
        self._hydrate_ahead(pending, work.columns, work.bounds, node, slice_ids)
        reply = self._channels[node].enqueue(work.encode(slice_ids), work.decode)
        self.rpc_requests += 1
        pending.append(
            _PendingCall(
                kind="work",
                reply=reply,
                node=node,
                work=work,
                slices=list(slice_ids),
                tried=tried | {node},
            )
        )

    def _route(self, pending: list[_PendingCall], work: _SliceWork, slice_ids: list[int]) -> None:
        """Send ``work`` on ``slice_ids`` to the fleet, one call per node.

        Every replica missing a slice receives a hydrate frame (warm
        standby — the availability the replication factor buys); each slice
        goes to its least-loaded replica, and slices landing on one node
        share one call.  Routing cannot affect results: replicas hydrate
        from identical snapshot bytes and the kernels are row-independent,
        so any replica computes the same values bit for bit.
        """
        groups: dict[int, list[int]] = {}
        for slice_id in slice_ids:
            replicas = self._replicas_of(slice_id)
            for node in replicas:
                self._hydrate_ahead(pending, work.columns, work.bounds, node, [slice_id])
            target = min(
                replicas, key=lambda node: self._channel_load(node) + len(groups.get(node, ()))
            )
            groups.setdefault(target, []).append(slice_id)
        for node, group in groups.items():
            self._enqueue_work(pending, work, node, group, set())

    def _failover_target(self, slice_id: int, tried: set[int]) -> int | None:
        """A live, untried replica to re-issue one crashed slice on."""
        candidates = []
        for node in self._replicas_of(slice_id):
            if node in tried:
                continue
            channel = self._channels[node]
            if channel is None or channel.dead or channel.sock is None:
                continue
            candidates.append(node)
        if not candidates:
            return None
        return min(candidates, key=self._channel_load)

    def _collect_calls(self, calls: list[_PendingCall]) -> list[_PendingCall]:
        """Resolve one fan-out's calls; completed work calls, in any order.

        The failover loop: pump until every outstanding call resolves,
        re-issue the slices of work calls whose node crashed onto untried
        live replicas (hydrating them first if needed, one call per
        replica), and repeat until nothing is outstanding.  With a replica
        available a node loss is invisible to the caller; with none
        (``replication=1``, or every replica tried) the original
        :class:`~repro.serving.protocol.WorkerCrashedError` surfaces exactly
        as before.  Non-crash errors — a refused snapshot, a version-skewed
        delta, a node-side scoring fault — always raise: they signal bugs or
        corruption, and retrying them elsewhere would only mask the signal.
        A crashed *hydrate* call alone never fails the fan-out (its record
        is rolled back and any work routed to that node fails over on its
        own), so a dying warm standby costs nothing.
        """
        completed: list[_PendingCall] = []
        pending = list(calls)
        while pending:
            self._pump_until([call.reply for call in pending], raise_errors=False)
            next_round: list[_PendingCall] = []
            for call in pending:
                error = call.reply.error
                if error is None:
                    if call.kind == "work":
                        completed.append(call)
                    continue
                if call.kind == "hydrate":
                    self._hydrated.discard(call.hydration_key)
                    self._node_bases.pop(call.hydration_key, None)
                    if isinstance(error, WorkerCrashedError):
                        continue
                    raise error
                if not isinstance(error, WorkerCrashedError):
                    raise error
                groups: dict[int, list[int]] = {}
                for slice_id in call.slices:
                    node = self._failover_target(slice_id, call.tried)
                    if node is None:
                        raise error
                    groups.setdefault(node, []).append(slice_id)
                for node, group in groups.items():
                    self.failovers += 1
                    self._enqueue_work(next_round, call.work, node, group, call.tried)
            pending = next_round
        return completed

    # ------------------------------------------------------------------ pump
    def _live_channels(self) -> list[ClusterNodeClient]:
        return [
            channel
            for channel in self._channels
            if channel is not None and not channel.dead and channel.sock is not None
        ]

    def _service_io(self, timeout: float) -> bool:
        """One pump step: write queued frames, read ready responses.

        Registers every live channel that has work with ``select`` and
        performs all ready I/O once; returns whether anything progressed.
        Channel failures are absorbed here — the affected replies fail with
        :class:`~repro.serving.protocol.WorkerCrashedError` and the channel
        is marked dead for reconnection.
        """
        channels = [channel for channel in self._live_channels() if channel.has_work]
        readers = [channel for channel in channels if channel.inflight]
        writers = [channel for channel in channels if channel.wants_write]
        if not readers and not writers:
            return False
        readable, writable, _ = select.select(readers, writers, [], timeout)
        progressed = False
        for channel in writable:
            if channel.dead:
                continue
            try:
                channel.pump_writes()
                progressed = True
            except (RpcError, OSError) as error:
                self._drop_channel(channel, error)
        for channel in readable:
            if channel.dead:
                continue
            try:
                channel.pump_reads()
                progressed = True
            except (RpcError, OSError) as error:
                self._drop_channel(channel, error)
        return progressed

    def _pump_until(
        self,
        replies: Sequence[NodeReply],
        raise_errors: bool = True,
        timeout: float | None = None,
    ) -> None:
        """Drive the pump until every reply resolves (or fails).

        A reply can only be outstanding while its channel is live (channel
        loss fails its replies immediately), so the loop always terminates;
        the deadline guards against a node that accepts requests but never
        answers — its channel is treated as crashed.
        """
        deadline = time.monotonic() + (timeout if timeout is not None else self.io_timeout)
        while not all(reply.done for reply in replies):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                stuck = RpcError("timed out waiting for node responses")
                for channel in self._live_channels():
                    if channel.inflight or channel.queue:
                        self._drop_channel(channel, stuck)
                break
            self._service_io(min(remaining, 0.5))
        if raise_errors:
            for reply in replies:
                if reply.error is not None:
                    raise reply.error

    # ----------------------------------------------------------- partitions
    def columns(self, attribute: str) -> AttributeColumns | None:
        """The unpartitioned column arrays (delegates to the base store)."""
        self._check_version()
        return self.base.columns(attribute)

    # -------------------------------------------------------------- scoring
    def request_degrees(
        self,
        membership: object,
        entity_ids: Sequence[Hashable],
        attribute: str,
        phrase: str,
    ) -> DegreeRequest | None:
        """Issue one degree fan-out without waiting for the responses.

        Plans the exact per-slice requests the in-process store executes
        (:func:`repro.core.columnar.plan_slice_requests`), enqueues a
        ``hydrate`` frame ahead of the first score touching a not-yet
        hydrated slice, and opportunistically flushes the queues so nodes
        start computing immediately.  Returns ``None`` under the same
        conditions the base store does (no kernel / no columns), so
        callers' scalar fallback behaviour is unchanged.  The returned
        :class:`DegreeRequest` is consumed by :meth:`collect_degrees`;
        issuing several before collecting any is how the concurrent
        coordinator overlaps independent queries' fan-outs.
        """
        self._check_version()
        kernel = columnar_kernel(membership, self.database)
        if kernel is None:
            return None
        self._ensure_nodes(membership)  # fork before the column build
        columns = self.base.columns(attribute)
        if columns is None:
            return None
        rows = [columns.row_of.get(entity_id) for entity_id in entity_ids]
        resident = sorted({row for row in rows if row is not None})
        request = DegreeRequest(
            data_version=self._version,
            entity_ids=list(entity_ids),
            rows=rows,
            membership=membership,
            attribute=attribute,
            phrase=phrase,
            columns=columns,
            batch=np.empty(columns.num_entities) if resident else None,
        )
        if resident:
            bounds = partition_bounds(columns.num_entities, self.num_slices)
            for slice_id, start, stop, slice_rows, scatter in plan_slice_requests(bounds, resident):
                work = _SliceWork(
                    {attribute: columns},
                    bounds,
                    partial(_score_frame, slice_id, attribute, phrase, start, stop, slice_rows),
                    _decode_score,
                    scatter,
                )
                self._route(request.pending, work, [slice_id])
            self._ship_pending_deltas(request.pending)
            self.fanouts += 1
            self._service_io(0.0)
        return request

    def collect_degrees(self, request: DegreeRequest) -> list[float]:
        """Wait for one issued fan-out and gather its per-entity degrees.

        A node lost while the request was in flight fails over to a warm
        replica when the replication factor provides one, invisibly to the
        caller; without one it surfaces as
        :class:`~repro.serving.protocol.WorkerCrashedError` exactly as
        before.  A transported hydration failure forgets the hydration
        record so the next fan-out re-ships the snapshot.  Entities absent
        from the columns fall back to per-entity scalar scoring on the
        coordinator, exactly like every other store.
        """
        with span("transport", layer="cluster", requests=len(request.pending)):
            for call in self._collect_calls(request.pending):
                request.batch[call.work.scatter] = call.reply.value
        return gather_degrees(
            request.batch,
            request.rows,
            request.entity_ids,
            scalar_fallback_scorer(
                request.membership,
                self.database,
                request.attribute,
                request.phrase,
                request.columns,
            ),
        )

    def pair_degrees(
        self,
        membership: object,
        entity_ids: Sequence[Hashable],
        attribute: str,
        phrase: str,
    ) -> list[float] | None:
        """Cluster analog of :meth:`ColumnarSummaryStore.pair_degrees`.

        One synchronous fan-out: issue, pump, gather.  Degrees are exactly
        those of the unsharded store — hydrated snapshots round-trip every
        float bit and the kernels are row-independent.
        """
        request = self.request_degrees(membership, entity_ids, attribute, phrase)
        if request is None:
            return None
        return self.collect_degrees(request)

    def rank(
        self,
        membership: object,
        attributes: Sequence[str],
        candidate_rows: "Callable[[AttributeColumns], np.ndarray | None]",
        encode: "Callable[[list[tuple[int, int, int]], np.ndarray, np.ndarray], bytes]",
    ) -> "list[RankReply] | None":
        """Rank one pruned query on the nodes: one ``rank`` call per node.

        ``candidate_rows(columns)`` is every candidate's row in an
        attribute's columns (``None`` when some candidate has none);
        ``encode(slices, rows, positions)`` builds the frame for the
        ``(slice_id, start, stop)`` slices given the candidates inside them
        — their rows, ascending, and their candidate positions.  Each slice
        holding a candidate goes to its least-loaded replica (a cold fleet
        is hydrated first, one attribute at a time), and a node lost
        mid-call has its slices re-ranked on untried replicas
        (:meth:`_collect_calls`).

        Returns every reply: each is the exact top-k of its slices under
        the global ranking key, so their union holds the global top-k.
        ``None`` — the caller takes the unpruned fan-out — when the
        attributes do not share one row order (the frame's rows index
        them all), a candidate has no row, or there is no columnar kernel.
        """
        self._check_version()
        if columnar_kernel(membership, self.database) is None:
            return None
        self._ensure_nodes(membership)  # fork before the column build
        columns = {attribute: self.base.columns(attribute) for attribute in attributes}
        first = next(iter(columns.values()))
        if first is None or any(
            other is None
            or (other.entity_ids is not first.entity_ids and other.entity_ids != first.entity_ids)
            for other in columns.values()
        ):
            return None
        rows = candidate_rows(first)
        if rows is None:
            return None
        order = np.argsort(rows, kind="stable")
        ascending = rows[order]
        bounds = partition_bounds(first.num_entities, self.num_slices)
        cuts = np.searchsorted(ascending, bounds)

        def encode_slices(slice_ids: list[int]) -> bytes:
            """The rank frame for ``slice_ids`` and the candidates inside them."""
            picked = np.concatenate(
                [np.arange(cuts[slice_id], cuts[slice_id + 1]) for slice_id in slice_ids]
            )
            slices = [(slice_id, bounds[slice_id], bounds[slice_id + 1]) for slice_id in slice_ids]
            return encode(slices, ascending[picked], order[picked])

        slice_ids = [
            slice_id for slice_id in range(self.num_slices) if cuts[slice_id + 1] > cuts[slice_id]
        ]
        # A cold fleet is hydrated one attribute at a time, as a per-pair
        # fan-out would: queueing every attribute's snapshot frames at once
        # would double the coordinator's peak memory.
        for attribute, attribute_columns in columns.items():
            hydrations: list[_PendingCall] = []
            for slice_id in slice_ids:
                for node in self._replicas_of(slice_id):
                    self._hydrate_ahead(
                        hydrations, {attribute: attribute_columns}, bounds, node, [slice_id]
                    )
            self._collect_calls(hydrations)
        work = _SliceWork(columns, bounds, encode_slices, _decode_rank)
        pending: list[_PendingCall] = []
        # Frames are built inside the transport span, so the nodes' spans
        # parent onto it.
        with span("transport", layer="cluster", rank=True) as handle:
            self._route(pending, work, slice_ids)
            self._ship_pending_deltas(pending)
            if handle is not None:
                handle.set("requests", len(pending))
            replies = [call.reply.value for call in self._collect_calls(pending)]
        self.fanouts += 1
        for reply in replies:
            self.entities_scored += reply.scored
            self.entities_pruned += reply.pruned
        return replies

    # ------------------------------------------------------------ statistics
    def node_stats(self) -> list[dict]:
        """One ``stats`` RPC result per connected node (dead nodes skipped)."""
        return [stats for _, stats in self._indexed_node_stats()]

    def _indexed_node_stats(self) -> list[tuple[int, dict]]:
        """``(channel index, stats frame)`` per reachable node.

        Keyed by the coordinator's channel index, *not* the node's
        self-reported ``node`` id: an external fleet may number its
        servers however it likes (duplicates included), and a respawned
        managed node must keep reporting under the slot it serves.
        """
        replies: list[tuple[int, NodeReply]] = []
        for index, channel in enumerate(self._channels):
            if channel is None or channel.dead or channel.sock is None:
                continue
            replies.append((index, channel.enqueue(_U8.pack(OP_STATS), _decode_stats)))
        if replies:
            self._pump_until([reply for _, reply in replies], raise_errors=False)
        return [
            (index, reply.value)
            for index, reply in replies
            if reply.error is None and reply.done
        ]

    def node_traces(self, trace_id: int = 0, limit: int = 0) -> list[dict]:
        """Span records collected from every reachable node's trace store.

        Nodes record spans whenever a score frame carries a trace field,
        so the coordinator can stitch one
        cross-process span tree by querying the fleet after a traced
        query.  Dead nodes are skipped, mirroring :meth:`node_stats`.
        """
        replies: list[NodeReply] = []
        for channel in self._channels:
            if channel is None or channel.dead or channel.sock is None:
                continue
            replies.append(channel.enqueue(encode_traces_request(trace_id, limit), _decode_traces))
        if replies:
            self._pump_until(replies, raise_errors=False)
        spans: list[dict] = []
        for reply in replies:
            if reply.error is None and reply.done:
                spans.extend(reply.value)
        return spans

    def partition_stats(self) -> list[dict[str, object]]:
        """One dict per node: transport counters plus node cache activity.

        Transport counters (``requests``, ``bytes_sent``,
        ``bytes_received``, ``reconnects``, ``respawns``) are tracked
        coordinator-side and survive reconnects and respawns, which count
        recoveries only (a node's first spawn and connect are the fleet's
        start); for reachable nodes the dict additionally merges the node's
        own ``stats`` frame (``cache_hits``, ``cache_entries``, hydrated
        slices, and ``bounds_builds`` / ``bounds_patches`` — slice bounds
        built from every row vs. patched from a delta's rows).  Unreachable
        nodes report transport counters only.  Node frames attach to the
        channel they arrived on, so a respawn cycle or an external fleet
        with clashing node ids can never double-assign one node's frame
        to another's entry.
        """
        remote: dict[int, dict] = dict(self._indexed_node_stats())
        entries: list[dict[str, object]] = []
        for index, counters in enumerate(self._node_counters):
            channel = self._channels[index]
            entry: dict[str, object] = {
                "node": index,
                "address": self._addresses[index],
                "connected": bool(
                    channel is not None and not channel.dead and channel.sock is not None
                ),
                **counters,
            }
            node_stats = remote.get(index)
            if node_stats is not None:
                entry["cache_hits"] = node_stats.get("cache_hits", 0)
                entry["cache_entries"] = node_stats.get("cache_entries", 0)
                entry["hydrated_slices"] = node_stats.get("hydrated_slices", 0)
                entry["delta_hydrations"] = node_stats.get("delta_hydrations", 0)
                entry["stale_slices"] = node_stats.get("stale_slices", 0)
                entry["data_version"] = node_stats.get("data_version", 0)
                entry["entities_scored"] = node_stats.get("entities_scored", 0)
                entry["entities_pruned"] = node_stats.get("entities_pruned", 0)
                entry["bounds_builds"] = node_stats.get("bounds_builds", 0)
                entry["bounds_patches"] = node_stats.get("bounds_patches", 0)
            entries.append(entry)
        return entries

    def transport_counters(self) -> dict[str, int]:
        """Aggregate transport counters (surfaced in ``run_batch`` stats)."""
        return {
            "rpc_requests": sum(c["requests"] for c in self._node_counters),
            "rpc_bytes_sent": sum(c["bytes_sent"] for c in self._node_counters),
            "rpc_bytes_received": sum(c["bytes_received"] for c in self._node_counters),
            "node_reconnects": sum(c["reconnects"] for c in self._node_counters),
            "node_respawns": sum(c["respawns"] for c in self._node_counters),
            "snapshot_hydrations": self.hydrations - self.delta_hydrations,
            "snapshot_delta_hydrations": self.delta_hydrations,
            "slice_failovers": self.failovers,
        }

    def stats_snapshot(self) -> dict[str, object]:
        """Coordinator counters plus the wrapped base store's snapshot."""
        return {
            "num_nodes": self.num_nodes,
            "num_slices": self.num_slices,
            "backend": "cluster",
            "managed": self._managed,
            "replication": self.replication,
            "data_version": self._version,
            "connected_nodes": len(self._live_channels()),
            "invalidations": self.invalidations,
            "fanouts": self.fanouts,
            "rpc_requests": self.rpc_requests,
            "hydrations": self.hydrations,
            "delta_hydrations": self.delta_hydrations,
            "local_hydrations": self.local_hydrations,
            "failovers": self.failovers,
            "entities_scored": self.entities_scored,
            "entities_pruned": self.entities_pruned,
            "base": self.base.stats_snapshot(),
        }


# --------------------------------------------------------------------------
# The concurrent coordinator engine
# --------------------------------------------------------------------------

@dataclass
class _PrefetchedQuery:
    """One batch query planned ahead, with its issued degree fan-outs.

    Each handle entry is ``(cache keys, store request, memo key or None,
    candidate ids)`` — the memo key is set when the fan-out covers the
    whole candidate set, so absorbing it can pre-fill the vector memo.
    """

    sql: str
    data_version: int
    handles: list[tuple] = field(default_factory=list)


class ClusterQueryEngine(ShardedSubjectiveQueryEngine):
    """Serving front end over TCP shard nodes; results exactly equal to the
    unsharded engine, with a concurrent batch coordinator.

    Planning, WHERE-tree vectorization over degree arrays, and the exact
    ``(-score, str(entity_id), position)`` top-k merge are inherited from
    the sharded engine verbatim; only the degree transport (an installed
    :class:`ClusterShardStore`) and :meth:`run_batch` differ.

    ``run_batch`` keeps a bounded window of up to ``max_inflight_queries``
    queries planned ahead of the one currently executing: each windowed
    query's uncached membership fan-outs are issued to the nodes
    immediately, so while the coordinator ranks query *i*, the nodes are
    already computing degrees for queries *i+1 … i+W*.  The look-ahead
    window additionally enables **vector-level reuse**: once one windowed
    query has assembled a predicate pair's degree vector over the shared
    candidate set, every other query in the batch touching the same pair
    reuses the vector outright instead of re-walking the per-entity
    membership cache — the dominant coordinator cost under overlapping
    query traffic.  Results are **bit-identical** to serial execution: the
    prefetch only pre-fills the same membership cache the serial path
    would fill, with the same deterministic values (kernels are
    row-independent, so request batching cannot change any bit), reused
    vectors hold exactly the values the per-entity walk would have
    gathered, duplicate work is suppressed exactly where the serial path
    would have had a cache hit, and a mid-batch ``data_version`` bump
    discards every prefetched value from the old version before it can be
    served.  The returned :class:`~repro.serving.engine.BatchResult`
    reports serial-equivalent cache statistics (what a one-query-at-a-time
    execution would have counted) plus the real transport counter deltas.

    Fleet shape mirrors :class:`ClusterShardStore`: a managed local fleet
    of ``num_nodes`` forked TCP nodes by default, or ``addresses=...`` to
    serve over externally started :class:`ShardNodeServer` instances.  Set
    ``max_inflight_queries=1`` for a strictly serial coordinator (the
    baseline the cluster benchmark measures against).
    """

    engine_backends = ("cluster",)

    def __init__(
        self,
        database: SubjectiveDatabase | None = None,
        processor: SubjectiveQueryProcessor | None = None,
        num_nodes: int | None = None,
        num_shards: int | None = None,
        plan_cache_size: int | None = 256,
        membership_cache_size: int | None = 200_000,
        candidate_cache_size: int | None = 64,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        node_cache_size: int | None = DEFAULT_WORKER_CACHE_SIZE,
        addresses: Sequence[tuple[str, int]] | None = None,
        window: int = DEFAULT_INFLIGHT_WINDOW,
        max_inflight_queries: int = DEFAULT_MAX_INFLIGHT_QUERIES,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        io_timeout: float = DEFAULT_IO_TIMEOUT,
        replication: int = 1,
        data_dir: str | None = None,
    ) -> None:
        if addresses is not None:
            if num_nodes is not None and num_nodes != len(addresses):
                raise ValueError(
                    f"num_nodes ({num_nodes}) contradicts the {len(addresses)} addresses given"
                )
            num_nodes = len(addresses)
        elif num_nodes is None:
            num_nodes = default_num_shards()
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be positive, got {num_nodes}")
        if max_inflight_queries < 1:
            raise ValueError(
                f"max_inflight_queries must be positive, got {max_inflight_queries}"
            )
        self.num_nodes = num_nodes
        self.max_frame_bytes = max_frame_bytes
        self.node_cache_size = node_cache_size
        self.addresses = list(addresses) if addresses is not None else None
        self.window = window
        self.max_inflight_queries = max_inflight_queries
        self.connect_timeout = connect_timeout
        self.io_timeout = io_timeout
        self.replication = replication
        self.data_dir = data_dir
        # Batch-local (attribute, phrase) → (unique_ids, degrees) memo;
        # active only inside a concurrent run_batch, cleared on every
        # invalidation so it can never outlive a data version.  The
        # prefetch record tracks pairs whose keys were already issued or
        # found cached by an earlier windowed query.
        self._vector_memo: dict[tuple, tuple] | None = None
        self._prefetched_pairs: dict[tuple, Sequence[Hashable]] = {}
        super().__init__(
            database=database,
            processor=processor,
            num_shards=num_shards if num_shards is not None else num_nodes,
            backend="cluster",
            max_workers=num_nodes,
            plan_cache_size=plan_cache_size,
            membership_cache_size=membership_cache_size,
            candidate_cache_size=candidate_cache_size,
        )

    def _build_sharded_store(
        self, base: ColumnarSummaryStore | None, max_workers: int | None
    ) -> ClusterShardStore:
        """Install a :class:`ClusterShardStore` as the processor's columnar store."""
        return ClusterShardStore(
            self.database,
            num_nodes=max_workers,
            num_slices=self.num_shards,
            base=base,
            max_frame_bytes=self.max_frame_bytes,
            node_cache_size=self.node_cache_size,
            addresses=self.addresses,
            window=self.window,
            connect_timeout=self.connect_timeout,
            io_timeout=self.io_timeout,
            replication=self.replication,
            data_dir=self.data_dir,
        )

    # ----------------------------------------------------- vector-level reuse
    def _drop_caches(self, journaled: bool = False) -> None:
        """Drop engine caches and the batch-local vector memo together."""
        self._vector_memo = None if self._vector_memo is None else {}
        self._prefetched_pairs = {}
        super()._drop_caches(journaled)

    @staticmethod
    def _same_ids(stored: Sequence[Hashable], unique_ids: Sequence[Hashable]) -> bool:
        """Whether two candidate-id sequences are the same set of rows."""
        return stored is unique_ids or list(stored) == list(unique_ids)

    @staticmethod
    def _pair_signature(
        attribute: str | None, phrase: str, unique_ids: Sequence[Hashable]
    ) -> tuple:
        """A cheap memo key for one predicate pair over one candidate set.

        Batch queries may run over different candidate sets (objective
        filters, the empty set of an all-crisp-false pre-filter), so the
        ids participate in the key through an O(1) signature; lookups still
        verify full id equality before reusing anything, so a signature
        collision can only cost a recomputation, never change a value.
        """
        if len(unique_ids):
            return (attribute, phrase, len(unique_ids), unique_ids[0], unique_ids[-1])
        return (attribute, phrase, 0, None, None)

    def _memo_lookup(self, key: tuple, unique_ids: Sequence[Hashable]):
        memo = self._vector_memo
        if memo is None:
            return None
        entry = memo.get(key)
        if entry is None:
            return None
        memo_ids, values = entry
        if self._same_ids(memo_ids, unique_ids):
            return values
        return None

    def _cached_pair_degrees(
        self, entity_ids: Sequence[Hashable], attribute: str, phrase: str
    ) -> list[float]:
        """Pair degrees with batch-local vector reuse (concurrent batches only).

        Inside a concurrent ``run_batch``, the first query assembling one
        predicate pair's degree list over the batch's shared candidate set
        memoises the whole list; later windowed queries over the same ids
        reuse it outright — the values are exactly what the per-entity
        cache walk would have returned, so results cannot change, and the
        walk (hundreds of tuple builds and cache probes per query) is the
        dominant coordinator cost under overlapping traffic.
        """
        key = self._pair_signature(attribute, phrase, entity_ids)
        values = self._memo_lookup(key, entity_ids)
        if values is not None:
            return values
        values = super()._cached_pair_degrees(entity_ids, attribute, phrase)
        if self._vector_memo is not None:
            self._vector_memo[key] = (list(entity_ids), values)
        return values

    def _prune_enabled(self) -> bool:
        """Pruning is off inside a concurrent batch.

        The prefetch window has already issued (or finished) full exact
        fan-outs for every windowed query's predicate pairs; a rank frame
        would only duplicate node work the batch machinery has paid for,
        so the serial ranking path over the warm caches wins.
        """
        return self._vector_memo is None

    def _scan_pruned(
        self,
        plan: QueryPlan,
        candidates: CandidateSet,
        predicates: Sequence[PrunedPredicate],
        limit: int,
    ) -> PrunedRanking | None:
        """Ship the pruned scan: one ``rank`` frame per node, the node lists merged here.

        Each node runs the engine's chunk loop over its own slices, with
        envelopes from its own bound summaries, and returns its exact local
        top-``limit`` under the global key ``(-score, str(entity_id),
        position)``; the global top-``limit`` therefore lies in the union of
        the lists, so one round is exact.  The coordinator folds no
        envelope and fetches no degree.  ``None`` — the unpruned path —
        for a logic a node cannot rebuild by name, a membership without
        bounds, a tree without subjective predicates, a tree deeper than a
        node accepts (:func:`~repro.serving.protocol.check_where_tree`),
        attributes that do not share one row order
        (:meth:`ClusterShardStore.rank`), or when this coordinator's cache
        already holds every degree the query reads.
        """
        logic = self.processor.logic
        membership = self.processor.membership
        if (
            not predicates
            or RANK_LOGICS.get(logic.name) is not type(logic)
            or getattr(membership, "degree_bounds", None) is None
        ):
            return None
        cache = self.membership_cache
        rows = candidates.entity_rows(cache)
        if all(cache.covers(pair, rows) for predicate in predicates for pair in predicate.pairs):
            return None  # a batch prefetch left whole columns here: read them unpruned
        tree, crisp_leaves = encode_where_tree(
            plan.statement.where,
            {predicate.text: index for index, predicate in enumerate(predicates)},
        )
        try:
            check_where_tree(tree, len(predicates), len(crisp_leaves))
        except ProtocolError:
            return None  # deeper than a node accepts
        attributes = list(
            dict.fromkeys(attribute for predicate in predicates for attribute, _ in predicate.pairs)
        )

        total = len(candidates.row_entities)

        def encode(slices, rows: np.ndarray, positions: np.ndarray) -> bytes:
            """The rank frame for one node's slices and the candidates inside them.

            The node's first chunk is its share of the engine's, so the fleet
            as a whole scans about as much before its first threshold as one
            in-process scan does.
            """
            return encode_rank_request(
                limit,
                logic.name,
                -(-self.prune_chunk_size * len(rows) // total),
                self.prune_chunk_growth,
                predicates,
                tree,
                slices,
                rows,
                positions,
                [candidates.crisp_vector(leaf)[positions] for leaf in crisp_leaves],
                trace=current_wire_trace(),
            )

        replies = self.sharded_store.rank(membership, attributes, candidates.store_rows, encode)
        if replies is None:
            return None
        row_entities = candidates.row_entities
        texts = [predicate.text for predicate in predicates]
        heap = TopKThreshold(limit)
        scanned = offered = pruned = 0
        for reply in replies:
            if reply.positions.size and int(reply.positions.max()) >= len(row_entities):
                raise RpcError("a node ranked a candidate position the query does not have")
            count = len(reply.positions)
            if reply.scores.shape != (count,) or reply.degrees.shape != (count, len(texts)):
                raise RpcError(
                    f"a node's rank reply has {reply.degrees.shape} degrees for {count} "
                    f"entries of {len(texts)} predicates"
                )
            vectors = {text: reply.degrees[:, column] for column, text in enumerate(texts)}
            for index, (position, score) in enumerate(
                zip(reply.positions.tolist(), reply.scores.tolist())
            ):
                heap.offer(
                    score,
                    row_entities[position],
                    position,
                    payload=(position, score, vectors, index),
                )
            scanned += reply.scanned
            offered += reply.positions.size
            pruned += reply.pruned
            self.entities_scored += reply.scored
        self.entities_pruned += pruned
        return PrunedRanking(heap, len(row_entities), scanned, offered, pruned, nodes=len(replies))

    def _cached_retrieval_degrees(
        self, entity_ids: Sequence[Hashable], predicate: str
    ) -> list[float]:
        """Retrieval degrees with the same batch-local vector reuse."""
        key = self._pair_signature(None, predicate, entity_ids)
        values = self._memo_lookup(key, entity_ids)
        if values is not None:
            return values
        values = super()._cached_retrieval_degrees(entity_ids, predicate)
        if self._vector_memo is not None:
            self._vector_memo[key] = (list(entity_ids), values)
        return values

    # ------------------------------------------------------- concurrent batch
    def run_batch(self, sqls: Sequence[str], top_k: int | None = None) -> BatchResult:
        """Execute many queries, overlapping their node fan-outs.

        With ``max_inflight_queries`` of 1 (or no cluster store installed)
        this is exactly the inherited serial batch.  Otherwise queries are
        consumed from ``sqls`` into a bounded look-ahead window; each
        windowed query is planned and its uncached degree work issued to
        the nodes, then queries are completed strictly in input order —
        results, per-query latencies and ranked output are bit-identical to
        the serial path.
        """
        if self.max_inflight_queries <= 1 or self.sharded_store is None:
            return super().run_batch(sqls, top_k=top_k)
        self._check_data_version()
        transport_before = self._cache_counters()
        accounting = {
            "plan_hits": 0,
            "plan_misses": 0,
            "membership_hits": 0,
            "membership_misses": 0,
            "candidate_hits": 0,
            "candidate_misses": 0,
        }
        pending: dict[tuple, int] = {}
        iterator = iter(sqls)
        window: deque[_PrefetchedQuery] = deque()
        exhausted = False
        results = []
        latencies: list[float] = []
        self._vector_memo = {}
        self._prefetched_pairs = {}
        started = now()
        try:
            while True:
                while not exhausted and len(window) < self.max_inflight_queries:
                    try:
                        sql = next(iterator)
                    except StopIteration:
                        exhausted = True
                        break
                    window.append(self._prefetch_query(sql, pending, accounting))
                if not window:
                    break
                item = window.popleft()
                query_started = now()
                self._absorb_prefetch(item)
                results.append(self.execute(item.sql, top_k=top_k))
                latencies.append(now() - query_started)
        finally:
            self._vector_memo = None
            self._prefetched_pairs = {}
        elapsed = now() - started
        self.stats.batch_queries += len(results)
        transport_after = self._cache_counters()
        cache_stats = dict(accounting)
        for name, value in transport_after.items():
            if name not in cache_stats:
                cache_stats[name] = value - transport_before.get(name, 0)
        return BatchResult(
            results=results,
            latencies=latencies,
            elapsed_seconds=elapsed,
            cache_stats=cache_stats,
        )

    def _prefetch_query(
        self, sql: str, pending: dict[tuple, int], accounting: dict[str, int]
    ) -> _PrefetchedQuery:
        """Plan one windowed query and issue its uncached degree fan-outs.

        Accounting mirrors what a serial execution would have counted at
        this point in the input order: a membership key already cached *or*
        already requested by an earlier batch query is a hit (serial would
        have found it cached by now), everything else is a miss and is
        requested exactly once.
        """
        self._check_data_version()
        version = self.database.data_version
        # A version bump between windowed queries orphans every pending
        # record at once (the caches they describe were cleared), so one
        # sentinel comparison suffices — all live entries share a version.
        if pending and next(iter(pending.values())) != version:
            pending.clear()
        plan_key = normalize_sql(sql)
        if plan_key in self.plan_cache:
            accounting["plan_hits"] += 1
        else:
            accounting["plan_misses"] += 1
        plan = self.plan(sql)
        if plan.candidate_key in self.candidate_cache:
            accounting["candidate_hits"] += 1
        else:
            accounting["candidate_misses"] += 1
        candidates = self._candidate_rows(plan)
        item = _PrefetchedQuery(sql=sql, data_version=version)
        processor = self.processor
        for predicate, interpretation in plan.interpretations.items():
            if (
                interpretation.method is InterpretationMethod.TEXT_RETRIEVAL
                or not interpretation.pairs
            ):
                self._prefetch_keys(
                    item,
                    candidates.unique_ids,
                    None,
                    predicate,
                    pending,
                    accounting,
                    compute=lambda missing, p=predicate: processor.retrieval_degrees(missing, p),
                )
            else:
                for pair in interpretation.pairs:
                    phrase = processor.phrase_for_pair(interpretation, pair.marker)
                    self._prefetch_keys(
                        item,
                        candidates.unique_ids,
                        pair.attribute,
                        phrase,
                        pending,
                        accounting,
                        compute=lambda missing, a=pair.attribute, p=phrase: (
                            processor.pair_degrees(missing, a, p)
                        ),
                    )
        return item

    def _prefetch_keys(
        self,
        item: _PrefetchedQuery,
        unique_ids: Sequence[Hashable],
        attribute: str | None,
        phrase: str,
        pending: dict[tuple, int],
        accounting: dict[str, int],
        compute,
    ) -> None:
        """Issue (or inline-compute) the uncached degrees of one predicate pair.

        Predicate pairs are deduplicated at two levels before any per-key
        work: the vector memo (an earlier batch query already *assembled*
        the pair's vector) and the prefetch record (an earlier windowed
        query already *issued or found cached* every key of the pair over
        the same candidate set).  Either way a serial execution would have
        found every key cached by the time this query ran, so the whole
        pair counts as hits.
        """
        pair_key = self._pair_signature(attribute, phrase, unique_ids)
        if self._memo_lookup(pair_key, unique_ids) is not None:
            accounting["membership_hits"] += len(unique_ids)
            return
        recorded = self._prefetched_pairs.get(pair_key)
        if recorded is not None and self._same_ids(recorded, unique_ids):
            accounting["membership_hits"] += len(unique_ids)
            return
        self._prefetched_pairs[pair_key] = unique_ids
        keys = [(entity_id, attribute, phrase) for entity_id in unique_ids]
        present = self.membership_cache.peek_many(keys, _PREFETCH_MISSING)
        missing_ids: list[Hashable] = []
        missing_keys: list[tuple] = []
        hits = 0
        for entity_id, key, value in zip(unique_ids, keys, present):
            if value is not _PREFETCH_MISSING or key in pending:
                hits += 1
            else:
                missing_ids.append(entity_id)
                missing_keys.append(key)
        accounting["membership_hits"] += hits
        accounting["membership_misses"] += len(missing_ids)
        if not missing_ids:
            return
        for key in missing_keys:
            pending[key] = item.data_version
        # The asynchronous node path is only correct where the serial path
        # would itself route through the columnar store: the marker-free
        # ablation (``use_markers=False``) and the scalar baseline
        # (``use_columnar=False``) must take the processor's own compute
        # path, exactly like ``processor.pair_degrees`` would.
        handle = None
        if attribute is not None and self.processor.use_markers and self.processor.use_columnar:
            handle = self.sharded_store.request_degrees(
                self.processor.membership, missing_ids, attribute, phrase
            )
        if handle is None:
            # No asynchronous path (text retrieval, or no columnar kernel):
            # compute inline — the exact computation the serial path runs —
            # and fill the cache immediately.
            values = compute(missing_ids)
            self.membership_cache.put_many(list(zip(missing_keys, values)))
            return
        # When the fan-out covers the whole candidate set (a cold pair),
        # its collected values *are* the pair's vector: remember enough to
        # pre-fill the vector memo at absorb time, sparing the first
        # per-entity walk too.
        memo_fill = pair_key if len(missing_ids) == len(unique_ids) else None
        item.handles.append((missing_keys, handle, memo_fill, unique_ids))

    def _absorb_prefetch(self, item: _PrefetchedQuery) -> None:
        """Land one windowed query's fan-out results in the membership cache.

        Values from a superseded ``data_version`` are discarded unfilled —
        the following ``execute`` recomputes against current data — and
        node-loss errors are swallowed for superseded requests only; for a
        current-version request they surface exactly as the serial path's
        :class:`~repro.serving.protocol.WorkerCrashedError` would.
        """
        for keys, handle, memo_fill, unique_ids in item.handles:
            stale = self.database.data_version != handle.data_version
            try:
                values = self.sharded_store.collect_degrees(handle)
            except RpcError:
                if stale:
                    continue
                raise
            if not stale:
                self.membership_cache.put_many(list(zip(keys, values)))
                if memo_fill is not None and self._vector_memo is not None:
                    self._vector_memo[memo_fill] = (list(unique_ids), values)

    # ----------------------------------------------------------- statistics
    def stats_snapshot(self) -> dict[str, object]:
        """Serving counters plus cluster fan-out and per-node statistics."""
        snapshot = super().stats_snapshot()
        snapshot["num_nodes"] = self.num_nodes
        snapshot["max_inflight_queries"] = self.max_inflight_queries
        if self.sharded_store is not None:
            snapshot["nodes"] = self.sharded_store.partition_stats()
        return snapshot


def start_local_node(
    membership: object,
    host: str = "127.0.0.1",
    port: int = 0,
    node_id: int = 0,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    cache_size: int | None = DEFAULT_WORKER_CACHE_SIZE,
    data_dir: str | None = None,
) -> tuple[ShardNodeServer, "object"]:
    """Start a :class:`ShardNodeServer` on a daemon thread; returns (server, thread).

    The convenience entry point for examples and tests that want an
    in-process node reachable over real TCP: bind, serve in the
    background, read ``server.address``, and hand the address to
    :class:`ClusterQueryEngine` via ``addresses=[...]``.  Stop it with
    ``server.stop()`` (after closing the engine, so the node is not
    mid-request).
    """
    server = ShardNodeServer(
        node_id=node_id,
        membership=membership,
        max_frame_bytes=max_frame_bytes,
        cache_size=cache_size,
        data_dir=data_dir,
    )
    server.bind(host, port)
    thread = threading.Thread(
        target=server.serve_forever, name=f"repro-cluster-node-{node_id}", daemon=True
    )
    thread.start()
    return server, thread


def main(argv: Sequence[str] | None = None) -> int:
    """Serve one shard node over TCP from a persistent storage directory.

    ``python -m repro.serving.cluster --data-dir DIR`` boots the membership
    function from the directory's catalog (the persisted embedder drives
    :class:`~repro.core.membership.HeuristicMembership`), maps the column
    files, and serves until interrupted.  A coordinator whose
    ``data_version`` matches the catalog's never ships a hydrate frame to
    this node — the warm-restart path the storage tier exists for.
    """
    import argparse

    from repro.core.membership import HeuristicMembership

    parser = argparse.ArgumentParser(
        prog="python -m repro.serving.cluster",
        description="Serve a cluster shard node from a persistent storage directory.",
    )
    parser.add_argument(
        "--data-dir",
        required=True,
        help="storage directory written by SubjectiveDatabase.save()",
    )
    parser.add_argument("--host", default="127.0.0.1", help="listen address")
    parser.add_argument("--port", type=int, default=0, help="listen port (0 = ephemeral)")
    parser.add_argument("--node-id", type=int, default=0, help="node id reported in stats")
    parser.add_argument(
        "--cache-size",
        type=int,
        default=DEFAULT_WORKER_CACHE_SIZE,
        help="per-slice degree-vector cache entries",
    )
    options = parser.parse_args(argv)
    database = SubjectiveDatabase.open(options.data_dir)
    membership = HeuristicMembership(embedder=database.phrase_embedder)
    server = ShardNodeServer(
        node_id=options.node_id,
        membership=membership,
        cache_size=options.cache_size,
        data_dir=options.data_dir,
    )
    host, port = server.bind(options.host, options.port)
    print(
        f"node {options.node_id} serving {options.data_dir} "
        f"(data_version {server.data_version}, local_store={server.source.local_store_fresh}) "
        f"on {host}:{port}",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
