"""The async serving gateway: many concurrent clients, one coordinator.

Every layer below this one scales *execution* — columnar kernels, entity
shards, TCP cluster nodes — but none of them is a front door:
nothing accepts many concurrent client connections and turns their
overlapping traffic into the batched, cache-friendly query stream those
layers were built for.  :class:`ServingGateway` is that front door, an
``asyncio`` server speaking the frame codec of
:mod:`repro.serving.protocol` over asyncio streams:

* **request coalescing** — identical in-flight requests (keyed on
  :func:`repro.serving.plans.normalize_sql`, the exact key the plan cache
  uses) collapse into one execution shared by every waiter, so a popular
  query arriving from a hundred clients costs one ranking pass;
* **micro-batching** — requests arriving within a small window are executed
  as one :meth:`~repro.serving.engine.SubjectiveQueryEngine.run_batch`
  call: one engine-thread hop per flush, and the batch's queries share the
  engine's plan and candidate caches;
* **admission control** — a per-connection in-flight cap and a global
  queue-depth bound, enforced by the pure :class:`AdmissionController`;
  a request over either bound is refused *before* any work with a typed
  :data:`~repro.serving.protocol.STATUS_OVERLOADED` frame
  (:class:`~repro.serving.protocol.GatewayOverloadedError` client-side) —
  the gateway never queues unboundedly and an *accepted* request is never
  dropped;
* **live statistics** — a ``stats`` opcode answering from the event loop
  (it stays responsive while the engine thread is saturated) with gateway
  counters, p50/p99 latency, and the engine's ``stats_snapshot()`` /
  ``partition_stats()`` refreshed opportunistically on the engine thread.

The engine itself runs on one dedicated executor thread — every engine in
the stack is single-threaded by design — so the event loop never blocks on
query execution and the engine never sees concurrent calls.  Responses are
matched to requests by an echoed ``request_id``, so clients may pipeline.

Results are byte-identical to calling the engine directly: coalescing only
shares a response all waiters would have computed, micro-batching is the
engine's own ``run_batch`` (one ``execute`` per query, in order), and
serialization round-trips every float through ``repr`` (exact for Python
floats).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import socket
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.processor import QueryResult
from repro.obs.metrics import MetricsRegistry, cell_property
from repro.obs.trace import (
    SpanRecord,
    TraceContext,
    activate,
    current_wire_trace,
    global_trace_store,
    new_id,
    tracing_enabled,
)
from repro.serving.plans import normalize_sql
from repro.serving.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    OP_GATEWAY_STATS,
    OP_QUERY,
    OP_TRACES,
    Reader,
    RpcError,
    encode_gateway_error,
    encode_gateway_overload,
    encode_gateway_query,
    encode_gateway_response,
    encode_gateway_stats_request,
    encode_gateway_traces_request,
    frame_bytes,
    read_gateway_response,
    read_trace_field,
    recv_frame,
    send_frame,
)
from repro.utils.timing import monotonic, now

_HEADER_SIZE = 4

#: Default micro-batch accumulation window in seconds: long enough to
#: gather concurrent arrivals into one ``run_batch``, short enough to be
#: invisible next to query execution time.
DEFAULT_BATCH_WINDOW = 0.002

#: Default maximum queries folded into one ``run_batch`` call.
DEFAULT_MAX_BATCH_SIZE = 32

#: Default per-connection in-flight request cap.
DEFAULT_MAX_INFLIGHT_PER_CONNECTION = 64

#: Default global bound on admitted-but-unanswered requests.
DEFAULT_MAX_QUEUE_DEPTH = 1024

#: Latency samples kept for the p50/p99 estimates in ``stats``.
_LATENCY_WINDOW = 8192

#: Minimum seconds between engine statistics refreshes.
_SNAPSHOT_MIN_AGE = 0.2


def coalescing_key(sql: str, top_k: int | None = None) -> tuple[str, int | None]:
    """The in-flight dedup key of one query request.

    Two requests coalesce **iff** their normalized SQL
    (:func:`repro.serving.plans.normalize_sql` — whitespace and keyword
    case collapse, quoted predicates stay byte-exact) and their explicit
    ``top_k`` are identical; this is the same key family the plan cache
    uses, so coalesced requests are exactly the ones that would have
    produced identical responses anyway.
    """
    return (normalize_sql(sql), top_k)


class AdmissionController:
    """Pure admission bookkeeping: a global bound and a per-connection bound.

    Kept free of any asyncio or transport state so its invariants can be
    property-tested directly (hypothesis drives admit/release sequences in
    ``tests/test_properties.py``): the global queue depth never exceeds
    ``max_queue_depth``, no connection ever holds more than
    ``max_inflight_per_connection`` admissions, and every admission is
    accounted for until released — admission control can refuse new work
    but can never lose accepted work.
    """

    def __init__(self, max_queue_depth: int, max_inflight_per_connection: int) -> None:
        if max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be positive, got {max_queue_depth}")
        if max_inflight_per_connection < 1:
            raise ValueError(
                f"max_inflight_per_connection must be positive, "
                f"got {max_inflight_per_connection}"
            )
        self.max_queue_depth = max_queue_depth
        self.max_inflight_per_connection = max_inflight_per_connection
        self._per_connection: dict[object, int] = {}
        self._total = 0

    @property
    def queue_depth(self) -> int:
        """Admitted requests not yet released (the global queue depth)."""
        return self._total

    def inflight_of(self, connection_id: object) -> int:
        """Admitted requests of one connection not yet released."""
        return self._per_connection.get(connection_id, 0)

    def try_admit(self, connection_id: object) -> str | None:
        """Admit one request, or return the rejection reason.

        ``None`` means admitted (the caller owes exactly one
        :meth:`release`); ``"gateway"`` means the global queue depth is
        saturated, ``"connection"`` means this connection's in-flight cap
        is.  Rejection changes no state.
        """
        if self._total >= self.max_queue_depth:
            return "gateway"
        if self._per_connection.get(connection_id, 0) >= self.max_inflight_per_connection:
            return "connection"
        self._per_connection[connection_id] = self._per_connection.get(connection_id, 0) + 1
        self._total += 1
        return None

    def release(self, connection_id: object) -> None:
        """Release one previously admitted request of ``connection_id``.

        Releasing more than was admitted is a caller bug and raises —
        silent underflow would let the gateway exceed its bounds later.
        """
        count = self._per_connection.get(connection_id, 0)
        if count <= 0:
            raise ValueError(f"release without admission for connection {connection_id!r}")
        if count == 1:
            del self._per_connection[connection_id]
        else:
            self._per_connection[connection_id] = count - 1
        self._total -= 1


class GatewayCounters:
    """Aggregate gateway counters, all monotone, surfaced by ``stats``.

    Storage is registry-backed :class:`repro.obs.metrics.Counter` cells:
    attribute *reads* return plain ``int`` snapshots (``before =
    counters.requests`` must never alias a mutating cell) while attribute
    *writes* land in the registered cell, so ``as_dict()`` and the
    registry's ``snapshot()`` can never disagree.  Pass ``registry`` to
    register the cells in a shared :class:`~repro.obs.MetricsRegistry`
    (the gateway passes its own); by default the counters own a private
    one.
    """

    _CELL_NAMES = (
        "connections",
        "requests",
        "responses",
        "errors",
        "stats_requests",
        "trace_requests",
        "coalesced_hits",
        "batches",
        "batched_queries",
        "max_batch_size",
        "shared_batch_queries",
        "rejected_gateway",
        "rejected_connection",
    )

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.metrics = registry if registry is not None else MetricsRegistry()
        for name in self._CELL_NAMES:
            setattr(self, f"_{name}_cell", self.metrics.counter(name))

    connections = cell_property("_connections_cell")
    requests = cell_property("_requests_cell")
    responses = cell_property("_responses_cell")
    errors = cell_property("_errors_cell")
    stats_requests = cell_property("_stats_requests_cell")
    trace_requests = cell_property("_trace_requests_cell")
    coalesced_hits = cell_property("_coalesced_hits_cell")
    batches = cell_property("_batches_cell")
    batched_queries = cell_property("_batched_queries_cell")
    max_batch_size = cell_property("_max_batch_size_cell")
    shared_batch_queries = cell_property("_shared_batch_queries_cell")
    rejected_gateway = cell_property("_rejected_gateway_cell")
    rejected_connection = cell_property("_rejected_connection_cell")

    @property
    def rejections(self) -> int:
        """Total typed admission-control rejections."""
        return self.rejected_gateway + self.rejected_connection

    @property
    def shared_requests(self) -> int:
        """Requests served by shared work rather than a private execution.

        Coalesced waiters (they never reached the engine) plus leaders that
        executed inside a micro-batch of at least two queries (they shared
        one engine-thread hop and the engine's caches in ``run_batch``).
        """
        return self.coalesced_hits + self.shared_batch_queries

    def as_dict(self) -> dict[str, int]:
        """The counters plus derived totals, as one flat JSON-safe dict."""
        return {
            "connections": self.connections,
            "requests": self.requests,
            "responses": self.responses,
            "errors": self.errors,
            "stats_requests": self.stats_requests,
            "trace_requests": self.trace_requests,
            "coalesced_hits": self.coalesced_hits,
            "batches": self.batches,
            "batched_queries": self.batched_queries,
            "max_batch_size": self.max_batch_size,
            "shared_batch_queries": self.shared_batch_queries,
            "shared_requests": self.shared_requests,
            "rejected_gateway": self.rejected_gateway,
            "rejected_connection": self.rejected_connection,
            "rejections": self.rejections,
        }


@dataclass
class _PendingQuery:
    """One admitted query awaiting execution (the leader of its key)."""

    key: tuple[str, int | None]
    sql: str
    top_k: int | None
    future: asyncio.Future = field(repr=False)
    trace: TraceContext | None = None


def serialize_result(result: QueryResult) -> dict[str, object]:
    """One :class:`~repro.core.processor.QueryResult` as a JSON-safe dict.

    Scores and degrees serialize through ``repr`` (what :mod:`json` uses
    for floats), which round-trips every Python float exactly — the
    differential suite compares transported responses bit-for-bit against
    direct engine execution.
    """
    return {
        "sql": result.sql,
        "entity_ids": [str(entity.entity_id) for entity in result.entities],
        "scores": [entity.score for entity in result.entities],
        "predicate_degrees": [dict(entity.predicate_degrees) for entity in result.entities],
    }


async def read_frame_async(reader: asyncio.StreamReader, max_frame_bytes: int) -> bytes | None:
    """Read one length-prefixed frame from an asyncio stream.

    The asyncio analog of :func:`repro.serving.protocol.recv_frame`: same
    framing, same refusal of oversized frames before any payload read,
    ``None`` on clean EOF between frames, :class:`RpcError` on EOF inside
    one.
    """
    try:
        header = await reader.readexactly(_HEADER_SIZE)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise RpcError("connection closed mid-frame") from error
    length = int.from_bytes(header, "big")
    if length > max_frame_bytes:
        raise RpcError(f"peer announced a {length}-byte frame (limit {max_frame_bytes} bytes)")
    if length == 0:
        return b""
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise RpcError("connection closed mid-frame") from error


class ServingGateway:
    """Asyncio front door over one serving engine.

    Parameters
    ----------
    engine:
        Any serving engine (:class:`~repro.serving.SubjectiveQueryEngine`
        or a subclass; a :class:`~repro.serving.ClusterQueryEngine` makes
        micro-batches overlap node fan-outs).  The gateway owns the
        engine's execution — all queries funnel through one executor
        thread — but not its lifecycle: closing the gateway does not close
        the engine.
    coalesce:
        Dedup identical in-flight requests into one shared execution
        (``False`` gives every request a private execution — the naive
        baseline the gateway benchmark measures against).
    batch_window:
        Seconds to accumulate arrivals before executing them as one
        ``run_batch`` (0 executes each flush immediately; arrivals during
        an ongoing execution still accumulate into the next batch).
    max_batch_size:
        Maximum queries folded into one ``run_batch`` call (1 disables
        micro-batching).
    max_inflight_per_connection / max_queue_depth:
        The admission-control bounds (see :class:`AdmissionController`).
    max_frame_bytes:
        Frame-size ceiling, both directions.
    """

    def __init__(
        self,
        engine,
        coalesce: bool = True,
        batch_window: float = DEFAULT_BATCH_WINDOW,
        max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
        max_inflight_per_connection: int = DEFAULT_MAX_INFLIGHT_PER_CONNECTION,
        max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be positive, got {max_batch_size}")
        if batch_window < 0:
            raise ValueError(f"batch_window must be non-negative, got {batch_window}")
        self.engine = engine
        self.coalesce = coalesce
        self.batch_window = batch_window
        self.max_batch_size = max_batch_size
        self.max_frame_bytes = max_frame_bytes
        self.admission = AdmissionController(max_queue_depth, max_inflight_per_connection)
        self.metrics = MetricsRegistry()
        self.counters = GatewayCounters(registry=self.metrics)
        self.latency_histogram = self.metrics.histogram(
            "request_latency_seconds", help="Per-request gateway latency"
        )
        self.metrics.func_gauge(
            "queue_depth",
            lambda: self.admission.queue_depth,
            help="Admitted requests not yet released",
        )
        #: One thread: the engine is single-threaded by design, and running
        #: it off the event loop is what keeps ``stats`` responsive while a
        #: batch executes.
        self.engine_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-gateway-engine"
        )
        self._inflight: dict[tuple[str, int | None], asyncio.Future] = {}
        self._backlog: deque[_PendingQuery] = deque()
        self._latencies: deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self._connection_ids = itertools.count(1)
        self._server: asyncio.AbstractServer | None = None
        self._connection_tasks: set[asyncio.Task] = set()
        self._batch_task: asyncio.Task | None = None
        self._wake: asyncio.Event | None = None
        self._closed: asyncio.Event | None = None
        self._engine_busy = False
        self._refreshing = False
        self._engine_snapshot: dict[str, object] | None = None
        self._snapshot_time = 0.0

    # ------------------------------------------------------------- lifecycle
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise RpcError("gateway is already serving")
        loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._closed = asyncio.Event()
        self._server = await asyncio.start_server(self._handle_connection, host, port)
        self._batch_task = loop.create_task(self._batch_loop())
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        """The bound listener address."""
        if self._server is None:
            raise RpcError("gateway is not serving; call start() first")
        return self._server.sockets[0].getsockname()[:2]

    async def wait_closed(self) -> None:
        """Block until :meth:`stop` completes (for thread-hosted loops)."""
        if self._closed is None:
            raise RpcError("gateway is not serving; call start() first")
        await self._closed.wait()

    async def stop(self) -> None:
        """Stop serving: close the listener, drain nothing, fail the backlog.

        Idempotent.  Outstanding admitted requests fail with a transported
        shutdown error rather than hanging; the engine executor is shut
        down without waiting for queued work (the failing futures are the
        source of truth).
        """
        if self._server is None:
            return
        server, self._server = self._server, None
        server.close()
        await server.wait_closed()
        if self._batch_task is not None:
            self._batch_task.cancel()
            try:
                await self._batch_task
            except asyncio.CancelledError:
                pass
            self._batch_task = None
        shutdown = RpcError("gateway shut down before the request completed")
        for item in self._backlog:
            if not item.future.done():
                item.future.set_exception(shutdown)
        self._backlog.clear()
        for future in self._inflight.values():
            if not future.done():
                future.set_exception(shutdown)
        self._inflight.clear()
        for task in list(self._connection_tasks):
            task.cancel()
        if self._connection_tasks:
            await asyncio.gather(*list(self._connection_tasks), return_exceptions=True)
        self._connection_tasks.clear()
        self.engine_executor.shutdown(wait=False)
        if self._closed is not None:
            self._closed.set()

    # ------------------------------------------------------------ connections
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection: read frames, spawn per-request tasks.

        Requests are served concurrently (a pipelined connection's cheap
        stats probe must not wait behind its queued queries), responses are
        serialized through a per-connection write lock, and the admission
        ledger is balanced in every exit path.
        """
        self.counters.connections += 1
        connection_id = next(self._connection_ids)
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        loop = asyncio.get_running_loop()
        this_task = asyncio.current_task()
        if this_task is not None:
            self._connection_tasks.add(this_task)
        try:
            while True:
                payload = await read_frame_async(reader, self.max_frame_bytes)
                if payload is None:
                    break
                task = loop.create_task(
                    self._serve_request(payload, connection_id, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (RpcError, OSError, ConnectionError):
            pass
        finally:
            if this_task is not None:
                self._connection_tasks.discard(this_task)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass

    async def _write_frame(
        self, writer: asyncio.StreamWriter, lock: asyncio.Lock, payload: bytes
    ) -> None:
        """Write one response frame under the connection's write lock."""
        async with lock:
            writer.write(frame_bytes(payload, self.max_frame_bytes))
            try:
                await writer.drain()
            except (OSError, ConnectionError):
                pass  # client vanished; its admission slot is still released

    async def _serve_request(
        self,
        payload: bytes,
        connection_id: int,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
    ) -> None:
        """Dispatch one request frame and write its response."""
        try:
            reader = Reader(payload)
            opcode = reader.read_u8()
            request_id = reader.read_u32()
        except RpcError:
            self.counters.errors += 1
            await self._write_frame(
                writer, lock, encode_gateway_error(0, "malformed request frame")
            )
            return
        if opcode == OP_GATEWAY_STATS:
            self.counters.stats_requests += 1
            body = json.dumps(await self._stats_payload())
            await self._write_frame(writer, lock, encode_gateway_response(request_id, body))
            return
        if opcode == OP_TRACES:
            self.counters.trace_requests += 1
            try:
                trace_id = reader.read_u64()
                limit = reader.read_u32()
            except RpcError as error:
                self.counters.errors += 1
                await self._write_frame(
                    writer,
                    lock,
                    encode_gateway_error(request_id, f"malformed traces frame ({error})"),
                )
                return
            body = json.dumps(await self._traces_payload(trace_id, limit))
            await self._write_frame(writer, lock, encode_gateway_response(request_id, body))
            return
        if opcode != OP_QUERY:
            self.counters.errors += 1
            await self._write_frame(
                writer, lock, encode_gateway_error(request_id, f"unknown opcode {opcode}")
            )
            return
        try:
            sql = reader.read_str()
            top_k = reader.read_u32() if reader.read_u8() else None
            wire = read_trace_field(reader)
        except RpcError as error:
            self.counters.errors += 1
            await self._write_frame(
                writer, lock, encode_gateway_error(request_id, f"malformed query frame ({error})")
            )
            return
        self.counters.requests += 1
        reason = self.admission.try_admit(connection_id)
        if reason is not None:
            if reason == "gateway":
                self.counters.rejected_gateway += 1
                message = (
                    f"gateway overloaded: global queue depth "
                    f"{self.admission.max_queue_depth} saturated"
                )
            else:
                self.counters.rejected_connection += 1
                message = (
                    f"connection overloaded: in-flight cap "
                    f"{self.admission.max_inflight_per_connection} reached"
                )
            await self._write_frame(writer, lock, encode_gateway_overload(request_id, message))
            return
        trace_ctx: TraceContext | None = None
        if tracing_enabled():
            # The request's root span: continue a trace the client stamped
            # on the frame, or mint a fresh one at the front door.
            if wire is not None:
                trace_ctx = TraceContext(trace_id=wire[0], span_id=new_id(), parent_id=wire[1])
            else:
                trace_ctx = TraceContext.new_root()
        started = now()
        try:
            try:
                body = await self._submit(sql, top_k, trace_ctx)
            finally:
                # The admission slot guards queued *work*, which ends when
                # _submit returns or fails — release before the response
                # write, otherwise a client that already received its
                # response could still observe itself occupying the queue.
                self.admission.release(connection_id)
        except Exception as error:  # noqa: BLE001 - transported to the client
            self.counters.errors += 1
            await self._write_frame(
                writer,
                lock,
                encode_gateway_error(request_id, f"{type(error).__name__}: {error}"),
            )
        else:
            self.counters.responses += 1
            elapsed = now() - started
            self._latencies.append(elapsed)
            self.latency_histogram.observe(elapsed)
            if trace_ctx is not None:
                # Recorded directly (not via record_span) so the span id is
                # exactly the one batch-execution spans parented onto.
                global_trace_store().record(
                    SpanRecord(
                        name="gateway_request",
                        trace_id=trace_ctx.trace_id,
                        span_id=trace_ctx.span_id,
                        parent_id=trace_ctx.parent_id,
                        start=started,
                        duration=elapsed,
                        attrs={"sql": sql},
                    )
                )
            await self._write_frame(writer, lock, encode_gateway_response(request_id, body))

    # ---------------------------------------------------- coalescing + batching
    async def _submit(
        self, sql: str, top_k: int | None, trace: TraceContext | None = None
    ) -> str:
        """Resolve one admitted query to its serialized response body.

        The first request of a key becomes the leader: it enters the
        backlog and its future resolves when a micro-batch executes it.
        While that future is unresolved, every further request of the same
        key awaits it instead of entering the backlog — one execution,
        many responses.
        """
        loop = asyncio.get_running_loop()
        if self.coalesce:
            key = coalescing_key(sql, top_k)
            shared = self._inflight.get(key)
            if shared is not None:
                self.counters.coalesced_hits += 1
                return await asyncio.shield(shared)
            future = loop.create_future()
            self._inflight[key] = future
        else:
            key = (object(), None)  # unique, never matched
            future = loop.create_future()
        self._backlog.append(
            _PendingQuery(key=key, sql=sql, top_k=top_k, future=future, trace=trace)
        )
        if self._wake is not None:
            self._wake.set()
        return await asyncio.shield(future)

    async def _batch_loop(self) -> None:
        """Accumulate backlog into micro-batches and run them on the engine.

        One flush takes up to ``max_batch_size`` queries after waiting
        ``batch_window`` from the first arrival; while the engine thread
        executes a flush, new arrivals keep accumulating, so under load the
        window widens itself to the engine's pace (natural adaptive
        batching) without any extra latency when idle.
        """
        assert self._wake is not None
        while True:
            await self._wake.wait()
            self._wake.clear()
            if not self._backlog:
                continue
            if self.batch_window > 0:
                await asyncio.sleep(self.batch_window)
            items = [
                self._backlog.popleft()
                for _ in range(min(self.max_batch_size, len(self._backlog)))
            ]
            if self._backlog:
                self._wake.set()
            if not items:
                continue
            self._engine_busy = True
            try:
                outcomes = await asyncio.get_running_loop().run_in_executor(
                    self.engine_executor, self._execute_batch, items
                )
            except Exception as error:  # noqa: BLE001 - executor infrastructure failure
                outcomes = [error] * len(items)
            finally:
                self._engine_busy = False
            self.counters.batches += 1
            self.counters.batched_queries += len(items)
            self.counters.max_batch_size = max(self.counters.max_batch_size, len(items))
            if len(items) >= 2:
                self.counters.shared_batch_queries += len(items)
            for item, outcome in zip(items, outcomes):
                if self.coalesce:
                    self._inflight.pop(item.key, None)
                if item.future.done():
                    continue
                if isinstance(outcome, Exception):
                    item.future.set_exception(outcome)
                else:
                    item.future.set_result(outcome)

    def _execute_batch(self, items: Sequence[_PendingQuery]) -> list[object]:
        """Engine-thread execution of one flush; per-item outcomes, no raise.

        Items sharing a ``top_k`` execute as one ``run_batch`` call (the
        micro-batch proper); a failure inside a group falls back to
        per-query execution so one malformed query cannot poison its
        batchmates.  Returns one serialized-JSON body or one exception per
        item, in item order.
        """
        outcomes: list[object] = [None] * len(items)
        groups: dict[int | None, list[int]] = {}
        for index, item in enumerate(items):
            groups.setdefault(item.top_k, []).append(index)
        for top_k, indexes in groups.items():
            ran_group = False
            if len(indexes) > 1:
                # One run_batch serves the group; its spans parent onto the
                # first traced item's request context.
                group_trace = next(
                    (items[index].trace for index in indexes if items[index].trace is not None),
                    None,
                )
                scope = activate(group_trace) if group_trace is not None else nullcontext()
                try:
                    with scope:
                        batch = self.engine.run_batch(
                            [items[index].sql for index in indexes], top_k=top_k
                        )
                except Exception:  # noqa: BLE001 - isolate the failing query below
                    ran_group = False
                else:
                    for index, result in zip(indexes, batch.results):
                        outcomes[index] = json.dumps(serialize_result(result))
                    ran_group = True
            if not ran_group:
                for index in indexes:
                    item = items[index]
                    scope = activate(item.trace) if item.trace is not None else nullcontext()
                    try:
                        with scope:
                            result = self.engine.execute(item.sql, top_k=top_k)
                    except Exception as error:  # noqa: BLE001 - transported per item
                        outcomes[index] = error
                    else:
                        outcomes[index] = json.dumps(serialize_result(result))
        self._maybe_refresh_snapshot()
        return outcomes

    # ------------------------------------------------------------- statistics
    def _maybe_refresh_snapshot(self) -> None:
        """Refresh the cached engine statistics (engine thread only)."""
        if monotonic() - self._snapshot_time < _SNAPSHOT_MIN_AGE:
            return
        self._refresh_snapshot()

    def _refresh_snapshot(self) -> None:
        """Collect ``stats_snapshot()`` and ``partition_stats()`` (engine thread)."""
        snapshot: dict[str, object] = {"stats": self.engine.stats_snapshot()}
        partition_stats = getattr(self.engine, "partition_stats", None)
        if partition_stats is not None:
            snapshot["partitions"] = partition_stats()
        self._engine_snapshot = snapshot
        self._snapshot_time = monotonic()

    def _latency_percentiles(self) -> dict[str, float]:
        """p50/p99 over the recent latency window, in milliseconds."""
        if not self._latencies:
            return {"latency_p50_ms": 0.0, "latency_p99_ms": 0.0}
        ordered = sorted(self._latencies)
        p50 = ordered[(len(ordered) - 1) // 2]
        p99 = ordered[min(len(ordered) - 1, (len(ordered) * 99) // 100)]
        return {
            "latency_p50_ms": round(p50 * 1000, 3),
            "latency_p99_ms": round(p99 * 1000, 3),
        }

    async def _stats_payload(self) -> dict[str, object]:
        """The ``stats`` response body: gateway counters + engine statistics.

        Answers from the event loop: when the engine thread is idle the
        engine snapshot is refreshed first (live ``partition_stats()``);
        when it is busy executing a batch, the most recent snapshot is
        served instead — the stats opcode must stay responsive under
        exactly the overload conditions it exists to observe.  A snapshot
        served while the engine was busy carries ``"stale": true`` plus
        its age in seconds, so an operator reading stats under saturation
        knows the engine section describes a recent past, not the present.
        """
        busy = self._engine_busy or self._refreshing
        if not busy:
            self._refreshing = True
            try:
                await asyncio.get_running_loop().run_in_executor(
                    self.engine_executor, self._maybe_refresh_snapshot
                )
            finally:
                self._refreshing = False
        gateway: dict[str, object] = dict(self.counters.as_dict())
        gateway["queue_depth"] = self.admission.queue_depth
        gateway["max_queue_depth"] = self.admission.max_queue_depth
        gateway["max_inflight_per_connection"] = self.admission.max_inflight_per_connection
        gateway["inflight_keys"] = len(self._inflight)
        gateway["backlog"] = len(self._backlog)
        gateway.update(self._latency_percentiles())
        engine: dict[str, object] | None = self._engine_snapshot
        if engine is not None:
            engine = dict(engine)
            engine["stale"] = busy
            engine["snapshot_age_seconds"] = round(max(0.0, monotonic() - self._snapshot_time), 6)
        return {"gateway": gateway, "engine": engine}

    async def _traces_payload(self, trace_id: int = 0, limit: int = 0) -> list[dict]:
        """The ``traces`` response body: local spans plus remote fleet spans.

        Coordinator-side spans come straight from the process-global
        :class:`~repro.obs.trace.TraceStore`; when the engine exposes a
        remote collector (``node_traces`` on the cluster store) and the
        engine thread is idle, the fleet's spans are fetched through the
        engine executor and appended — one flat list covering the whole
        distributed query.
        """
        records = [record.as_dict() for record in global_trace_store().spans(trace_id, limit)]
        store = getattr(self.engine, "sharded_store", None)
        collector = getattr(store, "node_traces", None)
        if collector is not None and not self._engine_busy:
            try:
                remote = await asyncio.get_running_loop().run_in_executor(
                    self.engine_executor, lambda: collector(trace_id, limit)
                )
            except Exception:  # noqa: BLE001 - remote trace stores are best-effort
                remote = []
            records.extend(remote)
        return records

    def stats_snapshot(self) -> dict[str, object]:
        """Gateway counters as one dict (in-process convenience, no RPC)."""
        snapshot: dict[str, object] = dict(self.counters.as_dict())
        snapshot["queue_depth"] = self.admission.queue_depth
        snapshot.update(self._latency_percentiles())
        return snapshot


# --------------------------------------------------------------------------
# Clients
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GatewayReply:
    """One decoded gateway query response."""

    sql: str
    entity_ids: list[str]
    scores: list[float]
    predicate_degrees: list[dict[str, float]]

    @classmethod
    def from_json(cls, body: str) -> "GatewayReply":
        """Decode one response body produced by :func:`serialize_result`."""
        decoded = json.loads(body)
        return cls(
            sql=decoded["sql"],
            entity_ids=list(decoded["entity_ids"]),
            scores=list(decoded["scores"]),
            predicate_degrees=list(decoded["predicate_degrees"]),
        )


class AsyncGatewayClient:
    """A pipelining asyncio gateway client.

    Every request carries a fresh id and registers a future; one reader
    task resolves futures as response frames arrive, in whatever order the
    gateway finishes them.  ``query`` calls may therefore overlap freely —
    ``asyncio.gather`` over many ``query`` coroutines pipelines them on
    the one connection.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self.max_frame_bytes = max_frame_bytes
        self._ids = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> "AsyncGatewayClient":
        """Open a connection to a gateway at ``(host, port)``."""
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, max_frame_bytes=max_frame_bytes)

    async def _read_loop(self) -> None:
        """Resolve pending futures from arriving response frames."""
        failure: Exception | None = None
        try:
            while True:
                payload = await read_frame_async(self._reader, self.max_frame_bytes)
                if payload is None:
                    failure = RpcError("gateway closed the connection")
                    break
                try:
                    request_id, body = read_gateway_response(payload)
                except RpcError as error:
                    request_id = getattr(error, "request_id", None)
                    future = self._pending.pop(request_id, None)
                    if future is not None and not future.done():
                        future.set_exception(error)
                    continue
                future = self._pending.pop(request_id, None)
                if future is not None and not future.done():
                    future.set_result(body)
        except (RpcError, OSError, ConnectionError) as error:
            failure = error
        except asyncio.CancelledError:
            failure = RpcError("client closed")
        for future in self._pending.values():
            if not future.done():
                future.set_exception(failure or RpcError("connection lost"))
        self._pending.clear()

    async def _request(self, payload: bytes, request_id: int) -> str:
        """Send one framed request and await its matching response body."""
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        self._writer.write(frame_bytes(payload, self.max_frame_bytes))
        await self._writer.drain()
        return await future

    async def query(self, sql: str, top_k: int | None = None) -> GatewayReply:
        """Execute one query; raises typed errors on rejection or failure.

        When tracing is enabled client-side inside an active span, the
        request frame carries the trace field so the gateway continues the
        client's trace instead of minting a fresh root.
        """
        request_id = next(self._ids)
        body = await self._request(
            encode_gateway_query(request_id, sql, top_k, trace=current_wire_trace()),
            request_id,
        )
        return GatewayReply.from_json(body)

    async def stats(self) -> dict[str, object]:
        """Fetch the gateway's live statistics payload."""
        request_id = next(self._ids)
        body = await self._request(encode_gateway_stats_request(request_id), request_id)
        return json.loads(body)

    async def traces(self, trace_id: int = 0, limit: int = 0) -> list[dict]:
        """Fetch recorded spans (gateway-local plus remote fleet spans)."""
        request_id = next(self._ids)
        body = await self._request(
            encode_gateway_traces_request(request_id, trace_id, limit), request_id
        )
        return json.loads(body)

    async def close(self) -> None:
        """Close the connection and stop the reader task."""
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (OSError, ConnectionError):
            pass


class GatewayClient:
    """A blocking, one-request-at-a-time gateway client (examples, tests).

    Uses the synchronous frame helpers of :mod:`repro.serving.protocol`
    over a plain socket; with a single outstanding request, responses
    arrive strictly in order, so no reader task is needed.
    """

    def __init__(
        self,
        host: str,
        port: int,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        timeout: float = 30.0,
    ) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._ids = itertools.count(1)

    def _request(self, payload: bytes) -> str:
        send_frame(self._sock, payload, self.max_frame_bytes)
        response = recv_frame(self._sock, self.max_frame_bytes)
        if response is None:
            raise RpcError("gateway closed the connection")
        _, body = read_gateway_response(response)
        return body

    def query(self, sql: str, top_k: int | None = None) -> GatewayReply:
        """Execute one query; raises typed errors on rejection or failure."""
        request_id = next(self._ids)
        return GatewayReply.from_json(
            self._request(
                encode_gateway_query(request_id, sql, top_k, trace=current_wire_trace())
            )
        )

    def stats(self) -> dict[str, object]:
        """Fetch the gateway's live statistics payload."""
        return json.loads(self._request(encode_gateway_stats_request(next(self._ids))))

    def traces(self, trace_id: int = 0, limit: int = 0) -> list[dict]:
        """Fetch recorded spans (gateway-local plus remote fleet spans)."""
        return json.loads(
            self._request(encode_gateway_traces_request(next(self._ids), trace_id, limit))
        )

    def close(self) -> None:
        """Close the connection."""
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "GatewayClient":
        """Enter a ``with`` block; the connection closes on exit."""
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        """Close the connection when the ``with`` block exits."""
        self.close()


# --------------------------------------------------------------------------
# Background-thread hosting (sync callers: examples, tests, notebooks)
# --------------------------------------------------------------------------


class GatewayHandle:
    """A gateway running on its own event-loop thread.

    Produced by :func:`start_gateway`; exposes the bound address and a
    thread-safe :meth:`stop`.
    """

    def __init__(
        self,
        gateway: ServingGateway,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
        address: tuple[str, int],
    ) -> None:
        self.gateway = gateway
        self.address = address
        self._loop = loop
        self._thread = thread

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the gateway and join its loop thread (idempotent)."""
        if not self._thread.is_alive():
            return
        asyncio.run_coroutine_threadsafe(self.gateway.stop(), self._loop).result(timeout)
        self._thread.join(timeout)

    def __enter__(self) -> "GatewayHandle":
        """Enter a ``with`` block; the gateway stops on exit."""
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        """Stop the gateway when the ``with`` block exits."""
        self.stop()


def start_gateway(
    engine,
    host: str = "127.0.0.1",
    port: int = 0,
    startup_timeout: float = 10.0,
    **gateway_options,
) -> GatewayHandle:
    """Run a :class:`ServingGateway` on a daemon event-loop thread.

    The synchronous analog of ``await gateway.start(...)`` for callers
    without an event loop (examples, blocking clients, tests): returns
    once the listener is bound, with the address on the handle.  Keyword
    options are forwarded to :class:`ServingGateway`.
    """
    gateway = ServingGateway(engine, **gateway_options)
    started = threading.Event()
    state: dict[str, object] = {}

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        state["loop"] = loop

        async def main() -> None:
            try:
                await gateway.start(host, port)
                state["address"] = gateway.address
            except Exception as error:  # noqa: BLE001 - surfaced to the caller below
                state["error"] = error
                return
            finally:
                started.set()
            await gateway.wait_closed()

        try:
            loop.run_until_complete(main())
        finally:
            loop.close()

    thread = threading.Thread(target=run, name="repro-gateway", daemon=True)
    thread.start()
    if not started.wait(startup_timeout):
        raise RpcError("gateway failed to start within the startup timeout")
    error = state.get("error")
    if error is not None:
        thread.join(startup_timeout)
        raise error  # type: ignore[misc]
    return GatewayHandle(gateway, state["loop"], thread, state["address"])
