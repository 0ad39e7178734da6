"""Per-query distributed tracing: contexts, spans, and the ring-buffer store.

A query acquires a :class:`TraceContext` (trace id, span id, parent id)
when it enters the gateway or an engine's ``execute``.  In-process the
context propagates through a :mod:`contextvars` variable, so nested
:func:`span` blocks parent themselves automatically; across the wire the
coordinator appends ``(trace_id, span_id)`` as an optional trailing
field on ``OP_SCORE`` / ``OP_RANK`` / ``OP_QUERY`` frames
(an untraced frame carries zero bytes for it) and the remote side
records its spans with :func:`record_span`, parented on the
coordinator's span id, into its own process-global :class:`TraceStore`.
Stores are queryable over the ``OP_TRACES`` opcode, which is how the
coordinator assembles one cross-process span tree per trace id.

Tracing is **off by default** and every instrumentation point funnels
through :func:`span`, whose disabled path is a single flag test (the
end-to-end benchmark reports the enabled cost as
``obs.trace_overhead_share``).  Enable with :func:`enable_tracing` or ``REPRO_TRACE=1``
in the environment (forked workers and spawned nodes inherit either).
"""

from __future__ import annotations

import contextvars
import json
import os
import random
import threading
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Iterator

from repro.utils.timing import now

__all__ = [
    "SpanRecord",
    "TraceContext",
    "TraceStore",
    "activate",
    "current_context",
    "disable_tracing",
    "enable_tracing",
    "global_trace_store",
    "record_span",
    "span",
    "tracing_enabled",
]

TRACE_ENV_FLAG = "REPRO_TRACE"

# 63-bit ids: always positive, always fit the wire's u64 slot, and a
# zero id can therefore mean "absent" both on the wire and in records.
_ID_BITS = 63


def new_id() -> int:
    """A fresh non-zero 63-bit random id (trace or span)."""
    while True:
        value = random.getrandbits(_ID_BITS)
        if value:
            return value


@dataclass(frozen=True, slots=True)
class TraceContext:
    """Identity of one span within one trace.

    ``trace_id`` names the query end to end; ``span_id`` names this
    stage; ``parent_id`` is the enclosing stage's span id (0 at the
    root).  Contexts are immutable — children are minted with
    :meth:`child`.
    """

    trace_id: int
    span_id: int
    parent_id: int = 0

    @classmethod
    def new_root(cls) -> "TraceContext":
        """Mint a fresh root context (new trace id, no parent)."""
        return cls(trace_id=new_id(), span_id=new_id(), parent_id=0)

    def child(self) -> "TraceContext":
        """Mint a child context: same trace, this span as parent."""
        return TraceContext(trace_id=self.trace_id, span_id=new_id(), parent_id=self.span_id)

    def wire_pair(self) -> tuple[int, int]:
        """The ``(trace_id, span_id)`` pair shipped in a frame's trace field."""
        return (self.trace_id, self.span_id)


@dataclass(slots=True)
class SpanRecord:
    """One finished span: identity, name, timing, and free-form attributes."""

    name: str
    trace_id: int
    span_id: int
    parent_id: int
    start: float
    duration: float
    attrs: dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        """JSON-safe dict (the ``OP_TRACES`` payload / export row shape)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, row: dict[str, object]) -> "SpanRecord":
        """Rebuild a record from :meth:`as_dict` output."""
        return cls(
            name=str(row["name"]),
            trace_id=int(row["trace_id"]),  # type: ignore[arg-type]
            span_id=int(row["span_id"]),  # type: ignore[arg-type]
            parent_id=int(row["parent_id"]),  # type: ignore[arg-type]
            start=float(row["start"]),  # type: ignore[arg-type]
            duration=float(row["duration"]),  # type: ignore[arg-type]
            attrs=dict(row.get("attrs") or {}),  # type: ignore[arg-type]
        )


class TraceStore:
    """Bounded ring buffer of finished :class:`SpanRecord`\\ s.

    Oldest spans fall off when ``capacity`` is exceeded — tracing is a
    diagnostic window, not an archive.  Thread-safe: gateway, engine
    thread and node serve loops all record into the same store.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._spans: deque[SpanRecord] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def record(self, record: SpanRecord) -> None:
        """Append one finished span (drops the oldest when full)."""
        with self._lock:
            self._spans.append(record)

    def spans(self, trace_id: int = 0, limit: int = 0) -> list[SpanRecord]:
        """Recorded spans, oldest first.

        ``trace_id`` filters to one trace (0 means all); ``limit`` keeps
        only the newest N matches (0 means no limit).
        """
        with self._lock:
            matched = [s for s in self._spans if not trace_id or s.trace_id == trace_id]
        if limit and len(matched) > limit:
            matched = matched[-limit:]
        return matched

    def trace_ids(self) -> list[int]:
        """Distinct trace ids currently buffered, oldest-trace first."""
        seen: dict[int, None] = {}
        with self._lock:
            for record in self._spans:
                seen.setdefault(record.trace_id, None)
        return list(seen)

    def clear(self) -> None:
        """Drop every buffered span."""
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        return len(self._spans)

    def to_json(self, trace_id: int = 0, limit: int = 0) -> str:
        """JSON array of span dicts (the ``OP_TRACES`` response payload)."""
        return json.dumps([s.as_dict() for s in self.spans(trace_id, limit)])

    def to_json_lines(self, trace_id: int = 0) -> str:
        """One span dict per line — the ``tools/trace_report.py`` input."""
        rows = [json.dumps(s.as_dict(), sort_keys=True) for s in self.spans(trace_id)]
        return "\n".join(rows) + ("\n" if rows else "")


_global_store = TraceStore()
_enabled = bool(os.environ.get(TRACE_ENV_FLAG, ""))

_current_context: contextvars.ContextVar[TraceContext | None] = contextvars.ContextVar(
    "repro_trace_context", default=None
)


def global_trace_store() -> TraceStore:
    """The process-global store every :func:`span` records into."""
    return _global_store


def tracing_enabled() -> bool:
    """Whether spans are being minted and recorded in this process."""
    return _enabled


def enable_tracing(store: TraceStore | None = None) -> None:
    """Turn span recording on (optionally swapping the global store)."""
    global _enabled, _global_store
    if store is not None:
        _global_store = store
    _enabled = True


def disable_tracing() -> None:
    """Turn span recording off (the store keeps its buffered spans)."""
    global _enabled
    _enabled = False


def current_context() -> TraceContext | None:
    """The active span's context, or ``None`` outside any span."""
    return _current_context.get()


def current_wire_trace() -> tuple[int, int] | None:
    """The ``(trace_id, span_id)`` to stamp on an outgoing frame.

    ``None`` when tracing is off or no span is active — callers pass the
    result straight to the protocol encoders' ``trace=`` keyword.
    """
    if not _enabled:
        return None
    context = _current_context.get()
    if context is None:
        return None
    return context.wire_pair()


@contextmanager
def activate(context: TraceContext) -> Iterator[TraceContext]:
    """Make ``context`` current without recording a span.

    The cross-boundary hop primitive: the gateway's engine thread
    re-activates the context minted on the asyncio side, so spans opened
    during batch execution parent onto the request's root span.
    """
    token = _current_context.set(context)
    try:
        yield context
    finally:
        _current_context.reset(token)


class _SpanHandle:
    """The live object a ``with span(...)`` block binds; mutable attrs."""

    __slots__ = ("context", "attrs")

    def __init__(self, context: TraceContext, attrs: dict[str, object]) -> None:
        self.context = context
        self.attrs = attrs

    def set(self, key: str, value: object) -> None:
        """Attach or update one attribute on the span being recorded."""
        self.attrs[key] = value


@contextmanager
def _recording_span(name: str, attrs: dict[str, object]) -> Iterator[_SpanHandle]:
    parent = _current_context.get()
    context = parent.child() if parent is not None else TraceContext.new_root()
    handle = _SpanHandle(context, attrs)
    token = _current_context.set(context)
    start = now()
    try:
        yield handle
    finally:
        duration = now() - start
        _current_context.reset(token)
        _global_store.record(
            SpanRecord(
                name=name,
                trace_id=context.trace_id,
                span_id=context.span_id,
                parent_id=context.parent_id,
                start=start,
                duration=duration,
                attrs=attrs,
            )
        )


def span(name: str, **attrs: object):
    """Open a span named ``name``; a no-op context manager when disabled.

    Usage::

        with span("score", slice_id=3):
            ...

    When tracing is enabled the block's wall time is recorded into the
    global :class:`TraceStore`, parented on the enclosing span (a fresh
    root is minted when there is none).  When disabled the cost is this
    one flag test.
    """
    if not _enabled:
        return nullcontext()
    return _recording_span(name, attrs)


def record_span(
    name: str,
    trace_id: int,
    parent_id: int,
    duration: float,
    start: float | None = None,
    **attrs: object,
) -> SpanRecord:
    """Record an already-timed span with explicit identity (wire-side).

    Shard workers and cluster nodes call this with the ``(trace_id,
    span_id)`` pair parsed off an incoming frame as ``trace_id`` /
    ``parent_id``: the remote work becomes a child of the coordinator
    span that issued the request, in the *remote* process's store.
    Recording happens regardless of the local enable flag — the
    coordinator only stamps frames when its own tracing is on, so the
    flag travels with the traffic.
    """
    record = SpanRecord(
        name=name,
        trace_id=trace_id,
        span_id=new_id(),
        parent_id=parent_id,
        start=now() - duration if start is None else start,
        duration=duration,
        attrs=attrs,
    )
    _global_store.record(record)
    return record
