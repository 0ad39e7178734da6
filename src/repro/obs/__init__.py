"""Unified observability: metrics registry, distributed tracing, forensics.

Dependency-free subsystem threaded through every serving layer:

* :mod:`repro.obs.metrics` — typed :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` instruments in a :class:`MetricsRegistry`, with
  Prometheus-text and JSON-lines exporters.  The legacy stats dicts
  (``partition_stats()``, ``stats_snapshot()``, ``transport_counters()``)
  are thin views over the same cells.
* :mod:`repro.obs.trace` — per-query :class:`TraceContext` propagation
  (contextvars in-process, an optional trailing frame field across
  the wire) with spans collected into a ring-buffer :class:`TraceStore`
  queryable over ``OP_TRACES``.
* :mod:`repro.obs.slowlog` — a threshold-gated :class:`SlowQueryLog`
  capturing SQL, span tree, and pruning counters for tail forensics.

``docs/ARCHITECTURE.md`` § Observability documents the design;
``tools/trace_report.py`` renders exported spans as a tree.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    FuncGauge,
    Gauge,
    Histogram,
    MetricsRegistry,
    as_plain,
)
from repro.obs.slowlog import (
    SlowQueryLog,
    SlowQueryRecord,
    configure_slow_query_log,
    global_slow_query_log,
)
from repro.obs.trace import (
    SpanRecord,
    TraceContext,
    TraceStore,
    activate,
    current_context,
    current_wire_trace,
    disable_tracing,
    enable_tracing,
    global_trace_store,
    record_span,
    span,
    tracing_enabled,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "FuncGauge",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SlowQueryLog",
    "SlowQueryRecord",
    "SpanRecord",
    "TraceContext",
    "TraceStore",
    "activate",
    "as_plain",
    "configure_slow_query_log",
    "current_context",
    "current_wire_trace",
    "disable_tracing",
    "enable_tracing",
    "global_slow_query_log",
    "global_trace_store",
    "record_span",
    "span",
    "tracing_enabled",
]
