"""Self-time accounting over exported trace spans.

A span's **self time** is its duration minus the part of its interval that
its direct children cover.  ``tools/trace_report.py`` subtracts the *sum* of
child durations, which is the same thing for sequential children; the fleet's
``node_score*`` spans run in parallel under one ``transport`` span, so here
the children's intervals are merged first (and clipped to the parent) — two
overlapping 40 ms node spans cover 40 ms of their parent, not 80.

Span rows are the dicts ``TraceStore`` exports: ``name``, ``trace_id``,
``span_id``, ``parent_id``, ``start``, ``duration``.  All processes read the
same monotonic clock, so intervals from different processes compare.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence


def covered(intervals: Iterable[tuple[float, float]], low: float, high: float) -> float:
    """Length of ``[low, high]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = low
    for start, stop in sorted(intervals):
        start, stop = max(start, reach), min(stop, high)
        if stop > start:
            total += stop - start
            reach = stop
    return total


def self_times(spans: Sequence[dict]) -> list[tuple[dict, float]]:
    """``(span, self_seconds)`` for every span, children resolved by ``parent_id``."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        start = float(span["start"])
        children[int(span["parent_id"])].append((start, start + float(span["duration"])))
    result = []
    for span in spans:
        start, duration = float(span["start"]), float(span["duration"])
        busy = covered(children.get(int(span["span_id"]), ()), start, start + duration)
        result.append((span, max(0.0, duration - busy)))
    return result


def self_seconds_by_name(spans: Sequence[dict]) -> dict[str, float]:
    """Total self time per span name."""
    totals: dict[str, float] = defaultdict(float)
    for span, seconds in self_times(spans):
        totals[str(span["name"])] += seconds
    return dict(totals)


def durations_by_name(spans: Sequence[dict]) -> dict[str, float]:
    """Total duration per span name."""
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[str(span["name"])] += float(span["duration"])
    return dict(totals)


def named(spans: Sequence[dict], name: str) -> list[dict]:
    """Spans called ``name`` (one per traced query for ``query`` / ``gateway_request``)."""
    return [span for span in spans if span["name"] == name]
