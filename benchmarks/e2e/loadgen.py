"""Load generation: one closed-loop caller, an open-loop scheduler, virtual callers.

The generator is a single process.  The in-process loops use one thread; the
gateway loops multiplex every caller over ``spec.GATEWAY_CONNECTIONS``
pipelined connections on one asyncio loop — never more threads or connections
than the sandbox has cores.

A request that raises counts as failed and contributes no latency sample: it
has missed any latency limit by definition.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Iterator, Sequence

from benchmarks.e2e.queries import Answer
from benchmarks.e2e.stats import median, percentile, tail_percentile
from repro.errors import ReproError
from repro.utils.timing import now


@dataclass
class Run:
    """What one timed loop observed."""

    latencies: list[float] = field(default_factory=list)
    served: list[tuple[str, Answer]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    first_error: str = ""
    #: Open loop only: how long after its due time each request was sent.
    lateness: list[float] = field(default_factory=list)

    def fail(self, sql: str, error: BaseException) -> None:
        self.failed += 1
        if not self.first_error:
            self.first_error = f"{type(error).__name__}: {error} [{sql}]"

    @property
    def completed(self) -> int:
        return len(self.latencies)

    @property
    def throughput(self) -> float:
        return self.completed / self.elapsed if self.elapsed > 0 else 0.0

    def to_json(self) -> dict:
        """JSON form for the pipe from a child process (lateness is not carried)."""
        return {
            "latencies": self.latencies,
            "served": [[sql, answer.to_json()] for sql, answer in self.served],
            "attempted": self.attempted,
            "failed": self.failed,
            "elapsed": self.elapsed,
            "first_error": self.first_error,
        }

    @classmethod
    def from_json(cls, document: dict) -> "Run":
        served = [(sql, Answer.from_json(answer)) for sql, answer in document["served"]]
        return cls(**{**document, "served": served})

    def latency_metrics(self) -> dict[str, tuple[float, int]]:
        """``name -> (milliseconds, sample count)`` for p50, p90 and the tail."""
        if not self.latencies:
            return {}
        count = len(self.latencies)
        return {
            "latency_p50_ms": (1e3 * median(self.latencies), count),
            "latency_p90_ms": (1e3 * percentile(self.latencies, 90.0), count),
            "latency_tail_ms": (1e3 * percentile(self.latencies, tail_percentile(count)), count),
        }


def closed_loop(execute: Callable[[str], object], stream: Iterator[str],
                seconds: float | None = None, count: int | None = None,
                run: Run | None = None) -> Run:
    """One caller: the next query is sent when the previous answer arrived.

    ``execute`` returns an engine ``QueryResult``.  Stops after ``seconds`` of
    wall time or ``count`` queries, whichever is given; the stream decides
    what is asked.  Accumulates into ``run`` when one is passed.
    """
    run = Run() if run is None else run
    started = now()
    sent_queries = 0
    while count is None or sent_queries < count:
        sent = now()
        if seconds is not None and sent - started >= seconds:
            break
        sql = next(stream)
        sent_queries += 1
        run.attempted += 1
        try:
            result = execute(sql)
        except ReproError as error:
            run.fail(sql, error)
            continue
        run.latencies.append(now() - sent)
        run.served.append((sql, Answer.of_result(result)))
    run.elapsed += now() - started
    return run


def poisson_due_times(rng: random.Random, rate: float, seconds: float) -> list[float]:
    """Arrival offsets of a Poisson process of ``rate``/s over ``seconds``."""
    due, clock = [], 0.0
    while True:
        clock += rng.expovariate(rate)
        if clock >= seconds:
            return due
        due.append(clock)


Query = Callable[[str], Awaitable[object]]


async def open_loop(connections: Sequence[Query], schedule: Sequence[str],
                    due_times: Sequence[float],
                    clock: Callable[[], float] = now,
                    sleep: Callable[[float], Awaitable[None]] = asyncio.sleep) -> Run:
    """Send ``schedule[i]`` at ``due_times[i]`` whatever the system is doing.

    Latency is timed from the **due** time, not the send time: if the
    generator (or a stalled connection) delays a send, the wait that imposes
    is part of what the caller experienced.  How late each send ran is
    reported separately in ``lateness`` so a slow generator is visible.
    """
    run = Run()
    origin = clock()

    async def one(index: int, sql: str, due: float) -> None:
        try:
            reply = await connections[index % len(connections)](sql)
        except ReproError as error:
            run.fail(sql, error)
            return
        run.latencies.append(clock() - due)
        run.served.append((sql, Answer.of_reply(reply)))

    tasks = []
    for index, (sql, offset) in enumerate(zip(schedule, due_times)):
        due = origin + offset
        wait = due - clock()
        if wait > 0:
            await sleep(wait)
        run.lateness.append(max(0.0, clock() - due))
        run.attempted += 1
        tasks.append(asyncio.ensure_future(one(index, sql, due)))
    await asyncio.gather(*tasks)
    run.elapsed = clock() - origin
    return run


async def virtual_callers(connections: Sequence[Query], schedules: Sequence[Sequence[str]],
                          seconds: float) -> Run:
    """Closed loop with ``len(schedules)`` callers sharing the connections.

    Each caller awaits its reply before its next request and stops at the
    deadline (or when its schedule is spent).
    """
    run = Run()
    started = now()
    deadline = started + seconds

    async def caller(index: int, schedule: Sequence[str]) -> None:
        query = connections[index % len(connections)]
        for sql in schedule:
            sent = now()
            if sent >= deadline:
                return
            run.attempted += 1
            try:
                reply = await query(sql)
            except ReproError as error:
                run.fail(sql, error)
                continue
            run.latencies.append(now() - sent)
            run.served.append((sql, Answer.of_reply(reply)))

    await asyncio.gather(*(caller(i, schedule) for i, schedule in enumerate(schedules)))
    run.elapsed = now() - started
    return run
