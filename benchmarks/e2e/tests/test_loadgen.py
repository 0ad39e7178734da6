"""The open-loop scheduler times from the due time and reports its own lateness."""

import asyncio
import random
from types import SimpleNamespace

import pytest

from benchmarks.e2e import loadgen
from benchmarks.e2e.stats import tail_percentile


class FakeTime:
    """A clock that only ``sleep`` and the fake connection advance."""

    def __init__(self):
        self.now = 100.0

    def clock(self):
        return self.now

    async def sleep(self, seconds):
        self.now += seconds
        await asyncio.sleep(0)  # let the requests already sent make progress


def reply():
    return SimpleNamespace(entity_ids=["e1"], scores=[0.5], predicate_degrees=[{"p": 0.5}])


def test_open_loop_times_from_due_time_and_reports_lateness():
    time = FakeTime()

    async def stalling_send(sql):
        # Every send blocks the whole generator for 0.3 s (a stalled
        # connection): later requests go out late, and their latency must
        # still count from when they were *due*, not from when they were sent.
        time.now += 0.3
        return reply()

    run = asyncio.run(loadgen.open_loop(
        [stalling_send], ["q0", "q1", "q2"], [0.0, 0.1, 0.2], time.clock, time.sleep
    ))
    assert run.attempted == run.completed == 3 and run.failed == 0
    # q0: due 0.0, sent on time, answered at 0.4 (the generator slept to 0.1 first).
    # q1: due 0.1, but the generator is only back at 0.4 -> 0.3 late, answered at 0.7.
    # q2: due 0.2, sent right after q1 -> 0.2 late, answered at 1.0.
    assert run.lateness == pytest.approx([0.0, 0.3, 0.2])
    assert run.latencies == pytest.approx([0.4, 0.6, 0.8])  # from send time: 0.4, 0.3, 0.6
    assert [sql for sql, _ in run.served] == ["q0", "q1", "q2"]


def test_open_loop_counts_refusals_as_failed_without_a_latency_sample():
    from repro.serving import GatewayOverloadedError

    time = FakeTime()

    async def refusing(sql):
        raise GatewayOverloadedError("queue full")

    run = asyncio.run(loadgen.open_loop([refusing], ["q"], [0.0], time.clock, time.sleep))
    assert (run.attempted, run.failed, run.completed) == (1, 1, 0)
    assert "GatewayOverloadedError" in run.first_error


def test_poisson_arrivals_are_seeded_and_hit_the_rate():
    due = loadgen.poisson_due_times(random.Random(5), rate=40.0, seconds=50.0)
    assert due == loadgen.poisson_due_times(random.Random(5), rate=40.0, seconds=50.0)
    assert due == sorted(due) and due[-1] < 50.0
    assert 1800 < len(due) < 2200


def test_closed_loop_stops_on_count_and_accumulates():
    result = SimpleNamespace(entities=[])
    run = loadgen.closed_loop(lambda sql: result, iter("abcdefgh"), count=3)
    loadgen.closed_loop(lambda sql: result, iter("xyz"), count=2, run=run)
    assert run.attempted == run.completed == 5
    assert [sql for sql, _ in run.served] == ["a", "b", "c", "x", "y"]
    assert loadgen.Run.from_json(run.to_json()).served == run.served


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tail_percentile(60) == 75.0
    assert tail_percentile(120) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(12) == 50.0
