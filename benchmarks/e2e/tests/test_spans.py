"""Self time = duration minus the interval the children cover."""

import pytest

from benchmarks.e2e import layers, spans


def span(name, span_id, parent_id, start, duration):
    return {"name": name, "trace_id": 1, "span_id": span_id, "parent_id": parent_id,
            "start": start, "duration": duration}


#  query      [0 ......................... 100]
#    plan       [0..10]
#    score            [20 ................ 90]
#      transport         [30 ........ 80]
#        node_a             [35 .. 60]            parallel, overlapping:
#        node_b                [40 ...... 75]     cover 35..75 = 40, not 25 + 35
TREE = [
    span("query", 1, 0, 0.0, 100.0),
    span("plan", 2, 1, 0.0, 10.0),
    span("score", 3, 1, 20.0, 70.0),
    span("transport", 4, 3, 30.0, 50.0),
    span("node_score", 5, 4, 35.0, 25.0),
    span("node_score_bounded", 6, 4, 40.0, 35.0),
]


def test_self_time_merges_overlapping_children():
    own = spans.self_seconds_by_name(TREE)
    assert own["query"] == pytest.approx(20.0)      # 100 - (10 + 70)
    assert own["plan"] == pytest.approx(10.0)
    assert own["score"] == pytest.approx(20.0)      # 70 - 50
    assert own["transport"] == pytest.approx(10.0)  # 50 - union(35..75)
    assert own["node_score"] == pytest.approx(25.0)


def test_children_are_clipped_to_the_parent_interval():
    rows = [span("parent", 1, 0, 10.0, 10.0), span("child", 2, 1, 5.0, 30.0)]
    assert spans.self_seconds_by_name(rows)["parent"] == 0.0
    assert spans.covered([(0.0, 4.0), (2.0, 6.0), (8.0, 9.0)], 1.0, 8.5) == pytest.approx(5.5)


def test_stage_self_times_telescope_to_the_query_wall_time():
    metrics = layers.span_metrics(TREE, wall_seconds=100.0)
    assert metrics["engine.plan_self_ms"] == pytest.approx(10e3)
    assert metrics["sharded.score_self_ms"] == pytest.approx(20e3)
    assert metrics["cluster.transport_self_ms"] == pytest.approx(10e3)
    assert metrics["cluster.node_self_ms"] == pytest.approx(60e3)  # busy time, summed
    assert metrics["obs.span_coverage_share"] == pytest.approx(0.8)
    assert metrics["obs.self_time_sum_share"] == pytest.approx(1.0)
