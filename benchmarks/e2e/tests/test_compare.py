"""``compare`` verdicts: ok / worse / unresolved, and its exit status."""

import json

from benchmarks.e2e import compare, spec


def document(workload, **metrics):
    section = {"traced": False, "metrics": {
        name: {"value": value, "unit": "x", "samples": 1} for name, value in metrics.items()}}
    return {"entities": 10_000, "seconds": 10, "workloads": {workload: [section, None]}}


def side(tmp_path, name, documents):
    directory = tmp_path / name
    directory.mkdir()
    for index, content in enumerate(documents):
        (directory / f"run{index}.json").write_text(json.dumps(content))
    return directory


def verdicts(baseline, candidate):
    return {(row.workload, row.metric.name): row.verdict
            for row in compare.rows(baseline, candidate, traced=False)}


def test_within_bound_is_ok_and_beyond_is_worse():
    bound = spec.METRICS["latency_p50_ms"].bound
    inside, outside = 1 + bound - 0.01, 1 + bound + 0.01
    base = [document("cold_inproc", latency_p50_ms=100.0, throughput_qps=20.0, failed_share=0.0)]
    ok = [document("cold_inproc", latency_p50_ms=100.0 * inside, throughput_qps=20.0 * (2 - inside),
                   failed_share=0.0)]
    bad = [document("cold_inproc", latency_p50_ms=100.0 * outside,
                    throughput_qps=20.0 * (2 - outside), failed_share=0.01)]
    assert set(verdicts(base, ok).values()) == {"ok"}
    assert verdicts(base, bad) == {
        ("cold_inproc", "latency_p50_ms"): "worse",   # lower is better
        ("cold_inproc", "throughput_qps"): "worse",   # higher is better
        ("cold_inproc", "failed_share"): "worse",     # bound 0: any failure
    }


def test_spread_beyond_the_bound_is_unresolved_unless_every_run_wins():
    noisy = [document("cold_cluster", latency_p50_ms=value) for value in (60, 100, 140, 180)]
    similar = [document("cold_cluster", latency_p50_ms=value) for value in (70, 110, 150, 190)]
    faster = [document("cold_cluster", latency_p50_ms=value) for value in (30, 40, 50, 55)]
    assert verdicts(noisy, similar) == {("cold_cluster", "latency_p50_ms"): "unresolved"}
    assert verdicts(noisy, faster) == {("cold_cluster", "latency_p50_ms"): "ok"}


def test_exit_status_and_ratio_base(tmp_path, capsys):
    base = side(tmp_path, "base",
                [document("restart", save_s=4.0), document("restart", save_s=4.1)])
    same = side(tmp_path, "same", [document("restart", save_s=4.05)])
    slow = side(tmp_path, "slow", [document("restart", save_s=8.1)])
    assert compare.main([str(base), str(same)]) == 0
    assert compare.main([str(base), str(slow)]) == 1
    output = capsys.readouterr().out
    assert "2.000x of baseline" in output and "worse" in output
