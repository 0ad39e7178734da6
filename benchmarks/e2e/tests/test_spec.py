"""``BENCHMARK.json`` is the declared part of ``spec`` and meets the driver's limits."""

import json
import re

from benchmarks.e2e import spec
from benchmarks.e2e.environment import ROOT

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_is_the_declared_part_of_the_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert committed == spec.driver_declaration()


def test_declaration_meets_the_driver_limits():
    declaration = spec.driver_declaration()
    names = [entry["name"] for family in ("workloads", "end_to_end", "per_layer")
             for entry in declaration[family]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert 2 <= len(declaration["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declaration["workloads"])
    assert 1 <= len(declaration["end_to_end"]) <= 16
    assert 1 <= len(declaration["per_layer"]) <= 128
    for entry in (*declaration["end_to_end"], *declaration["per_layer"]):
        assert UNIT.fullmatch(entry["unit"]) and entry["better"] in ("lower", "higher")
    assert all(0 < entry["bound"] <= 0.25 for entry in declaration["end_to_end"])
    setup = next(e for e in declaration["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in declaration["end_to_end"])
    assert 1 <= declaration["run_seconds"] <= 60


def test_declared_time_metrics_are_measured_by_every_workload():
    # A declared metric is reported by all five workloads; a time-valued one
    # that some workload cannot measure would read as a constant 0 there.
    for metric in (*spec.END_TO_END, *spec.PER_LAYER):
        if metric.declared and metric.unit in ("s", "ms", "us"):
            assert metric.workloads == spec.ALL, metric.name
