"""Compare two sets of benchmark results, one row per (metric, workload).

::

    python -m benchmarks.e2e.compare BASE.json CAND.json
    python -m benchmarks.e2e.compare base_runs/ cand_runs/      # several runs a side

Each side is one results document or a directory of them (one per run).  Every
end-to-end (metric, workload) row shows both medians, the ratio **with its
base** (candidate / baseline), the bound from :mod:`benchmarks.e2e.spec` and a
verdict:

``ok``
    the candidate's median is not worse than the baseline's by more than the
    bound;
``worse``
    it is (the exit status is then 1);
``unresolved``
    the baseline's own run-to-run spread — (Q3 - Q1) / median, which needs
    several runs a side — exceeds the bound, so neither "unchanged" nor
    "worse" can be claimed; unless every candidate run beats every baseline
    run, which is ``ok``.

Informational end-to-end rows and per-layer rows (from traced passes, when both
sides have them) carry no bound and no verdict; they say where a difference
sits.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from benchmarks.e2e import spec
from benchmarks.e2e.stats import interquartile_share, median


def load(path: Path) -> list[dict]:
    """The results documents of one side."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"no results documents under {path}")
    return [json.loads(file.read_text(encoding="utf-8")) for file in files]


def values(documents: list[dict], workload: str, traced: bool, name: str) -> list[float]:
    """One metric's value in every run of a side that measured it."""
    found = []
    for document in documents:
        section = document["workloads"].get(workload, [None, None])[int(traced)]
        if section and name in section["metrics"]:
            found.append(float(section["metrics"][name]["value"]))
    return found


@dataclass
class Row:
    """One compared (metric, workload) pair."""

    workload: str
    metric: spec.Metric
    baseline: list[float]
    candidate: list[float]

    @property
    def base(self) -> float:
        return median(self.baseline)

    @property
    def new(self) -> float:
        return median(self.candidate)

    @property
    def ratio(self) -> float:
        return self.new / self.base if self.base else float("inf") if self.new else 1.0

    @property
    def worsening(self) -> float:
        """How much worse the candidate is, as a share of the baseline (<= 0: not worse)."""
        change = self.new - self.base if self.metric.better == "lower" else self.base - self.new
        return change / self.base if self.base else (float("inf") if change > 0 else 0.0)

    @property
    def spread(self) -> float | None:
        """The baseline's interquartile range over its median (needs >= 2 runs)."""
        return interquartile_share(self.baseline) if len(self.baseline) >= 2 else None

    def every_run_better(self) -> bool:
        if self.metric.better == "lower":
            return max(self.candidate) < min(self.baseline)
        return min(self.candidate) > max(self.baseline)

    @property
    def verdict(self) -> str:
        bound = self.metric.bound
        if bound is None:
            return ""
        if self.spread is not None and self.spread > bound:
            return "ok" if self.every_run_better() else "unresolved"
        return "ok" if self.worsening <= bound else "worse"


def rows(baseline: list[dict], candidate: list[dict], traced: bool) -> list[Row]:
    family = spec.PER_LAYER if traced else (*spec.END_TO_END, *spec.INFORMATIONAL)
    found = []
    for workload in spec.WORKLOADS:
        for metric in family:
            a = values(baseline, workload, traced, metric.name)
            b = values(candidate, workload, traced, metric.name)
            if a and b:
                found.append(Row(workload, metric, a, b))
    return found


def render(row: Row) -> str:
    bound = "" if row.metric.bound is None else f"{row.metric.bound:.0%}"
    spread = "" if row.spread is None else f"{row.spread:.1%}"
    return (
        f"{row.workload:<13} {row.metric.name:<34} {row.base:>14.6g} {row.new:>14.6g} "
        f"{row.metric.unit:<6} {row.ratio:>7.3f}x of baseline  {bound:>4} {spread:>7}  "
        f"{row.verdict}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.compare",
                                     description=__doc__.split("::")[0])
    parser.add_argument("baseline", type=Path, help="results document, or a directory of runs")
    parser.add_argument("candidate", type=Path, help="results document, or a directory of runs")
    arguments = parser.parse_args(argv)
    baseline, candidate = load(arguments.baseline), load(arguments.candidate)
    conditions = {(run["entities"], run["seconds"]) for run in (*baseline, *candidate)}
    if len(conditions) > 1:
        raise SystemExit(f"runs measured under different (entities, seconds): {conditions}")

    print(f"{'workload':<13} {'metric':<34} {'baseline':>14} {'candidate':>14} {'unit':<6} "
          f"{'ratio':>8}              {'bound':>5} {'spread':>7}  verdict")
    gated = rows(baseline, candidate, traced=False)
    for row in gated:
        print(render(row))
    layer_rows = rows(baseline, candidate, traced=True)
    if layer_rows:
        print("\nper-layer (no bound, no verdict):")
        for row in layer_rows:
            print(render(row))
    verdicts = [row.verdict for row in gated]
    print(f"\n{verdicts.count('ok')} ok, {verdicts.count('unresolved')} unresolved, "
          f"{verdicts.count('worse')} worse "
          f"({len(baseline)} baseline run(s), {len(candidate)} candidate run(s))")
    return 1 if "worse" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
