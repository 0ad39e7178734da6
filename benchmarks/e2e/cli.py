"""Command line of the benchmark.

::

    python -m benchmarks.e2e                        # all five workloads, tracing off
    python -m benchmarks.e2e --traced               # ... plus the traced per-layer pass
    python -m benchmarks.e2e --workload cold_inproc --seed 7
    python -m benchmarks.e2e --smoke                # 1000 entities, ~3 s per workload

Every (workload, pass) runs in its own fresh process, so ``peak_rss_mb`` and
caches never leak between them: with several to run, this process only
launches them and merges their results documents.  The PR driver calls
``--workload NAME --seed N --seconds S --trace 0|1``, which is one (workload,
pass) and runs in this process; its last stdout line is the result object the
driver parses.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from benchmarks.e2e import spec
from benchmarks.e2e.environment import (
    RESULTS_DIR,
    ROOT,
    bootstrap,
    exit_on_sigterm,
    fingerprint,
)

#: Hard stop for one (workload, pass) child launched by the all-workloads mode.
PASS_TIMEOUT_SECONDS = 170


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                     description=__doc__.split("::")[0])
    parser.add_argument("--workload", default="all", choices=("all", *spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"timed section per run (default {spec.DEFAULT_SECONDS}; "
                             f"{spec.SMOKE_SECONDS} with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 runs only the traced per-layer pass (driver contract)")
    parser.add_argument("--traced", action="store_true",
                        help="run the untraced pass and then the traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{spec.SMOKE_ENTITIES} entities: same code paths and checks")
    parser.add_argument("--out", type=Path, default=None,
                        help="results document path (default under benchmarks/e2e/results/)")
    arguments = parser.parse_args(argv)
    if arguments.seconds is None:
        arguments.seconds = spec.SMOKE_SECONDS if arguments.smoke else spec.DEFAULT_SECONDS
    if arguments.seconds <= 0:
        parser.error("--seconds must be positive")
    return arguments


def run_one(workload: str, arguments: argparse.Namespace, traced: bool) -> dict:
    """One (workload, pass) in this process; returns its results section."""
    from benchmarks.e2e import workloads

    RESULTS_DIR.mkdir(exist_ok=True)
    started = time.perf_counter()
    outcome = workloads.Outcome()
    with tempfile.TemporaryDirectory(prefix="scratch-", dir=RESULTS_DIR) as scratch:
        context = workloads.Context(
            workload=workload, seed=arguments.seed, seconds=arguments.seconds, traced=traced,
            entities=spec.SMOKE_ENTITIES if arguments.smoke else spec.DATABASE["num_entities"],
            scratch=Path(scratch),
        )
        workloads.RUNNERS[workload](context, outcome)
    attempted = max(1, outcome.attempted)
    if not traced:
        outcome.put("failed_share", outcome.failed / attempted, attempted)
    return {
        "traced": traced,
        # Shared reporting code emits e.g. cluster.* zeros on in-process
        # engines; a workload only reports the layers it exercises.
        "metrics": {name: measured for name, measured in outcome.metrics.items()
                    if workload in spec.METRICS[name].workloads},
        "attempted": attempted,
        "failed": outcome.failed,
        "correct": outcome.failed == 0,
        "notes": outcome.notes,
        "wall_s": time.perf_counter() - started,
    }


def launch(workload: str, arguments: argparse.Namespace, traced: bool) -> dict:
    """One (workload, pass) in a fresh process; returns its results section."""
    RESULTS_DIR.mkdir(exist_ok=True)
    handle, path = tempfile.mkstemp(prefix="part-", suffix=".json", dir=RESULTS_DIR)
    os.close(handle)
    command = [sys.executable, "-m", "benchmarks.e2e", "--workload", workload,
               "--seed", str(arguments.seed), "--seconds", str(arguments.seconds),
               "--trace", str(int(traced)), "--out", path]
    if arguments.smoke:
        command.append("--smoke")
    # Its own session, so that a timeout can stop the whole tree (fleet nodes,
    # gateway child) and not just the process that forked them.
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.DEVNULL,
                               start_new_session=True)
    try:
        status = process.wait(timeout=PASS_TIMEOUT_SECONDS)
        if status != 0:
            raise RuntimeError(f"{workload} (trace {int(traced)}) exited {status}")
        with open(path, encoding="utf-8") as part:
            return json.load(part)["workloads"][workload][int(traced)]
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
        os.unlink(path)


def document(arguments: argparse.Namespace, sections: dict[str, list[dict]]) -> dict:
    return {
        "benchmark": "benchmarks.e2e",
        "seed": arguments.seed,
        "seconds": arguments.seconds,
        "smoke": arguments.smoke,
        "entities": spec.SMOKE_ENTITIES if arguments.smoke else spec.DATABASE["num_entities"],
        "fingerprint": fingerprint(),
        # workload -> [untraced section or None, traced section or None]
        "workloads": sections,
    }


def print_table(sections: dict[str, list[dict]]) -> None:
    for workload, passes in sections.items():
        for section in filter(None, passes):
            kind = "per-layer (traced pass)" if section["traced"] else "end-to-end (tracing off)"
            print(f"\n== {workload}: {kind} — {section['wall_s']:.1f} s wall, "
                  f"{section['failed']} failed of {section['attempted']} attempted")
            for name, metric in section["metrics"].items():
                print(f"  {name:<36} {metric['value']:>16.6g} {metric['unit']:<6} "
                      f"n={metric['samples']}")
            for note in section["notes"]:
                print(f"  note: {note}")


def driver_line(workload: str, section: dict) -> str:
    """The result object of the driver contract, for one (workload, pass).

    The driver wants every declared metric from every workload.  A declared
    count or share of a layer this workload does not exercise reads 0; a
    declared metric the workload *should* have measured and did not is a bug
    and raises.
    """
    family = spec.PER_LAYER if section["traced"] else spec.END_TO_END
    metrics = {}
    for metric in spec.declared(family):
        if metric.name in section["metrics"] or workload in metric.workloads:
            value = section["metrics"][metric.name]["value"]
        else:
            value = 0.0
        metrics[metric.name] = {"value": value, "unit": metric.unit}
    return json.dumps({
        "correct": section["correct"],
        "attempted": section["attempted"],
        "failed": section["failed"],
        "metrics": metrics,
    })


def main(argv: list[str] | None = None) -> int:
    arguments = parse(argv)
    bootstrap()
    exit_on_sigterm()
    names = list(spec.WORKLOADS) if arguments.workload == "all" else [arguments.workload]
    passes = [False, True] if arguments.traced else [bool(arguments.trace)]
    single = len(names) == 1 and len(passes) == 1
    sections: dict[str, list[dict | None]] = {name: [None, None] for name in names}
    for name in names:
        for traced in passes:
            run = run_one if single else launch
            section = run(name, arguments, traced)
            sections[name][int(traced)] = section
            print_table({name: [section]})
    results = document(arguments, sections)
    out = arguments.out
    if out is None:
        RESULTS_DIR.mkdir(exist_ok=True)
        out = RESULTS_DIR / f"e2e-{time.strftime('%Y%m%d-%H%M%S')}-{os.getpid()}.json"
    out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"\nresults written to {out}")
    failed = sum(
        section["failed"] for parts in sections.values() for section in filter(None, parts)
    )
    if single:
        print(driver_line(names[0], sections[names[0]][int(passes[0])]))
    return 0 if failed == 0 or single else 1
