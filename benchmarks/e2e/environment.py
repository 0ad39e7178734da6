"""Process environment of a benchmark run: import path, BLAS pin, fingerprint, memory.

:func:`bootstrap` must run before anything imports :mod:`numpy` or
:mod:`repro` — entry points call it first and import the rest afterwards.
"""

from __future__ import annotations

import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RESULTS_DIR = HERE / "results"

#: One BLAS thread per benchmark-launched process: the fleet workloads already
#: run four processes on two cores, and an unpinned BLAS adds run-to-run spread.
BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap() -> None:
    """Pin BLAS threads and make ``repro`` (and this package) importable.

    Exits with status 2, printing no result, when the checkout has no
    ``src/repro`` — the benchmark measures the program and cannot run
    without it.  Children inherit the environment, so the pin and the import
    path hold across the process tree.
    """
    for variable in BLAS_VARIABLES:
        os.environ[variable] = "1"
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"benchmarks.e2e: no program to measure ({source}/repro is missing)",
              file=sys.stderr)
        raise SystemExit(2)
    paths = [str(source), str(ROOT)]
    for path in paths:
        if path not in sys.path:
            sys.path.insert(0, path)
    inherited = os.environ.get("PYTHONPATH", "")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        paths + [entry for entry in inherited.split(os.pathsep) if entry and entry not in paths]
    )


def exit_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit`` so ``finally`` blocks and ``with`` exits run.

    A terminated benchmark must still close its fleet, reap its children and
    delete its temporary storage directory; Python's default SIGTERM action
    skips all of that.
    """

    def handler(signum: int, frame: object) -> None:
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handler)


def _commit() -> str:
    """The checkout's commit, or ``unknown`` outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def fingerprint() -> dict[str, object]:
    """What the numbers were measured on (recorded in every results document)."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_VARIABLES},
        "commit": _commit(),
    }


def _status_field(pid: int, field: str) -> int | None:
    """One ``/proc/<pid>/status`` field in kB (``None`` when the process is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        return None
    return None


def _parent_of(pid: int) -> int | None:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as handle:
            # The command name may contain spaces; fields resume after ')'.
            return int(handle.read().rsplit(")", 1)[1].split()[1])
    except (OSError, ValueError, IndexError):
        return None


def process_tree(root: int | None = None) -> list[int]:
    """``root`` (default: this process) and every live descendant pid."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            parent = _parent_of(int(entry))
            if parent is not None:
                children.setdefault(parent, []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def tree_peak_rss_mb(root: int | None = None) -> float:
    """Sum of peak resident set sizes (``VmHWM``) over the live process tree.

    Sampled by each workload after its timed section, before tear-down, so
    forked nodes and child processes are still alive to be read.  Forked
    processes share pages copy-on-write and each counts them, so the sum
    overstates unique memory — consistently on both sides of a comparison.
    """
    total_kb = sum(_status_field(pid, "VmHWM") or 0 for pid in process_tree(root))
    return total_kb / 1024.0
