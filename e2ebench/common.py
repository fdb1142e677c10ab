"""Shared plumbing: paths, child processes, statistics, environment, output."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Scratch space for generated traces, state dirs and worker results.
WORK = BENCH / "_work"


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    env["PYTHONHASHSEED"] = "0"
    return env


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; ``p = 0`` gives the minimum."""
    ordered = sorted(values)
    rank = math.ceil(p / 100 * len(ordered) - 1e-9)
    return ordered[max(0, rank - 1)]


def median(values) -> float:
    return statistics.median(values)


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def calibration_ms(rounds: int = 7) -> float:
    """Median time of a fixed pure-Python loop: a machine-speed yardstick."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append((time.perf_counter() - start) * 1000)
    return median(times)


def environment(seed: int) -> dict:
    import numpy

    affinity = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    return {"cores": os.cpu_count(), "usable_cores": affinity,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "seed": seed, "calibration_ms": round(calibration_ms(), 3)}


def digest(detections) -> str:
    """Order-sensitive hash of ``(name, metric, events, flagged)`` rows."""
    h = hashlib.sha256()
    for row in detections:
        h.update(json.dumps(row, sort_keys=True).encode("utf-8"))
    return h.hexdigest()


def run_digest(result) -> str:
    """Digest of a ``RunResult``: every detection's events and flagged set."""
    return digest([run.name, run.metric,
                   [event.to_dict() for event in run.result.events()],
                   sorted(run.result.flagged_machines())]
                  for run in result.detections)


def emit(lines: list[str], correct: bool, attempted: int, failed: int,
         metrics: dict) -> None:
    """Print the human-readable report, then the one-line JSON result."""
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
