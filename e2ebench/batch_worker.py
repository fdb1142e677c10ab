"""The process under test for the ``detect-warm`` workload.

Run by ``run.py`` with a trace directory the parent already generated:

    python3 e2ebench/batch_worker.py TRACE_DIR SECONDS TRACE OUT

It sets up (cold opens that parse the CSVs and build the sidecar), runs
its operation back to back (closed loop) for SECONDS, and writes one JSON
record to OUT: set-up times, one row per operation (start, end, the run's
own total and detect-stage times, verdict digest), its own ``VmHWM`` and,
with TRACE=1, span breakdowns of one traced cold open and of a second,
traced half of the run.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

from common import run_digest, vm_hwm_mb

#: The issue's detect-warm stack over cpu+mem, sidecar on, json sink.
WARM_DETECTORS = "threshold+zscore+ewma+flatline"
WARM_METRICS = ("cpu", "mem")
#: Fresh set-ups per run; setup_s is their median.
SETUPS = 3


def operation(trace_dir: Path):
    """One primary operation, built the way its user builds it."""
    from repro.pipeline import Pipeline

    spec = {"source": {"kind": "trace-dir", "path": str(trace_dir),
                       "cache": True},
            "detectors": WARM_DETECTORS, "metrics": list(WARM_METRICS),
            "sinks": ["json"]}
    return lambda: Pipeline.from_spec(spec).run()


def cold_open(op, trace_dir: Path) -> tuple:
    """Set-up: the first open, which parses the CSVs and builds the sidecar."""
    shutil.rmtree(trace_dir / ".repro-cache", ignore_errors=True)
    start = time.perf_counter_ns()
    result = op()
    return start, time.perf_counter_ns(), result


def loop(op, seconds: float) -> list:
    rows = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        start = time.perf_counter_ns()
        result = op()
        end = time.perf_counter_ns()
        rows.append([start, end, result.timings["total_s"],
                     result.timings["detect_s"], run_digest(result)])
    return rows


def breakdown(setup: tuple, rows: list, tracer) -> tuple[dict, dict]:
    """Per-layer self time of the traced cold open and traced operations.

    ``bench.setup`` and ``bench.op`` are the roots (their self time is
    whatever no wrapped layer covers).  The cold open precedes the loop,
    so spans split between the two by start time.
    """
    from spans import attach, summarise

    cold = [(-1, None, "bench.setup", setup[0], setup[1])]
    roots = [(-(i + 2), None, "bench.op", row[0], row[1])
             for i, row in enumerate(rows)]
    spans, dropped = attach(cold + roots, tracer.spans)
    first = roots[0][3]
    return (summarise(cold, [s for s in spans if s[3] < first], dropped=0,
                      counted={}),
            summarise(roots, [s for s in spans if s[3] >= first],
                      dropped=dropped, counted=tracer.bytes))


def main(argv: list[str]) -> int:
    trace_dir, seconds, trace, out = argv
    trace_dir, seconds, trace = Path(trace_dir), float(seconds), trace == "1"
    op = operation(trace_dir)
    record: dict = {"setup_s": [], "setups": []}
    for _ in range(SETUPS):
        start, end, result = cold_open(op, trace_dir)
        record["setup_s"].append((end - start) / 1e9)
        record["setups"].append(run_digest(result))
    record["ops"] = loop(op, seconds / 2 if trace else seconds)
    if trace:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)
        start, end, result = cold_open(op, trace_dir)
        record["setups"].append(run_digest(result))
        record["traced_ops"] = loop(op, seconds / 2)
        record["setup_breakdown"], record["breakdown"] = breakdown(
            (start, end), record["traced_ops"], tracer)
    record["peak_rss_mb"] = vm_hwm_mb()
    Path(out).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
