"""Seeded inputs and the references outputs are checked against.

Everything here runs before or after the measured phases, never inside
them.  References are computed independently of the path under test:
trace verdicts from a serial in-memory ``DetectionEngine.run`` over a
store parsed back from the CSVs by this module (not by ``repro``'s
loader or sidecar), serve verdicts from a local replay of the exact
chunks sent over the wire.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from common import digest

DAY_S = 24 * 3600
#: Batch-trace scenario: every default detector has something to find.
TRACE_SCENARIO = "hot-job+machine-failure+network-storm"
SERVE_SCENARIO = "background(cpu_offset=50,mem_offset=45)+memory-thrash+hot-job"


def generate(machines: int, seed: int, scenario: str):
    """A 24 h trace at the default 60 s resolution (1441 samples)."""
    from repro.config import ClusterConfig, TraceConfig
    from repro.trace.synthetic import generate_trace

    config = TraceConfig(cluster=ClusterConfig(num_machines=machines),
                         horizon_s=DAY_S)
    return generate_trace(config, scenario=scenario, seed=seed)


def write_trace_dir(directory: Path, machines: int, seed: int) -> None:
    """Write a generated trace as the four Alibaba CSV tables.

    The small tables go through ``repro.trace.writer``; ``server_usage``
    is formatted here in bulk, byte for byte what ``write_trace`` writes
    (``csv`` line endings, two decimals), at a fraction of its time.
    """
    from repro.trace.writer import write_trace

    bundle = generate(machines, seed, TRACE_SCENARIO)
    usage, bundle.usage = bundle.usage, None
    write_trace(bundle, directory)
    cpu, mem, disk = (usage.data[:, usage.metrics.index(m), :]
                      for m in ("cpu", "mem", "disk"))
    with open(directory / "server_usage.csv", "w", encoding="utf-8",
              newline="") as handle:
        for t, timestamp in enumerate(usage.timestamps.tolist()):
            stamp = int(timestamp)
            handle.write("".join(
                f"{stamp},{machine},{c:.2f},{m:.2f},{d:.2f}\r\n"
                for machine, c, m, d in zip(usage.machine_ids,
                                            cpu[:, t].tolist(),
                                            mem[:, t].tolist(),
                                            disk[:, t].tolist())))


def parse_usage(directory: Path):
    """``server_usage.csv`` as a ``MetricStore``, parsed with NumPy here."""
    from repro.metrics.store import MetricStore

    text = (directory / "server_usage.csv").read_text(encoding="utf-8")
    cells = text.replace(",", " ").split()
    ids = np.asarray(cells[1::5])
    times = np.asarray(cells[0::5], dtype=np.float64)
    machines, rows = np.unique(ids, return_inverse=True)
    timestamps, cols = np.unique(times, return_inverse=True)
    store = MetricStore(machines.tolist(), timestamps)
    for offset, metric in ((2, "cpu"), (3, "mem"), (4, "disk")):
        store.data[rows, store.metrics.index(metric), cols] = np.asarray(
            cells[offset::5], dtype=np.float64)
    return store


def engine_rows(store, detectors: str, metrics) -> list:
    """``[name, metric, events, flagged]`` per unit, serial engine sweeps."""
    from repro.analysis.engine import DetectionEngine
    from repro.pipeline.detectors import resolve_detectors

    engine = DetectionEngine(detectors={})
    rows = []
    for name, detector in resolve_detectors(detectors):
        for metric in metrics:
            result = engine.run(store, detector, metric=metric)
            rows.append([name, metric,
                         [event.to_dict() for event in result.events()],
                         sorted(result.flagged_machines())])
    return rows


def trace_reference(directory: Path, detectors: str, metrics) -> str:
    return digest(engine_rows(parse_usage(directory), detectors, metrics))


class Feed:
    """An endless per-tenant sample feed cycling one generated scenario.

    Sample ``k`` carries timestamp ``k * resolution`` and the values of
    sample ``k mod n`` of the scenario, so timestamps keep increasing for
    however long a run lasts without generating more trace.
    """

    def __init__(self, store) -> None:
        self.machine_ids = list(store.machine_ids)
        self.metrics = tuple(store.metrics)
        self.data = np.ascontiguousarray(store.data)
        self.step = float(store.timestamps[1] - store.timestamps[0])

    def block(self, lo: int, hi: int):
        """``(timestamps, block)`` of samples ``[lo, hi)``, store layout."""
        index = np.arange(lo, hi)
        return (index * self.step,
                np.ascontiguousarray(self.data[:, :, index % self.data.shape[2]]))

    def store(self, lo: int, hi: int):
        from repro.metrics.store import MetricStore

        timestamps, block = self.block(lo, hi)
        return MetricStore.from_dense(self.machine_ids, timestamps,
                                      self.metrics, block)


def stream_reference(feed: Feed, chunks: list[int], *, detectors: str,
                     metrics, window: int) -> tuple[list, list]:
    """Alerts and events of a local streaming run over the same chunks.

    This is the loop ``Pipeline(mode="streaming")`` runs (monitor
    catch-up, then every plan's incremental sweep, per chunk), fed the
    exact chunk sequence the tenant received over the wire.
    """
    from repro.analysis.engine import DetectionEngine
    from repro.pipeline.core import compile_plans
    from repro.pipeline.spec import StreamingOptions
    from repro.stream.monitor import MonitorConfig, OnlineMonitor

    options = StreamingOptions(window_samples=window)
    plans, _ = compile_plans(detectors, tuple(metrics))
    monitor = OnlineMonitor(feed.machine_ids,
                            config=MonitorConfig(
                                utilisation_threshold=options.threshold),
                            window_samples=options.window_samples)
    engine = DetectionEngine(detectors={})
    states = [engine.stream(feed.machine_ids, plan.detector,
                            metric=plan.metric) for plan in plans]
    alerts, lo = [], 0
    for size in chunks:
        piece = feed.store(lo, lo + size)
        alerts.extend(monitor.catch_up(piece))
        for state in states:
            engine.run_incremental(state, piece)
        lo += size
    events = [{"label": plan.label, "name": plan.name, "metric": plan.metric,
               "events": [event.to_dict() for event in state.events()]}
              for plan, state in zip(plans, states)]
    return [alert.to_dict() for alert in alerts], events


def detect_reference(feed: Feed, end: int, *, detectors: str, metrics,
                     window: int) -> list:
    """What ``/detect`` must answer over the ring window ending at ``end``."""
    from repro.analysis.engine import DetectionEngine
    from repro.pipeline.core import compile_plans

    store = feed.store(max(0, end - window), end)
    plans, _ = compile_plans(detectors, tuple(metrics))
    engine = DetectionEngine(detectors={})
    out = []
    for plan in plans:
        result = engine.run(store, plan.detector, metric=plan.metric)
        out.append({"label": plan.label, "name": plan.name,
                    "metric": plan.metric,
                    "events": [event.to_dict() for event in result.events()],
                    "flagged_machines": sorted(result.flagged_machines())})
    return out


def same(a, b) -> bool:
    """JSON-level equality (what crossed the wire is JSON)."""
    return (json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True))
