"""The ``serve-agents`` workload: two durable tenants behind ``repro serve``.

The server is a subprocess (``serve_launcher.py``); this process is the
load: one thread and one ``ServeClient`` (one keep-alive connection) in a
closed loop, where each request waits for the previous reply.  A round
is: tenant A ingests one sample four times, tenant B ingests sixteen,
then B's window is swept twice with ``/detect`` (a miss, then a hit).
"""

from __future__ import annotations

import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from common import BENCH, child_env, vm_hwm_mb
from inputs import (
    SERVE_SCENARIO,
    Feed,
    detect_reference,
    generate,
    same,
    stream_reference,
)

MACHINES = 256
WINDOW = 128
BATCH = 16
#: Tenant A's single-sample ingests per round: more samples of the
#: primary operation per run.
SINGLES = 4
METRICS = ("cpu", "mem")
SNAPSHOT_EVERY = 128
SETUPS = 5


class Server:
    """One ``repro serve`` subprocess with a fresh durable state dir."""

    def __init__(self, state_dir: Path, spans_out: Path) -> None:
        shutil.rmtree(state_dir, ignore_errors=True)
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "serve_launcher.py"), str(spans_out),
             "serve", "--port", "0", "--state-dir", str(state_dir),
             "--snapshot-every", str(SNAPSHOT_EVERY)],
            stdout=subprocess.PIPE, text=True, env=child_env())
        self.port = int(self._await("serving on").split()[2].rsplit(":", 1)[1])

    def _await(self, prefix: str) -> str:
        for line in self.proc.stdout:
            if line.startswith(prefix):
                return line
        raise RuntimeError(f"server exited before printing {prefix!r}")

    def arm_tracing(self) -> None:
        self.proc.send_signal(signal.SIGUSR1)
        self._await("tracing on")

    def stop(self) -> None:
        """SIGTERM (the server drains) and wait; idempotent."""
        if self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


class Load:
    """The two agents and the dashboard viewer, in one closed loop."""

    def __init__(self, port: int, feed: Feed, seed: int) -> None:
        from repro.serve import ServeClient

        self.feed = feed
        # One connection for both agents: every request follows a reply
        # on the same socket, so each meets the same delayed-ACK regime.
        self.client = ServeClient(port=port)
        self.think = random.Random(seed)
        self.next_a = self.next_b = 0
        self.chunks = {"a": [], "b": []}
        self.failed = 0

    def setup(self) -> None:
        """Create both tenants and fill their rings (one window each)."""
        spec = {"machines": self.feed.machine_ids, "metrics": list(METRICS),
                "streaming": {"window_samples": WINDOW}}
        for tenant in ("a", "b"):
            self.client.create_tenant(dict(spec, id=tenant))
        self.next_a = self._ingest("a", self.next_a, WINDOW)
        self.next_b = self._ingest("b", self.next_b, WINDOW)

    def _ingest(self, tenant: str, lo: int, size: int) -> int:
        ack = self.client.ingest_block(tenant,
                                       *self.feed.block(lo, lo + size))
        self.chunks[tenant].append(size)
        if ack["ingested"] != size or ack["total_samples"] != lo + size:
            self.failed += 1
        return lo + size

    def run(self, seconds: float) -> dict:
        """Closed-loop rounds for ``seconds``; request and round timings."""
        rounds, requests, detects = [], [], []
        now = time.perf_counter_ns

        def timed(kind, call):
            # Think time, uniform below one 4 ms kernel tick: replies
            # that waited for the delayed-ACK timer arrive on a tick, so
            # an immediate next request would start tick-aligned and its
            # latency would read in 4 ms steps.
            time.sleep(self.think.uniform(0.0, 0.004))
            start = now()
            result = call()
            requests.append((kind, start, now()))
            return result

        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            begin = now()
            for _ in range(SINGLES):
                self.next_a = timed("ingest_1", lambda: self._ingest(
                    "a", self.next_a, 1))
            self.next_b = timed("ingest_16", lambda: self._ingest(
                "b", self.next_b, BATCH))
            miss = timed("detect_miss", lambda: self.client.detect("b"))
            hit = timed("detect_hit", lambda: self.client.detect("b"))
            rounds.append((begin, now()))
            detects.append((self.next_b, miss, hit))
        return {"rounds": rounds, "requests": requests, "detects": detects}

    def logs(self) -> dict:
        return {tenant: (self.client.alerts(tenant, cursor=0),
                         self.client.events(tenant))
                for tenant in ("a", "b")}

    def close(self) -> None:
        self.client.close()


def check(load: Load, phases: list[dict], logs: dict) -> int:
    """Failed operations against the local references."""
    from repro.pipeline.detectors import default_detector_spec

    detectors = default_detector_spec()
    failed = load.failed
    for tenant, (alerts, events) in logs.items():
        ref_alerts, ref_events = stream_reference(
            load.feed, load.chunks[tenant], detectors=detectors,
            metrics=METRICS, window=WINDOW)
        entries = alerts["alerts"]
        if ([entry["seq"] for entry in entries]
                != list(range(1, len(entries) + 1))
                or not same([entry["alert"] for entry in entries], ref_alerts)
                or not same(events["detections"], ref_events)):
            failed += 1
    for phase in phases:
        for end, miss, hit in phase["detects"]:
            expected = detect_reference(load.feed, end, detectors=detectors,
                                        metrics=METRICS, window=WINDOW)
            if miss["cached"] or not same(miss["detections"], expected):
                failed += 1
            if not hit["cached"] or not same(dict(hit, cached=False), miss):
                failed += 1
    return failed


def run_serve(work: Path, seed: int, seconds: float, trace: bool) -> dict:
    feed = Feed(generate(MACHINES, seed, SERVE_SCENARIO).usage)
    spans_out = work / "server_spans.json"
    setups, server, load = [], None, None
    try:
        for attempt in range(SETUPS):
            start = time.perf_counter()
            server = Server(work / f"state{attempt}", spans_out)
            load = Load(server.port, feed, seed)
            load.setup()
            setups.append(time.perf_counter() - start)
            if attempt < SETUPS - 1:
                load.close()
                server.stop()
        phases = [load.run(seconds / 2 if trace else seconds)]
        if trace:
            server.arm_tracing()
            phases.append(load.run(seconds / 2))
        logs = load.logs()
        peak_rss_mb = vm_hwm_mb(server.proc.pid)
        load.close()
        server.stop()
    finally:
        if server is not None:
            server.stop()
    spans = (json.loads(spans_out.read_text(encoding="utf-8"))
             if trace else None)
    return {"setup_s": setups, "phases": phases, "spans": spans,
            "peak_rss_mb": peak_rss_mb, "failed": check(load, phases, logs)}
