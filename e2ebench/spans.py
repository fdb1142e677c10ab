"""Layer spans for the traced benchmark runs, recorded from outside ``repro``.

``install(tracer)`` replaces each public entry point named in ``LAYERS``
with a thin wrapper that records a span (name, start, end, parent) around
the original call.  Nothing under ``src/`` is edited and the untraced runs
never call ``install``, so they execute the program exactly as shipped.

Parents come from a per-thread stack.  A span opened on a thread with an
empty stack (a ``ShardExecutor`` pool worker) is parented to the innermost
open fan-out span (``executor.run_many``); the load generator keeps one
request in flight at a time, so that span is unambiguous.

``self_times`` turns span trees into per-layer self time: a layer's span
minus the part its children cover.  Where children overlap (pool workers
sweeping shards side by side) each instant is split evenly between the
children running at that instant, so the self times of one tree always
add up to its root's duration.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import threading
import time
from collections import defaultdict

#: (module, class or None, attribute, span name); engine sweeps are keyed
#: by detector kind, the journal and snapshot spans also count bytes.
LAYERS = (
    ("repro.trace.loader", None, "load_trace", "trace.load"),
    ("repro.trace.cache", None, "resolve_fingerprint", "trace.fingerprint"),
    ("repro.trace.cache", None, "load_trace_cache", "trace.sidecar_read"),
    ("repro.trace.cache", None, "save_trace_cache", "trace.sidecar_write"),
    ("repro.pipeline.core", None, "compile_plans", "pipeline.compile"),
    ("repro.serve.server", None, "compile_plans", "pipeline.compile"),
    ("repro.pipeline.sinks", None, "run_sink", "pipeline.sinks"),
    ("repro.pipeline.core", "Pipeline", "run", "pipeline.run"),
    ("repro.analysis.engine", "DetectionEngine", "run", "engine"),
    ("repro.analysis.engine", "DetectionEngine", "run_incremental",
     "engine.incremental"),
    ("repro.analysis.shard", "ShardExecutor", "run_many", "executor.run_many"),
    ("repro.serve.server", "DetectionServer", "handle", "serve.handle"),
    ("repro.serve.tenants", None, "payload_to_block", "wire.decode"),
    ("repro.serve.tenants", "Tenant", "snapshot", "tenant.window_copy"),
    ("repro.stream.monitor", "OnlineMonitor", "catch_up", "stream.monitor"),
    ("repro.stream.monitor", None, "cluster_thrashing_report",
     "stream.thrashing"),
    ("repro.stream.monitor", None, "classify_regime", "stream.regime"),
    ("repro.stream.alerts", "AlertManager", "ingest_many", "alerts.manage"),
    ("repro.serve.persist", "TenantPersistence", "append", "persist.journal"),
    ("repro.serve.persist", "TenantPersistence", "write_snapshot",
     "persist.snapshot"),
)

#: Spans whose work fans out to pool threads.
FANOUT = {"executor.run_many"}


class Tracer:
    """In-memory span recorder shared by every thread of one process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._fanout: list[int] = []
        self._next = 0
        #: Finished spans as ``(id, parent, name, start_ns, end_ns)``.
        self.spans: list[tuple] = []
        #: Byte counters keyed by span name.
        self.bytes: dict[str, int] = defaultdict(int)

    def begin(self, name: str) -> tuple:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            sid = self._next
            self._next += 1
            if stack:
                parent = stack[-1]
            else:
                parent = self._fanout[-1] if self._fanout else None
            if name in FANOUT:
                self._fanout.append(sid)
        stack.append(sid)
        return sid, parent, name, time.perf_counter_ns()

    def end(self, token: tuple) -> None:
        end = time.perf_counter_ns()
        sid, parent, name, start = token
        self._local.stack.pop()
        with self._lock:
            if name in FANOUT:
                self._fanout.remove(sid)
            self.spans.append((sid, parent, name, start, end))

    def add_bytes(self, name: str, count: int) -> None:
        with self._lock:
            self.bytes[name] += count


def _wrap(tracer: Tracer, original, name: str):
    if name == "engine":
        from repro.analysis.engine import detector_kind

        def label(args, kwargs):
            detector = kwargs.get("detector", args[2] if len(args) > 2
                                  else "threshold")
            kind = (detector if isinstance(detector, str)
                    else detector_kind(detector))
            return f"engine.{kind}"
    else:
        def label(args, kwargs):
            return name

    if name == "persist.journal":
        def measure(args, call):
            journal = args[0].journal
            before = journal.size()
            result = call()
            tracer.add_bytes(name, journal.size() - before)
            return result
    elif name == "persist.snapshot":
        def measure(args, call):
            result = call()
            tracer.add_bytes(name, args[0].snapshot_path.stat().st_size)
            return result
    else:
        def measure(args, call):
            return call()

    @functools.wraps(original)
    def traced(*args, **kwargs):
        token = tracer.begin(label(args, kwargs))
        try:
            return measure(args, lambda: original(*args, **kwargs))
        finally:
            tracer.end(token)

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every entry point of ``LAYERS`` so calls record spans."""
    for module_name, class_name, attribute, name in LAYERS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        setattr(owner, attribute, _wrap(tracer, getattr(owner, attribute),
                                        name))


# -- trees and self time --------------------------------------------------------

def attach(parents: list[tuple], spans: list[tuple]) -> tuple[list, int]:
    """Re-parent root ``spans`` to the ``parents`` span enclosing them.

    ``parents`` are disjoint intervals (benchmark operations, sorted by
    start); a root span lying inside one becomes its child.  Program
    spans are stamped with the same monotonic clock in every process, so
    this also stitches server spans under the client request that caused
    them.  Roots outside every parent are dropped and counted.
    """
    starts = [p[3] for p in parents]
    out, dropped = [], 0
    for span in spans:
        sid, parent, name, start, end = span
        if parent is None:
            index = bisect.bisect_right(starts, start) - 1
            if index < 0 or parents[index][4] < end:
                dropped += 1
                continue
            span = (sid, parents[index][0], name, start, end)
        out.append(span)
    return out, dropped


def self_times(roots: list[tuple], spans: list[tuple]) -> dict[str, float]:
    """Seconds of self time per span name over the trees under ``roots``."""
    children = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append(span)
    out: dict[str, float] = defaultdict(float)
    for root in roots:
        _attribute(root, [(root[3], root[4], 1.0)], children, out)
    return {name: ns / 1e9 for name, ns in out.items()}


def _attribute(node, segments, children, out) -> None:
    """Give ``node`` its uncovered share of ``segments``; recurse into kids.

    ``segments`` are disjoint ``(start, end, weight)`` pieces of the node's
    interval; weight is the share of wall time the node owns there.
    """
    _, _, name, lo, hi = node
    kids = [(max(k[3], lo), min(k[4], hi), k) for k in children.get(node[0], ())]
    kids = [kid for kid in kids if kid[1] > kid[0]]
    if not kids:
        out[name] += sum((b - a) * w for a, b, w in segments)
        return
    cuts = sorted({p for a, b, _ in segments for p in (a, b)}
                  | {p for a, b, _ in kids for p in (a, b)})
    given = {kid[2][0]: [] for kid in kids}
    index = 0
    for a, b in zip(cuts, cuts[1:]):
        while index < len(segments) and segments[index][1] <= a:
            index += 1
        if index == len(segments) or segments[index][0] > a:
            continue            # outside the share this node was given
        weight = segments[index][2]
        active = [kid[2] for kid in kids if kid[0] <= a and kid[1] >= b]
        if not active:
            out[name] += (b - a) * weight
            continue
        for kid in active:
            given[kid[0]].append((a, b, weight / len(active)))
    for _, _, kid in kids:
        _attribute(kid, given[kid[0]], children, out)


def summarise(roots: list[tuple], spans: list[tuple], *, dropped: int,
              counted: dict) -> dict:
    """Per-layer totals over ``roots``, plus the median root's own tree.

    ``counted`` is the recorder's byte counters.  The median tree is
    what the self-check inspects: its self times must add up to its
    root's duration.
    """
    per_root = [self_times([root], spans) for root in roots]
    totals: dict[str, float] = defaultdict(float)
    for layers in per_root:
        for name, seconds in layers.items():
            totals[name] += seconds
    calls: dict[str, int] = defaultdict(int)
    for span in list(roots) + list(spans):
        calls[span[2]] += 1
    middle = sorted(range(len(roots)),
                    key=lambda i: roots[i][4] - roots[i][3])[len(roots) // 2]
    return {"rounds": len(roots), "self_s": dict(totals), "calls": dict(calls),
            "bytes": dict(counted), "dropped": dropped,
            "tree": {"root_s": (roots[middle][4] - roots[middle][3]) / 1e9,
                     "self_s": per_root[middle]}}
