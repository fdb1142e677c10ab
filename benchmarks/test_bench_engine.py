"""E10 — the vectorized detection engine vs. the per-series loop.

The north star demands detection "as fast as the hardware allows"; the
:class:`~repro.analysis.engine.DetectionEngine` replaced every per-machine
``store.series`` loop with one array pass over the dense usage matrix.
This benchmark pins the claim on a 256-machine cluster:

* every registered detector (threshold / zscore / ewma / flatline) must run
  at least 5x faster through the engine than through the per-series loop,
  with identical events;
* ``repro.scenarios.score_bundle`` — now engine-backed — must produce
  bit-identical precision/recall to the legacy per-series runner loops it
  replaced;
* on a 512-machine × 24 h block, the cache-blocked rolling z-score kernel
  must run at least 2x faster than the ``sliding_window_view`` kernel it
  replaced, timed side by side in the same process.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.analysis.detectors import EwmaDetector, FlatlineDetector
from repro.analysis.engine import DetectionEngine
from repro.analysis.ensemble import evaluate_machine_sets
from repro.scenarios.scoring import score_bundle
from repro.trace.synthetic import generate_trace

from benchmarks.conftest import (
    bench_config,
    bench_detectors,
    best_of,
    record_result,
    report,
    synthetic_cluster,
)

NUM_MACHINES = 256
NUM_SAMPLES = 288  # 24 h at 300 s resolution
MIN_SPEEDUP = 5.0

BENCH_DETECTORS = bench_detectors()


class TestEngineSpeedup:
    def test_engine_5x_faster_than_series_loop(self):
        store = synthetic_cluster(NUM_MACHINES, NUM_SAMPLES)
        engine = DetectionEngine()
        rows = {}
        for name, detector in BENCH_DETECTORS.items():
            def series_loop(detector=detector):
                events = []
                for machine_id in store.machine_ids:
                    events.extend(detector.detect(store.series(machine_id, "cpu"),
                                                  metric="cpu",
                                                  subject=machine_id))
                return events

            def engine_pass(detector=detector):
                return engine.run(store, detector, metric="cpu").events()

            loop_s, loop_events = best_of(series_loop)
            engine_s, engine_events = best_of(engine_pass)
            key = lambda e: (e.subject, e.start)
            assert sorted(engine_events, key=key) == sorted(loop_events, key=key)
            speedup = loop_s / engine_s
            rows[name] = (loop_s, engine_s, speedup, len(engine_events))
            record_result(f"engine/{name}", wall_clock_s=engine_s,
                          throughput=NUM_MACHINES / engine_s,
                          throughput_unit="machine-sweeps/s",
                          speedup_vs_series_loop=speedup,
                          num_machines=NUM_MACHINES)

        report(f"E10: engine vs per-series loop ({NUM_MACHINES} machines, "
               f"{NUM_SAMPLES} samples)", {
                   name: f"loop {loop_s * 1e3:.1f} ms -> engine "
                         f"{engine_s * 1e3:.1f} ms ({speedup:.1f}x, "
                         f"{events} events)"
                   for name, (loop_s, engine_s, speedup, events) in rows.items()})
        for name, (_, _, speedup, _) in rows.items():
            assert speedup >= MIN_SPEEDUP, (
                f"{name}: engine only {speedup:.1f}x faster (need "
                f">= {MIN_SPEEDUP}x)")


WIDE_MACHINES = 512
WIDE_SAMPLES = 1441  # 24 h at 60 s resolution
MIN_KERNEL_SPEEDUP = 2.0


def sliding_window_zscore(values, detector):
    """The replaced z-score kernel: ``(rows, samples, window)`` window views
    reduced by NumPy's mean/std (warm-up columns left unflagged)."""
    window = detector.window
    windows = sliding_window_view(values, window, axis=1)
    mean = windows.mean(axis=2)
    std = np.maximum(windows.std(axis=2), detector.min_std)
    z = np.abs(values[:, window - 1:] - mean) / std
    mask = np.zeros(values.shape, dtype=bool)
    mask[:, window - 1:] = z >= detector.z_threshold
    return mask


class TestRollingKernels:
    def test_wide_block_sweeps(self):
        store = synthetic_cluster(WIDE_MACHINES, WIDE_SAMPLES)
        engine = DetectionEngine()
        rows = {}
        for name in ("zscore", "ewma"):
            detector = BENCH_DETECTORS[name]
            engine_s, _ = best_of(
                lambda: engine.run(store, detector, metric="cpu"))
            rows[name] = engine_s
            record_result(f"engine/{name}/wide", wall_clock_s=engine_s,
                          throughput=WIDE_MACHINES / engine_s,
                          throughput_unit="machine-sweeps/s",
                          num_machines=WIDE_MACHINES,
                          num_samples=WIDE_SAMPLES)

        detector = BENCH_DETECTORS["zscore"]
        values = store.metric_block("cpu")
        timestamps = store.timestamps
        kernel_s, (mask, _) = best_of(
            lambda: detector._block_mask(timestamps, values))
        reference_s, reference_mask = best_of(
            lambda: sliding_window_zscore(values, detector))
        assert np.array_equal(mask, reference_mask)
        speedup = reference_s / kernel_s
        record_result("engine/zscore/kernel-vs-sliding-window",
                      wall_clock_s=kernel_s, reference_s=reference_s,
                      speedup_vs_sliding_window=speedup,
                      num_machines=WIDE_MACHINES, num_samples=WIDE_SAMPLES)
        report(f"E10: rolling kernels ({WIDE_MACHINES} machines, "
               f"{WIDE_SAMPLES} samples)", {
                   **{f"engine {name}": f"{s * 1e3:.1f} ms "
                      f"({WIDE_MACHINES / s:,.0f} machine-sweeps/s)"
                      for name, s in rows.items()},
                   "zscore kernel": f"{kernel_s * 1e3:.1f} ms vs "
                                    f"sliding_window_view "
                                    f"{reference_s * 1e3:.1f} ms "
                                    f"({speedup:.1f}x)"})
        assert speedup >= MIN_KERNEL_SPEEDUP, (
            f"zscore kernel only {speedup:.1f}x faster than the "
            f"sliding_window_view reference (need >= {MIN_KERNEL_SPEEDUP}x)")


def legacy_flag(store, detector, metric, window):
    """The pre-engine scoring loop: detect per machine, filter by overlap."""
    flagged = set()
    for machine_id in store.machine_ids:
        events = detector.detect(store.series(machine_id, metric),
                                 metric=metric, subject=machine_id)
        if any(event.overlaps(window[0], window[1]) for event in events):
            flagged.add(machine_id)
    return flagged


def legacy_predicted(bundle, entry):
    """Legacy (pre-rewiring) bodies of the engine-backed scoring runners."""
    store = bundle.usage
    if entry.window is not None:
        t0, t1 = entry.window
    else:
        t0, t1 = (float(t) for t in bundle.time_range())
    name = entry.detectors[0]
    if name == "flatline":
        return legacy_flag(store, FlatlineDetector(epsilon=0.5, min_samples=3),
                           "cpu", (t0, t1))
    if name == "disk-burst":
        threshold = max(10.0, 0.5 * float(entry.params.get("disk_boost", 45.0)))
        return legacy_flag(store, EwmaDetector(alpha=0.3,
                                               deviation_threshold=threshold),
                           "disk", (t0, t1))
    if name == "drain":
        level = float(entry.params.get("drained_mem_level", 3.0))
        return legacy_flag(store,
                           FlatlineDetector(epsilon=max(1.0, 2.0 * level),
                                            min_samples=2),
                           "mem", (t0, t1))
    if name == "outlier":
        windowed = store.window(t0 + 0.1 * (t1 - t0), t1)
        means = {machine_id: float(windowed.series(machine_id, "cpu").mean())
                 for machine_id in windowed.machine_ids}
        values = np.asarray(list(means.values()), dtype=np.float64)
        mu = float(values.mean()) if values.size else 0.0
        sd = float(values.std()) if values.size else 0.0
        if sd <= 1e-9:
            return set()
        return {machine_id for machine_id, value in means.items()
                if (value - mu) / sd >= 1.5}
    return None


class TestScoreBundleBitIdentical:
    def test_engine_scoring_matches_legacy_loops(self):
        scenario = "machine-failure+network-storm+maintenance-drain+load-imbalance"
        compared = 0
        for seed in range(3):
            bundle = generate_trace(bench_config(scenario, seed=seed,
                                                 num_machines=64, num_jobs=40))
            for scored in score_bundle(bundle):
                legacy = legacy_predicted(bundle, scored.entry)
                if legacy is None:
                    continue
                compared += 1
                assert set(scored.predicted) == legacy
                assert scored.result == evaluate_machine_sets(
                    legacy, set(scored.entry.machines))
        report("E10: score_bundle engine vs legacy loops", {
            "entries compared": compared,
            "bit-identical": True,
        })
        assert compared >= 12
