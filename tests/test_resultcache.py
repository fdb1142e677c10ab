"""Tests for the content-addressed run-result cache.

The contract under test: caching never changes results.  A hit restores
the run bit-identically, any content change to the source invalidates
the key, execution options do not participate in the key, and every
damaged entry — torn write, truncation, garbage — reads as *absent*
(recompute), never as a wrong answer.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.ensemble import EvaluationResult
from repro.errors import PipelineError
from repro.pipeline import (
    Pipeline,
    ResultCache,
    ResultCacheOptions,
    SourceSpec,
    resultcache,
    run_key,
    source_key,
)
from repro.scenarios.scoring import ScoredEntry, sweep_scenarios
from repro.trace.synthetic import generate_trace
from repro.trace.writer import write_trace
from tests.conftest import fast_config

SMALL = {"num_machines": 12, "num_jobs": 8, "horizon_s": 3600,
         "resolution_s": 120}


def spec_for(cache_dir, *, scenario="memory-thrash", seed=5, **extra) -> dict:
    spec = {
        "source": {"kind": "synthetic", "scenario": scenario, "seed": seed,
                   "config": dict(SMALL)},
        "metrics": ["cpu"],
        "sinks": ["score"],
        "result_cache": {"dir": str(cache_dir)},
    }
    spec.update(extra)
    return spec


def assert_runs_identical(a, b) -> None:
    """Bit-identical RunResults: every block array, every score row."""
    assert a.mode == b.mode
    assert a.metrics == b.metrics
    assert a.machine_ids == b.machine_ids
    assert a.num_samples == b.num_samples
    assert len(a.detections) == len(b.detections)
    for run_a, run_b in zip(a.detections, b.detections):
        assert (run_a.label, run_a.name, run_a.metric) == (
            run_b.label, run_b.name, run_b.metric)
        assert run_a.result.detector == run_b.result.detector
        assert run_a.result.metric == run_b.result.metric
        assert run_a.result.machine_ids == run_b.result.machine_ids
        block_a, block_b = run_a.result.block, run_b.result.block
        for field in ("timestamps", "mask", "scores", "rows", "starts",
                      "ends", "run_scores"):
            got, want = getattr(block_a, field), getattr(block_b, field)
            assert got.dtype == want.dtype, field
            assert np.array_equal(got, want), field
    assert a.scores == b.scores


class TestHitRestoresRun:
    def test_miss_then_hit_bit_identical(self, tmp_path):
        spec = spec_for(tmp_path / "cache")
        cold = Pipeline.from_spec(spec).run()
        warm = Pipeline.from_spec(spec).run()
        assert cold.timings["result_cache"] == "miss"
        assert warm.timings["result_cache"] == "hit"
        assert warm.timings["detect_s"] == 0.0
        assert warm.timings["source_s"] == 0.0
        assert_runs_identical(cold, warm)
        assert cold.scores          # the scenario carries a manifest
        assert warm.outputs["score"] == warm.scores

    def test_one_entry_per_key_on_disk(self, tmp_path):
        cache_dir = tmp_path / "cache"
        spec = spec_for(cache_dir)
        Pipeline.from_spec(spec).run()
        Pipeline.from_spec(spec).run()
        assert len(list(cache_dir.glob("*.npz"))) == 1
        stats = ResultCache(cache_dir).stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0

    def test_hit_skips_source_and_engine(self, tmp_path, monkeypatch):
        spec = spec_for(tmp_path / "cache")
        cold = Pipeline.from_spec(spec).run()

        def boom(*args, **kwargs):   # noqa: ARG001 - must never be reached
            raise AssertionError("a cache hit must not touch this path")

        monkeypatch.setattr(Pipeline, "_resolve_source", boom)
        monkeypatch.setattr(Pipeline, "_run_batch", boom)
        warm = Pipeline.from_spec(spec).run()
        assert warm.timings["result_cache"] == "hit"
        assert_runs_identical(cold, warm)

    def test_disabled_cache_never_writes(self, tmp_path):
        cache_dir = tmp_path / "cache"
        spec = spec_for(cache_dir)
        spec["result_cache"]["enabled"] = False
        result = Pipeline.from_spec(spec).run()
        assert "result_cache" not in result.timings
        assert not cache_dir.exists()

    def test_unwritable_cache_dir_never_breaks_the_run(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied", encoding="utf-8")
        spec = spec_for(blocker / "cache")
        result = Pipeline.from_spec(spec).run()
        assert result.timings["result_cache"] == "miss"
        assert result.detections


class TestKeying:
    def test_execution_options_share_one_entry(self, tmp_path):
        cache_dir = tmp_path / "cache"
        serial = Pipeline.from_spec(spec_for(cache_dir)).run()
        sharded = Pipeline.from_spec(spec_for(
            cache_dir,
            execution={"backend": "threads", "workers": 2, "shards": 3},
        )).run()
        assert serial.timings["result_cache"] == "miss"
        assert sharded.timings["result_cache"] == "hit"
        assert_runs_identical(serial, sharded)

    def test_detectors_metrics_scored_change_the_key(self):
        identity = {"kind": "synthetic", "scenario": "hotjob", "seed": 1,
                    "paper_scale": False, "config": {}}
        base = dict(detectors="ewma+zscore", metrics=("cpu",), mode="batch",
                    scored=True)
        key = run_key(identity, **base)
        assert key == run_key(dict(identity), **base)   # deterministic
        for change in (dict(detectors="ewma"), dict(metrics=("cpu", "mem")),
                       dict(scored=False)):
            assert run_key(identity, **{**base, **change}) != key
        other = dict(identity, seed=2)
        assert run_key(other, **base) != key

    def test_trace_dir_key_strips_cache_and_mmap_but_not_storage(self, tmp_path):
        trace_dir = tmp_path / "trace"
        write_trace(generate_trace(fast_config("hotjob", seed=7)), trace_dir)
        plain = SourceSpec(kind="trace-dir", path=str(trace_dir))
        sidecar = SourceSpec(kind="trace-dir", path=str(trace_dir),
                             cache=True, mmap=True)
        rounded = SourceSpec(kind="trace-dir", path=str(trace_dir),
                             cache=True, storage="float32")
        assert source_key(plain) == source_key(sidecar)
        assert source_key(plain) != source_key(rounded)

    def test_byte_change_in_trace_invalidates(self, tmp_path):
        trace_dir = tmp_path / "trace"
        write_trace(generate_trace(fast_config("hotjob", seed=7)), trace_dir)
        cache_dir = tmp_path / "cache"
        spec = {"source": {"kind": "trace-dir", "path": str(trace_dir)},
                "metrics": ["cpu"], "sinks": ["score"],
                "result_cache": {"dir": str(cache_dir)}}
        assert Pipeline.from_spec(spec).run().timings["result_cache"] == "miss"
        assert Pipeline.from_spec(spec).run().timings["result_cache"] == "hit"
        usage = trace_dir / "server_usage.csv"
        text = usage.read_text(encoding="utf-8")
        digit = next(i for i, c in enumerate(text) if c.isdigit())
        flipped = "1" if text[digit] != "1" else "2"
        usage.write_text(text[:digit] + flipped + text[digit + 1:],
                         encoding="utf-8")
        assert Pipeline.from_spec(spec).run().timings["result_cache"] == "miss"

    def test_missing_trace_dir_bypasses(self, tmp_path):
        assert source_key(SourceSpec(kind="trace-dir",
                                     path=str(tmp_path / "gone"))) is None

    def test_bundle_streaming_and_plans_pipelines_bypass(self, tmp_path):
        options = ResultCacheOptions(dir=str(tmp_path / "cache"))
        bundle = generate_trace(fast_config("hotjob", seed=7))
        by_bundle = Pipeline.from_bundle(
            bundle, sinks=(), result_cache=options).run()
        assert by_bundle.timings["result_cache"] == "bypass"
        streaming = Pipeline.from_spec(spec_for(
            tmp_path / "cache", mode="streaming", sinks=["alerts"])).run()
        assert streaming.timings["result_cache"] == "bypass"
        by_plans = Pipeline(
            SourceSpec(kind="synthetic", scenario="hotjob", seed=7),
            plans=(), sinks=(), result_cache=options).run()
        assert by_plans.timings["result_cache"] == "bypass"
        assert not list((tmp_path / "cache").glob("*.npz"))


class TestVersioning:
    """Entries from an older ledger version are stale, never served."""

    def test_version_1_entry_is_a_miss_and_recomputes(self, tmp_path,
                                                      monkeypatch):
        # Version 1 entries hold z-scores from the pre-fixed-order kernel,
        # which differ from today's in the last ULPs.
        cache_dir = tmp_path / "cache"
        spec = spec_for(cache_dir, detectors="zscore+ewma")
        monkeypatch.setattr(resultcache, "RESULT_CACHE_VERSION", 1)
        old = Pipeline.from_spec(spec).run()
        assert old.timings["result_cache"] == "miss"
        (old_entry,) = cache_dir.glob("*.npz")
        monkeypatch.undo()

        assert resultcache.RESULT_CACHE_VERSION > 1
        rerun = Pipeline.from_spec(spec).run()
        assert rerun.timings["result_cache"] == "miss"
        assert rerun.timings["detect_s"] > 0.0
        assert_runs_identical(old, rerun)
        assert len(list(cache_dir.glob("*.npz"))) == 2
        assert Pipeline.from_spec(spec).run().timings["result_cache"] == "hit"

        # Even planted in the current key's slot, a version-1 header misses.
        (new_entry,) = set(cache_dir.glob("*.npz")) - {old_entry}
        new_entry.write_bytes(old_entry.read_bytes())
        assert ResultCache(cache_dir).load(new_entry.stem) is None


class TestCorruptEntriesReadAbsent:
    @pytest.fixture(scope="class")
    def entry(self, tmp_path_factory):
        """(key, entry bytes, pristine RunResult) of one cached run."""
        cache_dir = tmp_path_factory.mktemp("entry-cache")
        spec = spec_for(cache_dir)
        cold = Pipeline.from_spec(spec).run()
        paths = list(cache_dir.glob("*.npz"))
        assert len(paths) == 1
        return paths[0].stem, paths[0].read_bytes(), cold

    def test_truncated_entry_is_a_miss_and_heals(self, tmp_path):
        cache_dir = tmp_path / "cache"
        spec = spec_for(cache_dir)
        cold = Pipeline.from_spec(spec).run()
        path = next(cache_dir.glob("*.npz"))
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        healed = Pipeline.from_spec(spec).run()
        assert healed.timings["result_cache"] == "miss"
        assert_runs_identical(cold, healed)
        assert Pipeline.from_spec(spec).run().timings["result_cache"] == "hit"

    def test_garbage_entry_is_a_miss(self, tmp_path, entry):
        key, _, _ = entry
        cache = ResultCache(tmp_path)
        cache.entry_path(key).parent.mkdir(exist_ok=True)
        cache.entry_path(key).write_bytes(b"not a zip archive at all")
        assert cache.load(key) is None

    def test_wrong_key_in_header_is_a_miss(self, tmp_path, entry):
        key, raw, _ = entry
        other = ("0" if key[0] != "0" else "1") + key[1:]
        cache = ResultCache(tmp_path)
        cache.entry_path(other).write_bytes(raw)   # honest bytes, wrong slot
        assert cache.load(other) is None

    def test_malformed_key_rejected(self, tmp_path):
        with pytest.raises(PipelineError):
            ResultCache(tmp_path).entry_path("../escape")

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_any_truncation_reads_absent_or_identical(self, tmp_path_factory,
                                                      entry, data):
        key, raw, cold = entry
        cut = data.draw(st.integers(min_value=0, max_value=len(raw)))
        cache = ResultCache(tmp_path_factory.mktemp("trunc"))
        cache.directory.mkdir(exist_ok=True)
        cache.entry_path(key).write_bytes(raw[:cut])
        restored = cache.load(key)
        if restored is not None:
            assert_runs_identical(cold, restored)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_any_byte_flip_reads_absent_or_identical(self, tmp_path_factory,
                                                     entry, data):
        key, raw, cold = entry
        pos = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
        flip = data.draw(st.integers(min_value=1, max_value=255))
        mutated = bytearray(raw)
        mutated[pos] ^= flip
        cache = ResultCache(tmp_path_factory.mktemp("flip"))
        cache.directory.mkdir(exist_ok=True)
        cache.entry_path(key).write_bytes(bytes(mutated))
        restored = cache.load(key)
        if restored is not None:
            assert_runs_identical(cold, restored)


class TestMaintenance:
    def test_prune_evicts_least_recently_used(self, tmp_path):
        cache_dir = tmp_path / "cache"
        for seed in (1, 2, 3):
            Pipeline.from_spec(spec_for(cache_dir, scenario="hotjob",
                                        seed=seed)).run()
        cache = ResultCache(cache_dir)
        entries = sorted(cache_dir.glob("*.npz"))
        assert len(entries) == 3
        # Pin recency explicitly: entries[0] oldest ... entries[2] newest.
        for age, path in enumerate(entries):
            stamp = (1_000_000 + age) * 10**9
            os.utime(path, ns=(stamp, stamp))
        keep = entries[2].stat().st_size
        stats = cache.prune(max_bytes=keep)
        assert stats["evicted"] == 2
        assert [p for p in entries if p.exists()] == [entries[2]]
        assert stats == {**cache.stats(), "evicted": 2}

    def test_load_refreshes_recency(self, tmp_path):
        cache_dir = tmp_path / "cache"
        spec = spec_for(cache_dir)
        Pipeline.from_spec(spec).run()
        path = next(cache_dir.glob("*.npz"))
        os.utime(path, ns=(10**9, 10**9))
        before = path.stat().st_atime_ns
        assert ResultCache(cache_dir).load(path.stem) is not None
        assert path.stat().st_atime_ns > before

    def test_prune_rejects_negative_budget(self, tmp_path):
        with pytest.raises(PipelineError):
            ResultCache(tmp_path).prune(-1)

    def test_stats_on_missing_directory(self, tmp_path):
        assert ResultCache(tmp_path / "gone").stats() == {"entries": 0,
                                                          "bytes": 0}


class TestSpecRoundTrip:
    def test_result_cache_survives_to_spec(self, tmp_path):
        spec = spec_for(tmp_path / "cache")
        pipeline = Pipeline.from_spec(spec)
        out = pipeline.to_spec()
        assert out["result_cache"] == {"dir": str(tmp_path / "cache")}
        assert Pipeline.from_spec(out).to_spec() == out

    def test_disabled_round_trips(self):
        options = ResultCacheOptions(dir="ledger", enabled=False)
        assert options.to_dict() == {"dir": "ledger", "enabled": False}
        assert ResultCacheOptions.from_dict(options.to_dict()) == options

    def test_options_validate(self):
        with pytest.raises(PipelineError):
            ResultCacheOptions(dir="")
        with pytest.raises(PipelineError):
            ResultCacheOptions.from_dict({"dir": "x", "bogus": 1})
        with pytest.raises(PipelineError):
            ResultCacheOptions.from_dict({"enabled": True})

    def test_scored_entry_round_trips_through_json(self, tmp_path):
        result = Pipeline.from_spec(spec_for(tmp_path / "cache")).run()
        assert result.scores
        for scored in result.scores:
            raw = json.loads(json.dumps(scored.to_dict()))
            assert ScoredEntry.from_dict(raw) == scored

    def test_evaluation_result_round_trips(self):
        result = EvaluationResult(precision=0.75, recall=0.5,
                                  true_positives=3, false_positives=1,
                                  false_negatives=3)
        raw = json.loads(json.dumps(result.to_dict()))
        assert EvaluationResult.from_dict(raw) == result
        with pytest.raises(KeyError):
            EvaluationResult.from_dict({"precision": 1.0})


class TestSweepResume:
    def test_interrupted_sweep_resumes_without_recompute(self, tmp_path,
                                                         monkeypatch):
        cache_dir = tmp_path / "cache"
        scenarios = ["hotjob", "thrashing", "memory-thrash"]
        engine_runs = []
        original = Pipeline._run_batch

        def counting(self, *args, **kwargs):
            engine_runs.append(self.source.scenario)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Pipeline, "_run_batch", counting)

        class Interrupt(Exception):
            pass

        def stop_after_two(cell):
            if cell.scenario == "thrashing":
                raise Interrupt

        with pytest.raises(Interrupt):
            sweep_scenarios(scenarios, cache_dir=cache_dir,
                            progress=stop_after_two)
        assert engine_runs == ["hotjob", "thrashing"]

        engine_runs.clear()
        cells = sweep_scenarios(scenarios, cache_dir=cache_dir)
        assert engine_runs == ["memory-thrash"]   # only the unfinished cell
        assert [cell.cached for cell in cells] == [True, True, False]
        assert [cell.scenario for cell in cells] == scenarios
        resumed = sweep_scenarios(scenarios, cache_dir=cache_dir)
        assert [cell.cached for cell in resumed] == [True, True, True]
        for fresh, cached in zip(cells, resumed):
            assert fresh.scores == cached.scores
            assert fresh.worst_f1 == cached.worst_f1

    def test_sweep_without_cache_recomputes(self, monkeypatch):
        calls = []
        original = Pipeline._run_batch

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Pipeline, "_run_batch", counting)
        cells = sweep_scenarios(["hotjob"], seeds=(1, 2))
        assert len(calls) == 2
        assert all(not cell.cached for cell in cells)
