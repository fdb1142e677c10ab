"""Tests for the metric-based anomaly detectors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from repro.analysis.detectors import (
    _SLAB_VALUES,
    AnomalyEvent,
    EwmaDetector,
    RollingZScoreDetector,
    ThresholdDetector,
    _rolling_mean_std,
    detect_all,
    merge_events,
)
from repro.errors import SeriesError
from repro.metrics.series import TimeSeries
from repro.metrics.store import MetricStore


def flat_with_spike(level=20.0, spike=95.0, n=50, spike_at=30, width=3) -> TimeSeries:
    values = np.full(n, level)
    values[spike_at:spike_at + width] = spike
    return TimeSeries(np.arange(n) * 60.0, values)


class TestThresholdDetector:
    def test_detects_interval_above_threshold(self):
        events = ThresholdDetector(90.0).detect(flat_with_spike(), subject="m1")
        assert len(events) == 1
        event = events[0]
        assert event.start == 30 * 60.0
        assert event.end == 32 * 60.0
        assert event.subject == "m1"
        assert event.kind == "threshold"

    def test_no_events_below_threshold(self):
        events = ThresholdDetector(99.0).detect(flat_with_spike(spike=95))
        assert events == []

    def test_min_duration_filter(self):
        detector = ThresholdDetector(90.0, min_duration_s=600)
        assert detector.detect(flat_with_spike(width=2)) == []

    def test_event_reaching_series_end(self):
        values = np.concatenate([np.full(10, 10.0), np.full(5, 99.0)])
        series = TimeSeries(np.arange(15) * 60.0, values)
        events = ThresholdDetector(90.0).detect(series)
        assert len(events) == 1
        assert events[0].end == series.end

    def test_invalid_threshold(self):
        with pytest.raises(SeriesError):
            ThresholdDetector(0.0)
        with pytest.raises(SeriesError):
            ThresholdDetector(150.0)

    def test_empty_series(self):
        assert ThresholdDetector().detect(TimeSeries.empty()) == []


class TestRollingZScore:
    def test_detects_level_shift(self):
        events = RollingZScoreDetector(window=8, z_threshold=2.5).detect(
            flat_with_spike(), subject="m2")
        assert len(events) >= 1
        assert any(e.start <= 30 * 60.0 <= e.end + 120 for e in events)

    def test_quiet_series_has_no_events(self):
        rng = np.random.default_rng(0)
        series = TimeSeries(np.arange(100) * 60.0, 20 + rng.normal(0, 0.5, 100))
        assert RollingZScoreDetector(window=10, z_threshold=4.0).detect(series) == []

    def test_short_series_returns_nothing(self):
        assert RollingZScoreDetector(window=10).detect(
            TimeSeries([0, 1], [1, 2])) == []

    def test_invalid_parameters(self):
        with pytest.raises(SeriesError):
            RollingZScoreDetector(window=1)
        with pytest.raises(SeriesError):
            RollingZScoreDetector(z_threshold=0)


class TestEwmaDetector:
    def test_detects_jump(self):
        events = EwmaDetector(alpha=0.3, deviation_threshold=30.0).detect(
            flat_with_spike())
        assert len(events) >= 1

    def test_slow_drift_not_flagged(self):
        series = TimeSeries(np.arange(100) * 60.0, np.linspace(10, 30, 100))
        assert EwmaDetector(alpha=0.3, deviation_threshold=10.0).detect(series) == []

    def test_invalid_parameters(self):
        with pytest.raises(SeriesError):
            EwmaDetector(alpha=0.0)
        with pytest.raises(SeriesError):
            EwmaDetector(deviation_threshold=-1)


SPECIALS = (np.nan, np.inf, -np.inf)


@st.composite
def metric_blocks(draw, *, min_samples=2):
    """A read-only, non-contiguous ``metric_block`` view of a random store.

    Up to 200 rows × 400 samples, so the widest blocks span several
    ``_SLAB_VALUES`` row slabs; a few NaN/inf cells are planted.
    """
    rows = draw(st.integers(1, 200))
    samples = draw(st.integers(min_samples, 400))
    scale = draw(st.sampled_from((1.0, 100.0, 1e6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    store = MetricStore([f"m{i}" for i in range(rows)],
                        np.arange(samples) * 60.0)
    store.data[:] = rng.uniform(-scale, scale, store.data.shape)
    metric = draw(st.sampled_from(store.metrics))
    position = store.metrics.index(metric)
    for row, sample, value in draw(st.lists(
            st.tuples(st.integers(0, rows - 1), st.integers(0, samples - 1),
                      st.sampled_from(SPECIALS)), max_size=6)):
        store.data[row, position, sample] = value
    store.data.flags.writeable = False
    block = store.metric_block(metric)
    assert not block.flags.writeable
    assert rows == 1 or not block.flags.c_contiguous
    return block


def reference_mean_std(values, window):
    windows = sliding_window_view(values, window, axis=1)
    return windows.mean(axis=2), windows.std(axis=2)


def assert_matches_reference(values, window):
    with np.errstate(invalid="ignore"):   # inf - inf inside planted windows
        mean, std = _rolling_mean_std(values, window)
        want_mean, want_std = reference_mean_std(values, window)
    # Summation error is bounded relative to the magnitudes summed, not to
    # the result, so the absolute slack scales with the block's values.
    finite = values[np.isfinite(values)]
    atol = 1e-12 * (float(np.abs(finite).max()) if finite.size else 1.0)
    np.testing.assert_allclose(mean, want_mean, rtol=1e-12, atol=atol)
    np.testing.assert_allclose(std, want_std, rtol=1e-12, atol=atol)


class TestRollingMeanStd:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_sliding_window_reference(self, data):
        values = data.draw(metric_blocks())
        assert_matches_reference(values, window=data.draw(
            st.integers(2, values.shape[1])))

    @pytest.mark.parametrize("window", (2, 12, 399))
    def test_wide_block_spans_several_slabs(self, window):
        rng = np.random.default_rng(window)
        values = rng.uniform(0.0, 100.0, (200, 400))
        assert values.shape[0] > 2 * (_SLAB_VALUES // values.shape[1])
        assert_matches_reference(values, window)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_window_stats_depend_only_on_the_window(self, data):
        """Suffixes and row subsets reproduce the full sweep bit for bit."""
        values = data.draw(metric_blocks())
        window = data.draw(st.integers(2, values.shape[1]))
        with np.errstate(invalid="ignore"):
            mean, std = _rolling_mean_std(values, window)
            skip = data.draw(st.integers(0, values.shape[1] - window))
            tail_mean, tail_std = _rolling_mean_std(values[:, skip:], window)
            np.testing.assert_array_equal(tail_mean, mean[:, skip:])
            np.testing.assert_array_equal(tail_std, std[:, skip:])
            lo = data.draw(st.integers(0, values.shape[0] - 1))
            row_mean, row_std = _rolling_mean_std(values[lo:], window)
            np.testing.assert_array_equal(row_mean, mean[lo:])
            np.testing.assert_array_equal(row_std, std[lo:])


def ewma_column_loop(values, alpha, threshold):
    """The original EWMA kernel: one strided column per recurrence step."""
    num_rows, num_samples = values.shape
    mask = np.zeros((num_rows, num_samples), dtype=bool)
    scores = np.zeros((num_rows, num_samples), dtype=np.float64)
    if num_samples < 2:
        return mask, scores
    smoothed = np.empty_like(values)
    smoothed[:, 0] = values[:, 0]
    decay = 1.0 - alpha
    for i in range(1, num_samples):
        smoothed[:, i] = alpha * values[:, i] + decay * smoothed[:, i - 1]
    residual = np.abs(values[:, 1:] - smoothed[:, :-1])
    mask[:, 1:] = residual >= threshold
    scores[:, 1:] = residual
    return mask, scores


class TestEwmaKernel:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_to_column_loop(self, data):
        values = data.draw(metric_blocks(min_samples=1))
        alpha = data.draw(st.floats(0.01, 1.0))
        detector = EwmaDetector(alpha=alpha, deviation_threshold=15.0)
        with np.errstate(invalid="ignore"):
            want_mask, want_scores = ewma_column_loop(values, alpha, 15.0)
            block = detector.detect_block(np.arange(values.shape[1]) * 60.0,
                                          values)
            np.testing.assert_array_equal(block.mask, want_mask)
            np.testing.assert_array_equal(block.scores, want_scores)

            # Any chunking of the incremental kernel gives the same bits.
            chunk = data.draw(st.integers(1, values.shape[1]))
            state = detector.make_stream_state(values.shape[0])
            streamed = [detector._stream_mask(state, None,
                                              values[:, lo:lo + chunk])[1]
                        for lo in range(0, values.shape[1], chunk)]
            np.testing.assert_array_equal(np.concatenate(streamed, axis=1),
                                          want_scores)


class TestDetectAllAndMerge:
    def test_detect_all_pools_detectors(self):
        events = detect_all(flat_with_spike(), metric="cpu", subject="m")
        kinds = {e.kind for e in events}
        assert "threshold" in kinds
        assert len(events) >= 2
        assert events == sorted(events, key=lambda e: (e.start, e.kind))

    def test_merge_overlapping_events(self):
        events = [
            AnomalyEvent(0, 100, "cpu", "m1", "threshold", 1.0),
            AnomalyEvent(50, 200, "cpu", "m1", "zscore", 2.0),
            AnomalyEvent(500, 600, "cpu", "m1", "threshold", 3.0),
            AnomalyEvent(0, 100, "cpu", "m2", "threshold", 1.0),
        ]
        merged = merge_events(events)
        m1_events = [e for e in merged if e.subject == "m1"]
        assert len(m1_events) == 2
        assert m1_events[0].end == 200
        assert m1_events[0].score == 2.0

    def test_merge_with_gap_tolerance(self):
        events = [AnomalyEvent(0, 100, "cpu", "m", "t", 1.0),
                  AnomalyEvent(150, 300, "cpu", "m", "t", 1.0)]
        assert len(merge_events(events)) == 2
        assert len(merge_events(events, gap_s=60)) == 1

    def test_event_overlap_helper(self):
        event = AnomalyEvent(100, 200, "cpu", "m", "t", 1.0)
        assert event.overlaps(150, 400)
        assert event.overlaps(0, 100)
        assert not event.overlaps(201, 400)
        assert event.duration == 100
