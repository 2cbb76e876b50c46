"""Tests for dataset generation and noise injection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.events import (
    BackgroundActivityNoise,
    EventStream,
    HotPixelNoise,
    NoisePipeline,
    available_sequences,
    generate_sequence,
)


class TestDatasets:
    def test_available_sequences_cover_paper_datasets(self):
        names = available_sequences()
        for expected in [
            "indoor_flying1",
            "indoor_flying2",
            "indoor_flying3",
            "outdoor_day1",
            "town10",
        ]:
            assert expected in names

    def test_unknown_sequence_raises(self):
        with pytest.raises(KeyError):
            generate_sequence("does_not_exist")

    def test_invalid_scale_raises(self):
        with pytest.raises(ValueError):
            generate_sequence("indoor_flying1", scale=0.0)

    def test_sequence_structure(self, indoor_sequence):
        seq = indoor_sequence
        assert len(seq.events) > 0
        assert len(seq.frames) >= 2
        assert seq.num_intervals == len(seq.frames) - 1
        assert len(seq.ground_truth) == seq.num_intervals
        assert seq.frame_timestamps.shape == (len(seq.frames),)

    def test_sequence_determinism(self):
        a = generate_sequence("calibration_bars", scale=0.15, duration=0.4, seed=3)
        b = generate_sequence("calibration_bars", scale=0.15, duration=0.4, seed=3)
        assert a.events == b.events

    def test_interval_view(self, indoor_sequence):
        view = indoor_sequence.interval(0)
        t0 = indoor_sequence.frames[0].timestamp
        t1 = indoor_sequence.frames[1].timestamp
        assert view.num_intervals == 1
        if len(view.events):
            assert view.events.t_start >= t0
            assert view.events.t_end <= t1

    def test_interval_out_of_range(self, indoor_sequence):
        with pytest.raises(IndexError):
            indoor_sequence.interval(10_000)

    def test_noise_flag_changes_event_count(self):
        clean = generate_sequence("indoor_flying1", scale=0.15, duration=0.4, seed=0, with_noise=False)
        noisy = generate_sequence("indoor_flying1", scale=0.15, duration=0.4, seed=0, with_noise=True)
        assert len(noisy.events) > len(clean.events)

    def test_indoor_flying_is_bursty(self):
        seq = generate_sequence("indoor_flying2", scale=0.2, duration=1.0, seed=0)
        density = seq.events.temporal_density(0.05)
        assert density.max() > 2 * max(np.median(density), 1)


def events_per_pixel(stream: EventStream) -> np.ndarray:
    """Event count of every pixel of the stream's sensor, flattened."""
    geometry = stream.geometry
    keys = stream.y.astype(np.int64) * geometry.width + stream.x
    return np.bincount(keys, minlength=geometry.num_pixels)


class TestNoise:
    @pytest.fixture()
    def base_stream(self, random_events):
        return random_events

    def test_background_activity_adds_events(self, base_stream):
        noisy = BackgroundActivityNoise(rate_hz=5000.0, seed=0).apply(base_stream)
        assert len(noisy) > len(base_stream)

    def test_background_zero_rate_is_identity(self, base_stream):
        noisy = BackgroundActivityNoise(rate_hz=0.0, seed=0).apply(base_stream)
        assert len(noisy) == len(base_stream)

    def test_hot_pixels_concentrate_events(self, base_stream):
        noisy = HotPixelNoise(num_hot_pixels=2, pixel_rate_hz=5000.0, seed=0).apply(base_stream)
        assert len(noisy) > len(base_stream)
        assert events_per_pixel(noisy).max() > events_per_pixel(base_stream).max()

    def test_hot_pixels_disabled_is_identity(self, base_stream):
        for noise in (
            HotPixelNoise(num_hot_pixels=0, seed=0),
            HotPixelNoise(num_hot_pixels=3, pixel_rate_hz=0.0, seed=0),
        ):
            assert noise.apply(base_stream) == base_stream

    def test_hot_pixels_with_negligible_rate_add_nothing(self, base_stream):
        # Every hot pixel draws zero events from its Poisson budget.
        noisy = HotPixelNoise(num_hot_pixels=4, pixel_rate_hz=1e-12, seed=0).apply(base_stream)
        assert noisy == base_stream

    def test_noise_on_empty_stream_returns_empty_copy(self, small_geometry):
        empty = EventStream.empty(small_geometry)
        for noise in (BackgroundActivityNoise(seed=0), HotPixelNoise(seed=0)):
            out = noise.apply(empty)
            assert out is not empty
            assert len(out) == 0
            assert out.geometry == small_geometry

    def test_noise_is_deterministic_per_seed(self, base_stream):
        for make in (
            lambda seed: BackgroundActivityNoise(rate_hz=3000.0, seed=seed),
            lambda seed: HotPixelNoise(num_hot_pixels=3, seed=seed),
        ):
            assert make(7).apply(base_stream) == make(7).apply(base_stream)
            assert make(7).apply(base_stream) != make(8).apply(base_stream)

    def test_noise_stays_inside_stream_window_and_sensor(self, base_stream):
        pipeline = NoisePipeline(
            BackgroundActivityNoise(rate_hz=5000.0, seed=0),
            HotPixelNoise(num_hot_pixels=3, pixel_rate_hz=5000.0, seed=1),
        )
        out = pipeline.apply(base_stream)
        geometry = base_stream.geometry
        assert out.t_start >= base_stream.t_start
        assert out.t_end <= base_stream.t_end
        assert out.x.max() < geometry.width and out.y.max() < geometry.height
        assert out.geometry == geometry

    def test_apply_leaves_input_stream_unchanged(self, base_stream):
        before = base_stream.copy()
        BackgroundActivityNoise(rate_hz=5000.0, seed=0).apply(base_stream)
        HotPixelNoise(num_hot_pixels=2, seed=0).apply(base_stream)
        assert base_stream == before

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BackgroundActivityNoise(rate_hz=-1.0)
        with pytest.raises(ValueError):
            HotPixelNoise(num_hot_pixels=-1)
        with pytest.raises(ValueError):
            HotPixelNoise(pixel_rate_hz=-1.0)

    def test_empty_pipeline_passes_stream_through(self, base_stream):
        assert NoisePipeline().apply(base_stream) == base_stream

    def test_pipeline_composes(self, base_stream):
        pipeline = NoisePipeline(
            BackgroundActivityNoise(rate_hz=2000.0, seed=0),
            HotPixelNoise(num_hot_pixels=2, seed=1),
        )
        out = pipeline.apply(base_stream)
        assert isinstance(out, EventStream)
        assert np.all(np.diff(out.t) >= 0)
