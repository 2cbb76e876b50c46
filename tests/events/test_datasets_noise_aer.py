"""Tests for dataset generation and noise injection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.events import (
    BackgroundActivityNoise,
    EventDropNoise,
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
        counts = noisy.events_per_pixel()
        assert counts.max() > base_stream.events_per_pixel().max()

    def test_event_drop_removes_fraction(self, base_stream):
        dropped = EventDropNoise(drop_probability=0.5, seed=0).apply(base_stream)
        assert len(dropped) < len(base_stream)
        assert len(dropped) > 0

    def test_event_drop_zero_probability(self, base_stream):
        dropped = EventDropNoise(drop_probability=0.0, seed=0).apply(base_stream)
        assert len(dropped) == len(base_stream)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BackgroundActivityNoise(rate_hz=-1.0)
        with pytest.raises(ValueError):
            HotPixelNoise(num_hot_pixels=-1)
        with pytest.raises(ValueError):
            EventDropNoise(drop_probability=1.5)

    def test_pipeline_composes(self, base_stream):
        pipeline = NoisePipeline(
            BackgroundActivityNoise(rate_hz=2000.0, seed=0),
            EventDropNoise(drop_probability=0.1, seed=1),
        )
        out = pipeline.apply(base_stream)
        assert isinstance(out, EventStream)
        assert np.all(np.diff(out.t) >= 0)
