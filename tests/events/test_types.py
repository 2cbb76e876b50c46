"""Tests for repro.events.types."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import EventStream, SensorGeometry, concatenate_streams


def make_stream(n=100, seed=0, geometry=None):
    geometry = geometry or SensorGeometry(width=32, height=24)
    rng = np.random.default_rng(seed)
    x = rng.integers(0, geometry.width, n)
    y = rng.integers(0, geometry.height, n)
    t = np.sort(rng.uniform(0, 1, n))
    p = rng.choice([-1, 1], n)
    return EventStream(x, y, t, p, geometry)


class TestSensorGeometry:
    def test_defaults_are_davis346(self):
        g = SensorGeometry()
        assert (g.width, g.height) == (346, 260)
        assert g.num_pixels == 346 * 260

    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ValueError):
            SensorGeometry(width=0, height=10)
        with pytest.raises(ValueError):
            SensorGeometry(width=10, height=-1)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            SensorGeometry(contrast_threshold=0.0)

    def test_rejects_negative_refractory(self):
        with pytest.raises(ValueError):
            SensorGeometry(refractory_period=-1.0)


class TestEventStreamConstruction:
    def test_empty_stream(self):
        s = EventStream.empty()
        assert len(s) == 0
        assert s.duration == 0.0

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            EventStream(np.zeros(3), np.zeros(2), np.zeros(3), np.ones(3))

    def test_out_of_bounds_rejected(self):
        g = SensorGeometry(width=8, height=8)
        with pytest.raises(ValueError):
            EventStream([10], [0], [0.0], [1], g)
        with pytest.raises(ValueError):
            EventStream([0], [9], [0.0], [1], g)

    def test_bad_polarity_rejected(self):
        g = SensorGeometry(width=8, height=8)
        with pytest.raises(ValueError):
            EventStream([0], [0], [0.0], [3], g)

    def test_unsorted_timestamps_get_sorted(self):
        g = SensorGeometry(width=8, height=8)
        s = EventStream([0, 1, 2], [0, 0, 0], [0.3, 0.1, 0.2], [1, -1, 1], g)
        assert np.all(np.diff(s.t) >= 0)
        assert list(s.x) == [1, 2, 0]

    def test_two_dimensional_columns_rejected(self):
        with pytest.raises(ValueError):
            EventStream(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)), np.ones((2, 2)))

    def test_iteration_yields_python_tuples(self):
        g = SensorGeometry(width=8, height=8)
        s = EventStream([3, 1], [2, 5], [0.1, 0.2], [1, -1], g)
        events = list(s)
        assert events == [(3, 2, 0.1, 1), (1, 5, 0.2, -1)]
        assert all(type(v) in (int, float) for event in events for v in event)

    def test_repr_reports_count_span_and_sensor(self):
        assert repr(EventStream.empty()) == "EventStream(num_events=0)"
        g = SensorGeometry(width=8, height=6)
        text = repr(EventStream([0, 1], [0, 0], [0.25, 0.5], [1, 1], g))
        assert "num_events=2" in text
        assert "t=[0.250000, 0.500000]" in text
        assert "sensor=8x6" in text

    def test_equality_compares_geometry_and_type(self):
        s = make_stream(20)
        same_events_other_sensor = EventStream(
            s.x, s.y, s.t, s.p, SensorGeometry(width=64, height=64)
        )
        assert s == s.copy()
        assert s != same_events_other_sensor
        assert s != "not a stream"

    def test_copy_is_independent(self):
        s = make_stream(20)
        clone = s.copy()
        clone.x[0] = (clone.x[0] + 1) % s.geometry.width
        clone.t[-1] += 1.0
        assert clone.geometry == s.geometry
        assert clone.x[0] != s.x[0]
        assert clone.t[-1] != s.t[-1]


class TestEventStreamSlicing:
    def test_slice_time_bounds(self):
        s = make_stream(1000)
        sliced = s.slice_time(0.25, 0.75)
        assert np.all(sliced.t >= 0.25)
        assert np.all(sliced.t < 0.75)

    def test_slice_time_full_range_is_identity(self):
        s = make_stream(200)
        assert len(s.slice_time(-1.0, 2.0)) == len(s)

    def test_slice_index_selects_positions(self):
        s = make_stream(50)
        sliced = s.slice_index(10, 20)
        assert len(sliced) == 10
        assert np.array_equal(sliced.x, s.x[10:20])
        assert np.array_equal(sliced.t, s.t[10:20])
        assert sliced.geometry == s.geometry


class TestEventStreamStatistics:
    def test_temporal_density_sums_to_total(self):
        s = make_stream(2000)
        counts = s.temporal_density(0.1)
        assert counts.sum() == len(s)

    def test_temporal_density_rejects_bad_window(self):
        s = make_stream(10)
        with pytest.raises(ValueError):
            s.temporal_density(0.0)

    def test_empty_stream_statistics(self):
        s = EventStream.empty(SensorGeometry(width=8, height=8))
        assert s.t_start == 0.0
        assert s.t_end == 0.0
        counts = s.temporal_density(0.1)
        assert counts.size == 0
        assert counts.dtype == np.int64


class TestConcatenate:
    def test_concatenate_sorts_by_time(self):
        a = make_stream(100, seed=1)
        b = make_stream(100, seed=2)
        merged = concatenate_streams([a, b])
        assert len(merged) == 200
        assert np.all(np.diff(merged.t) >= 0)

    def test_concatenate_empty_list(self):
        assert len(concatenate_streams([])) == 0

    def test_concatenate_rejects_mixed_geometry(self):
        a = make_stream(10, geometry=SensorGeometry(width=32, height=24))
        b = make_stream(10, geometry=SensorGeometry(width=16, height=16))
        with pytest.raises(ValueError):
            concatenate_streams([a, b])


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=500),
    seed=st.integers(min_value=0, max_value=10_000),
    window=st.floats(min_value=0.01, max_value=0.5),
)
def test_property_temporal_density_conserves_events(n, seed, window):
    """Property: binning events into time windows never loses or adds events."""
    geometry = SensorGeometry(width=16, height=16)
    rng = np.random.default_rng(seed)
    if n == 0:
        stream = EventStream.empty(geometry)
    else:
        stream = EventStream(
            rng.integers(0, 16, n),
            rng.integers(0, 16, n),
            np.sort(rng.uniform(0, 1, n)),
            rng.choice([-1, 1], n),
            geometry,
        )
    assert stream.temporal_density(window).sum() == len(stream)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=10_000),
    cut=st.floats(min_value=0.0, max_value=1.0),
)
def test_property_slice_partition(n, seed, cut):
    """Property: slicing at any cut point partitions the stream."""
    geometry = SensorGeometry(width=16, height=16)
    rng = np.random.default_rng(seed)
    stream = EventStream(
        rng.integers(0, 16, n),
        rng.integers(0, 16, n),
        np.sort(rng.uniform(0, 1, n)),
        rng.choice([-1, 1], n),
        geometry,
    )
    left = stream.slice_time(-np.inf, cut)
    right = stream.slice_time(cut, np.inf)
    assert len(left) + len(right) == len(stream)


class TestConcatenateGeometry:
    def test_all_empty_inputs_preserve_geometry(self):
        geometry = SensorGeometry(width=64, height=48)
        merged = concatenate_streams(
            [EventStream.empty(geometry), EventStream.empty(geometry)]
        )
        assert len(merged) == 0
        assert merged.geometry == geometry

    def test_all_empty_inputs_with_mixed_geometry_rejected(self):
        with pytest.raises(ValueError):
            concatenate_streams(
                [
                    EventStream.empty(SensorGeometry(width=64, height=48)),
                    EventStream.empty(SensorGeometry(width=32, height=24)),
                ]
            )

    def test_empty_stream_mixed_with_events_keeps_seed_behaviour(self):
        # Empty inputs are still filtered out before the geometry check.
        stream = make_stream(10)
        merged = concatenate_streams([EventStream.empty(), stream])
        assert len(merged) == 10
        assert merged.geometry == stream.geometry
