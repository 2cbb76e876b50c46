"""Tests for dense event bins and conversion overhead accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.events import EventStream, SensorGeometry
from repro.frames import (
    assign_event_bins,
    discretized_event_bins,
    encode_cost,
    events_to_sparse_cost,
)


@pytest.fixture()
def simple_stream():
    geometry = SensorGeometry(width=16, height=12)
    x = np.array([0, 1, 2, 3, 3])
    y = np.array([0, 1, 2, 3, 3])
    t = np.array([0.0, 0.25, 0.5, 0.75, 0.9])
    p = np.array([1, -1, 1, 1, -1])
    return EventStream(x, y, t, p, geometry)


class TestBinning:
    def test_assign_event_bins_equation1(self):
        # biS = (1.0 - 0.0) / 4 = 0.25; EB_k = floor(t / 0.25)
        t = np.array([0.0, 0.1, 0.25, 0.6, 0.99, 1.0])
        bins = assign_event_bins(t, 0.0, 1.0, 4)
        assert list(bins) == [0, 0, 1, 2, 3, 3]

    def test_assign_event_bins_clamps_last(self):
        bins = assign_event_bins(np.array([1.0]), 0.0, 1.0, 10)
        assert bins[0] == 9

    def test_assign_rejects_invalid(self):
        with pytest.raises(ValueError):
            assign_event_bins(np.array([0.0]), 0.0, 1.0, 0)
        with pytest.raises(ValueError):
            assign_event_bins(np.array([0.0]), 1.0, 0.5, 2)


class TestDenseFrames:
    def test_discretized_event_bins_conserves_events(self, simple_stream):
        grid = discretized_event_bins(simple_stream, 0.0, 1.0, 4)
        assert grid.shape == (4, 2, 12, 16)
        assert grid.sum() == len(simple_stream)

    def test_discretized_empty_window(self, simple_stream):
        grid = discretized_event_bins(simple_stream, 5.0, 6.0, 4)
        assert grid.sum() == 0


class TestConversionCosts:
    def test_cost_addition(self):
        encode, direct = encode_cost(10, 10, 5), events_to_sparse_cost(7, 5)
        total = encode + direct
        assert total.operations == encode.operations + direct.operations
        assert total.total_bytes == encode.total_bytes + direct.total_bytes

    def test_direct_path_cheaper_for_sparse_input(self):
        """E2SF's core claim: events->sparse is cheaper than events->dense->sparse
        when the frame is sparse, because it never scans the dense pixel grid."""
        height, width = 260, 346
        num_events = 500
        nnz = 400
        direct = events_to_sparse_cost(num_events, nnz)
        via_dense = encode_cost(height, width, nnz)
        assert direct.operations < via_dense.operations
        assert direct.total_bytes < via_dense.total_bytes

    def test_dense_path_can_win_when_dense(self):
        """With near-full occupancy the dense scan is no longer the bottleneck."""
        height, width = 32, 32
        nnz = height * width
        num_events = 20 * nnz
        direct = events_to_sparse_cost(num_events, nnz)
        via_dense = encode_cost(height, width, nnz)
        assert direct.operations > via_dense.operations
