"""Tests for the sparse COO frame representation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.frames import batch_to_dense_reference, frame_batch, to_dense_reference
from repro.frames import FrameStack, SparseFrame, SparseFrameBatch


def random_sparse_frame(seed=0, h=24, w=32, n_events=200, t_start=0.0, t_end=0.1):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, w, n_events)
    y = rng.integers(0, h, n_events)
    p = rng.choice([-1, 1], n_events)
    return SparseFrame.from_events(x, y, p, h, w, t_start, t_end)


class TestConstruction:
    def test_from_events_accumulates_polarities(self):
        frame = SparseFrame.from_events(
            x=[1, 1, 2], y=[3, 3, 4], p=[1, 1, -1], height=8, width=8
        )
        assert frame.num_active == 2
        dense = frame.to_dense()
        assert dense[0, 3, 1] == 2  # two positive events at (1, 3)
        assert dense[1, 4, 2] == 1  # one negative event at (2, 4)

    def test_empty_frame(self):
        frame = SparseFrame.empty(8, 8)
        assert frame.num_active == 0
        assert frame.density == 0.0
        assert frame.num_events == 0.0
        assert np.all(frame.to_dense() == 0)

    def test_from_dense_roundtrip(self):
        frame = random_sparse_frame(seed=1)
        dense = frame.to_dense()
        rebuilt = SparseFrame.from_dense(dense)
        assert rebuilt == frame

    def test_from_dense_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            SparseFrame.from_dense(np.zeros((3, 4, 4)))
        with pytest.raises(ValueError):
            SparseFrame.from_dense(np.zeros((4, 4)))

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            SparseFrame([10], [0], [1.0], [0.0], height=4, width=4)

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            SparseFrame([0, 1], [0], [1.0], [0.0], 4, 4)

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            SparseFrame.empty(0, 4)


class TestProperties:
    def test_density(self):
        frame = SparseFrame.from_events([0, 1], [0, 1], [1, 1], height=10, width=10)
        assert frame.density == pytest.approx(2 / 100)

    def test_num_events_counts_all(self):
        frame = SparseFrame.from_events(
            [0, 0, 1], [0, 0, 1], [1, -1, 1], height=4, width=4
        )
        assert frame.num_events == 3

    def test_memory_footprints(self):
        frame = random_sparse_frame()
        assert frame.nnz_bytes == frame.num_active * 24
        assert frame.dense_bytes == 2 * frame.height * frame.width * 4

    def test_duration(self):
        frame = SparseFrame.empty(4, 4, t_start=0.2, t_end=0.5)
        assert frame.duration == pytest.approx(0.3)

    def test_repr_contains_nnz(self):
        assert "nnz" in repr(random_sparse_frame())

    def test_scale_and_prune(self):
        frame = random_sparse_frame()
        scaled = frame.scale(0.0).prune_zeros()
        assert scaled.num_active == 0


class TestMergeOperations:
    def test_add_matches_dense_sum(self):
        a = random_sparse_frame(seed=1)
        b = random_sparse_frame(seed=2)
        merged = SparseFrame.add([a, b])
        assert np.allclose(merged.to_dense(), a.to_dense() + b.to_dense())

    def test_average_matches_dense_mean(self):
        frames = [random_sparse_frame(seed=s) for s in range(4)]
        merged = SparseFrame.average(frames)
        expected = np.mean([f.to_dense() for f in frames], axis=0)
        assert np.allclose(merged.to_dense(), expected)

    def test_add_time_span(self):
        a = random_sparse_frame(seed=1, t_start=0.0, t_end=0.1)
        b = random_sparse_frame(seed=2, t_start=0.1, t_end=0.2)
        merged = SparseFrame.add([a, b])
        assert merged.t_start == 0.0
        assert merged.t_end == pytest.approx(0.2)

    def test_add_empty_list_rejected(self):
        with pytest.raises(ValueError):
            SparseFrame.add([])
        with pytest.raises(ValueError):
            SparseFrame.average([])

    def test_add_mixed_dimensions_rejected(self):
        a = random_sparse_frame(h=24, w=32)
        b = random_sparse_frame(h=16, w=16)
        with pytest.raises(ValueError):
            SparseFrame.add([a, b])

    def test_density_change_symmetric_and_bounded(self):
        a = random_sparse_frame(seed=1, n_events=50)
        b = random_sparse_frame(seed=2, n_events=400)
        assert a.density_change(b) == pytest.approx(b.density_change(a))
        assert 0.0 <= a.density_change(b) <= 1.0

    def test_density_change_identical_is_zero(self):
        a = random_sparse_frame(seed=1)
        assert a.density_change(a) == 0.0

    def test_density_change_both_empty(self):
        a = SparseFrame.empty(8, 8)
        assert a.density_change(SparseFrame.empty(8, 8)) == 0.0


class TestBatch:
    def test_batch_dense_shape(self):
        frames = [random_sparse_frame(seed=s) for s in range(3)]
        batch = frame_batch(frames)
        assert len(batch) == 3
        assert batch.to_dense().shape == (3, 2, 24, 32)

    def test_batch_time_span_and_events(self):
        frames = [
            random_sparse_frame(seed=1, t_start=0.0, t_end=0.1),
            random_sparse_frame(seed=2, t_start=0.1, t_end=0.25),
        ]
        batch = frame_batch(frames)
        assert batch.t_start == 0.0
        assert batch.t_end == pytest.approx(0.25)
        assert batch.num_events == pytest.approx(sum(f.num_events for f in frames))

    def test_empty_batch(self):
        stack = FrameStack.from_frames([random_sparse_frame(seed=1)])
        batch = SparseFrameBatch.from_stack(stack, 0, 0)
        assert batch.mean_density == 0.0
        assert batch.num_events == 0.0


class TestEquality:
    def test_permuted_site_order_is_equal(self):
        frame = random_sparse_frame(seed=5)
        rng = np.random.default_rng(0)
        perm = rng.permutation(frame.num_active)
        shuffled = SparseFrame(
            frame.rows[perm], frame.cols[perm], frame.pos[perm], frame.neg[perm],
            frame.height, frame.width, frame.t_start, frame.t_end,
        )
        assert shuffled == frame
        assert frame == shuffled

    def test_eq_canonicalizes_each_side_once(self, monkeypatch):
        a = random_sparse_frame(seed=6)
        b = random_sparse_frame(seed=6)
        calls = {"n": 0}
        original = SparseFrame._canonical

        def counting(self):
            calls["n"] += 1
            return original(self)

        monkeypatch.setattr(SparseFrame, "_canonical", counting)
        assert a == b
        assert calls["n"] == 2

    def test_eq_differs_on_values_and_dims(self):
        a = random_sparse_frame(seed=7)
        assert a != a.scale(2.0)
        assert a != random_sparse_frame(seed=7, h=12, w=64)
        assert a != "not a frame"


class TestToDense:
    def test_matches_reference_on_duplicate_coordinates(self):
        # Construction via SparseFrame() does not forbid duplicate sites;
        # the bincount scatter must accumulate them exactly like np.add.at.
        frame = SparseFrame(
            [1, 1, 1, 2], [3, 3, 3, 0], [1.5, 2.0, 0.25, 1.0], [0.5, 0.0, 1.0, 0.0],
            height=4, width=5,
        )
        assert np.array_equal(frame.to_dense(), to_dense_reference(frame))
        assert frame.to_dense()[0, 1, 3] == 1.5 + 2.0 + 0.25

    def test_matches_reference_on_random_frames(self):
        for seed in range(5):
            frame = random_sparse_frame(seed=seed)
            assert np.array_equal(frame.to_dense(), to_dense_reference(frame))
        empty = SparseFrame.empty(8, 8)
        assert np.array_equal(empty.to_dense(), to_dense_reference(empty))


class TestFromEventsValidation:
    def test_zero_polarity_rejected(self):
        # p == 0 events used to vanish silently (neither channel counted
        # them); they must be rejected as malformed input instead.
        with pytest.raises(ValueError):
            SparseFrame.from_events([1, 2], [1, 2], [1, 0], 8, 8)

    def test_nonzero_polarities_accepted(self):
        frame = SparseFrame.from_events([1, 2], [1, 2], [2, -3], 8, 8)
        assert frame.num_events == 2.0


@settings(max_examples=25, deadline=None)
@given(
    seeds=st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=5),
    n_events=st.integers(min_value=0, max_value=300),
)
def test_property_add_conserves_event_count(seeds, n_events):
    """Property: cAdd merging conserves the total accumulated event count."""
    frames = [random_sparse_frame(seed=s, n_events=n_events) for s in seeds]
    merged = SparseFrame.add(frames)
    assert merged.num_events == pytest.approx(sum(f.num_events for f in frames))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5000), n=st.integers(min_value=0, max_value=500))
def test_property_dense_roundtrip(seed, n):
    """Property: sparse -> dense -> sparse is the identity."""
    frame = random_sparse_frame(seed=seed, n_events=n)
    assert SparseFrame.from_dense(frame.to_dense()) == frame


class TestStackBackedBatch:
    def _stack(self, n=5):
        frames = [
            random_sparse_frame(seed=s, t_start=0.1 * s, t_end=0.1 * (s + 1))
            for s in range(n)
        ]
        return frames, FrameStack.from_frames(frames)

    def test_from_stack_matches_frame_backed(self):
        # Every batch query equals the per-frame formula over the frames
        # the range covers.
        frames, stack = self._stack()
        stacked = SparseFrameBatch.from_stack(stack, 1, 4)
        members = frames[1:4]
        assert len(stacked) == 3
        assert stacked.stack is stack
        assert stacked.stack_range == (1, 4)
        assert stacked.t_start == min(f.t_start for f in members)
        assert stacked.t_end == max(f.t_end for f in members)
        assert stacked.num_events == float(sum(f.num_events for f in members))
        assert stacked.mean_density == float(np.mean([f.density for f in members]))
        assert stacked.frame_densities() == tuple(f.density for f in members)
        for view, frame in zip(stacked, members):
            assert view == frame

    def test_from_stack_defaults_to_whole_stack(self):
        frames, stack = self._stack()
        batch = SparseFrameBatch.from_stack(stack)
        assert len(batch) == len(frames)
        assert batch.stack_range == (0, len(frames))

    def test_from_stack_bounds_checked(self):
        _, stack = self._stack(n=3)
        with pytest.raises(IndexError):
            SparseFrameBatch.from_stack(stack, -1, 2)
        with pytest.raises(IndexError):
            SparseFrameBatch.from_stack(stack, 2, 1)
        with pytest.raises(IndexError):
            SparseFrameBatch.from_stack(stack, 0, 4)

    def test_to_dense_matches_reference_and_frame_backed(self):
        frames, stack = self._stack()
        stacked = SparseFrameBatch.from_stack(stack, 1, 5)
        assert np.array_equal(stacked.to_dense(), batch_to_dense_reference(stacked))
        assert np.array_equal(
            stacked.to_dense(), np.stack([f.to_dense() for f in frames[1:5]])
        )

    def test_to_dense_empty_range(self):
        _, stack = self._stack()
        empty = SparseFrameBatch.from_stack(stack, 2, 2)
        assert empty.to_dense().shape == (0, 2, 0, 0)
        assert empty.num_events == 0.0
        assert empty.mean_density == 0.0
