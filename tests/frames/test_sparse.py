"""Tests for the sparse COO frame representation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.frames import (
    add_reference,
    batch_to_dense_reference,
    density_change,
    frame_batch,
    scale,
    to_dense_reference,
)
from repro.frames import FrameStack, SparseFrame, SparseFrameBatch
from repro.frames.sparse import pairwise_mean


def merge(frames, average=False):
    """cAdd (or cAverage) of ``frames`` as one ``merge_ranges`` segment."""
    stack = FrameStack.from_frames(frames)
    return stack.merge_ranges([(0, len(frames))], average=average).frame(0)


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

    def test_column_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            SparseFrame([0], [4], [1.0], [0.0], height=4, width=4)
        with pytest.raises(ValueError):
            SparseFrame([0], [-1], [1.0], [0.0], height=4, width=4)

    def test_two_dimensional_columns_rejected(self):
        grid = np.zeros((2, 2))
        with pytest.raises(ValueError):
            SparseFrame(grid, grid, grid, grid, 4, 4)

    def test_from_dense_keeps_only_active_sites(self):
        dense = np.zeros((2, 3, 5))
        dense[0, 1, 2] = 2.0
        dense[1, 2, 4] = 1.0  # negative-only site
        frame = SparseFrame.from_dense(dense, t_start=0.1, t_end=0.2)
        assert frame.num_active == 2
        assert sorted(zip(frame.rows.tolist(), frame.cols.tolist())) == [(1, 2), (2, 4)]
        assert (frame.t_start, frame.t_end) == (0.1, 0.2)
        assert SparseFrame.from_dense(np.zeros((2, 3, 5))).num_active == 0


class TestProperties:
    def test_density(self):
        frame = SparseFrame.from_events([0, 1], [0, 1], [1, 1], height=10, width=10)
        assert frame.density == pytest.approx(2 / 100)

    def test_num_events_counts_all(self):
        frame = SparseFrame.from_events(
            [0, 0, 1], [0, 0, 1], [1, -1, 1], height=4, width=4
        )
        assert frame.num_events == 3

    def test_repr_contains_nnz(self):
        assert "nnz" in repr(random_sparse_frame())


class TestMergeOperations:
    def test_add_matches_dense_sum(self):
        a = random_sparse_frame(seed=1)
        b = random_sparse_frame(seed=2)
        merged = merge([a, b])
        assert np.allclose(merged.to_dense(), a.to_dense() + b.to_dense())

    def test_average_matches_dense_mean(self):
        frames = [random_sparse_frame(seed=s) for s in range(4)]
        merged = merge(frames, average=True)
        expected = np.mean([f.to_dense() for f in frames], axis=0)
        assert np.allclose(merged.to_dense(), expected)

    def test_density_change_symmetric_and_bounded(self):
        a = random_sparse_frame(seed=1, n_events=50)
        b = random_sparse_frame(seed=2, n_events=400)
        assert density_change(a, b) == pytest.approx(density_change(b, a))
        assert 0.0 <= density_change(a, b) <= 1.0

    def test_density_change_identical_is_zero(self):
        a = random_sparse_frame(seed=1)
        assert density_change(a, a) == 0.0

    def test_density_change_both_empty(self):
        a = SparseFrame.empty(8, 8)
        assert density_change(a, SparseFrame.empty(8, 8)) == 0.0


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

    def test_empty_batch_time_bounds_are_zero(self):
        stack = FrameStack.from_frames(
            [random_sparse_frame(seed=1, t_start=0.3, t_end=0.4)]
        )
        batch = SparseFrameBatch.from_stack(stack, 1, 1)
        assert len(batch) == 0
        assert batch.t_start == 0.0
        assert batch.t_end == 0.0


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
        assert a != scale(a, 2.0)
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
    merged = merge(frames)
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


# Reads of a pending merge that need its frame contents; each must build
# the merged stack on first use.
_CONTENT_READS = {
    "stack": lambda batch: batch.stack.frames(),
    "frames": lambda batch: batch.frames,
    "iteration": lambda batch: list(batch),
    "indexing": lambda batch: [batch[i] for i in range(len(batch))],
    "to_dense": lambda batch: batch.to_dense(),
    "num_events": lambda batch: batch.num_events,
    "t_start": lambda batch: batch.t_start,
    "t_end": lambda batch: batch.t_end,
}


def _same_read(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and np.array_equal(a, b)
    if isinstance(a, list):
        return len(a) == len(b) and all(x == y for x, y in zip(a, b))
    return a == b


class TestPendingMergeBatch:
    """``from_merge`` answers len and the density reads from the carried
    densities, and builds the merged stack once, on the first read of
    frame contents."""

    RANGES = [(0, 2), (2, 3), (3, 6), (6, 7)]

    def _pending(self, monkeypatch, average):
        # Few events on a small sensor, so merged frames share pixels.
        frames = [
            random_sparse_frame(
                seed=s, h=6, w=8, n_events=12, t_start=0.1 * s, t_end=0.1 * (s + 1)
            )
            for s in range(7)
        ]
        expected = [add_reference(frames[a:b]) for a, b in self.RANGES]
        if average:
            expected = [
                scale(f, 1.0 / (b - a)) for f, (a, b) in zip(expected, self.RANGES)
            ]
        stack = FrameStack.from_frames(frames)
        merges = []
        merge_ranges = FrameStack.merge_ranges

        def counting_merge(stack, ranges, average=False):
            merges.append(list(ranges))
            return merge_ranges(stack, ranges, average=average)

        monkeypatch.setattr(FrameStack, "merge_ranges", counting_merge)
        batch = SparseFrameBatch.from_merge(
            stack, self.RANGES, [f.density for f in expected], average=average
        )
        return batch, expected, merges

    @pytest.mark.parametrize("average", [False, True], ids=["add", "average"])
    def test_carried_reads_never_merge(self, monkeypatch, average):
        batch, expected, merges = self._pending(monkeypatch, average)
        densities = tuple(f.density for f in expected)
        assert len(batch) == len(self.RANGES)
        assert batch.frame_densities() == densities
        assert batch.mean_density == float(np.mean(densities))
        assert batch.stack_range == (0, len(self.RANGES))
        assert repr(batch) == f"SparseFrameBatch({len(self.RANGES)} frames)"
        assert merges == []

    @pytest.mark.parametrize("average", [False, True], ids=["add", "average"])
    @pytest.mark.parametrize("read", sorted(_CONTENT_READS))
    def test_content_read_builds_the_merge_once(self, monkeypatch, read, average):
        batch, expected, merges = self._pending(monkeypatch, average)
        value = _CONTENT_READS[read](batch)
        assert merges == [self.RANGES]
        assert _same_read(value, _CONTENT_READS[read](frame_batch(expected)))
        stack = batch.stack
        for other in _CONTENT_READS.values():
            other(batch)
        assert batch.stack is stack
        assert len(merges) == 1
        assert stack.densities().tolist() == list(batch.frame_densities())
        assert all(view == frame for view, frame in zip(batch, expected))


class TestPairwiseMean:
    """``pairwise_mean`` is ``np.mean`` of python floats, bit for bit."""

    LENGTHS = list(range(1, 300)) + [511, 1000, 1025, 8191, 8193, 20001]

    def test_equals_np_mean_on_seeded_inputs(self):
        rng = np.random.default_rng(0)
        values = np.array([0.0, 1e-5, 1.0, 5e-324, 0.1, 1.0 / 3.0])
        for n in self.LENGTHS:
            for _ in range(20 if n < 300 else 3):
                if rng.integers(2):
                    x = rng.choice(values, n)
                else:
                    x = rng.random(n) * 10.0 ** rng.integers(-8, 8, n)
                column = x.tolist()
                assert pairwise_mean(column) == float(np.mean(x)), n
                assert pairwise_mean(tuple(column)) == float(np.mean(column)), n

    def test_not_a_left_to_right_sum(self):
        # From 8 values on NumPy's order differs from a sequential sum, so
        # the equality above pins the order and not just the values.
        rng = np.random.default_rng(1)
        differs = 0
        for n in range(8, 64):
            x = rng.random(n).tolist()
            total = 0.0
            for value in x:
                total += value
            differs += total / n != pairwise_mean(x)
        assert differs > 10

    def test_batch_means_match_np_mean(self):
        frames = [random_sparse_frame(seed=s) for s in range(12)]
        stack = FrameStack.from_frames(frames)
        for start, stop in [(0, 2), (0, 9), (3, 12)]:
            batch = SparseFrameBatch.from_stack(stack, start, stop)
            expected = float(np.mean(stack.densities()[start:stop]))
            assert batch.mean_density == expected
            merged = SparseFrameBatch.from_merge(
                stack, [(i, i + 1) for i in range(start, stop)], batch.frame_densities()
            )
            assert merged.mean_density == expected
