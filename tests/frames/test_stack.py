"""Tests for the columnar FrameStack data plane and its segmented kernels."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from oracles.frames import add_reference
from repro.frames import FrameStack, SparseFrame
from repro.frames.sparse import _grouped_reduce


def random_sparse_frame(seed=0, h=24, w=32, n_events=200, t_start=0.0, t_end=0.1):
    rng = np.random.default_rng(seed)
    return SparseFrame.from_events(
        rng.integers(0, w, n_events),
        rng.integers(0, h, n_events),
        rng.choice([-1, 1], n_events),
        h,
        w,
        t_start,
        t_end,
    )


def frames_bit_identical(a: SparseFrame, b: SparseFrame) -> bool:
    return (
        (a.height, a.width) == (b.height, b.width)
        and a.t_start == b.t_start
        and a.t_end == b.t_end
        and np.array_equal(a.rows, b.rows)
        and np.array_equal(a.cols, b.cols)
        and np.array_equal(a.pos, b.pos)
        and np.array_equal(a.neg, b.neg)
    )


def make_frames(n=6, h=24, w=32, nnz=120):
    return [
        random_sparse_frame(seed=i, h=h, w=w, n_events=nnz, t_start=0.1 * i, t_end=0.1 * (i + 1))
        for i in range(n)
    ]


class TestConstruction:
    def test_from_frames_roundtrip(self):
        frames = make_frames()
        stack = FrameStack.from_frames(frames)
        assert len(stack) == stack.num_frames == len(frames)
        assert stack.total_active == sum(f.num_active for f in frames)
        for original, view in zip(frames, stack):
            assert frames_bit_identical(original, view)

    def test_from_frames_keeps_empty_frames(self):
        frames = [
            random_sparse_frame(seed=1, t_start=0.0, t_end=0.1),
            SparseFrame.empty(24, 32, 0.1, 0.2),
            random_sparse_frame(seed=2, t_start=0.2, t_end=0.3),
        ]
        stack = FrameStack.from_frames(frames)
        assert stack.frame(1).num_active == 0
        assert stack.frame(1).t_start == 0.1
        assert list(stack.nnz_counts()) == [f.num_active for f in frames]

    def test_from_frames_rejects_empty_list(self):
        with pytest.raises(ValueError):
            FrameStack.from_frames([])

    def test_from_frames_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError):
            FrameStack.from_frames(
                [random_sparse_frame(h=24, w=32), random_sparse_frame(h=16, w=32)]
            )

    def test_init_validates_offsets(self):
        f = random_sparse_frame()
        n = f.num_active
        good = np.array([0, n], dtype=np.int64)
        FrameStack(f.rows, f.cols, f.pos, f.neg, good, [0.0], [0.1], 24, 32)
        with pytest.raises(ValueError):
            FrameStack(
                f.rows, f.cols, f.pos, f.neg, np.array([1, n]), [0.0], [0.1], 24, 32
            )
        with pytest.raises(ValueError):
            FrameStack(
                f.rows, f.cols, f.pos, f.neg, np.array([0, n - 1]), [0.0], [0.1], 24, 32
            )
        with pytest.raises(ValueError):
            FrameStack(
                f.rows, f.cols, f.pos, f.neg, np.array([0, n, n - 1, n]),
                [0.0, 0.1, 0.2], [0.1, 0.2, 0.3], 24, 32,
            )

    def test_init_validates_time_columns(self):
        f = random_sparse_frame()
        offsets = np.array([0, f.num_active], dtype=np.int64)
        with pytest.raises(ValueError):
            FrameStack(f.rows, f.cols, f.pos, f.neg, offsets, [0.0, 0.5], [0.1], 24, 32)

    def test_init_validates_bounds(self):
        with pytest.raises(ValueError):
            FrameStack([50], [0], [1.0], [0.0], np.array([0, 1]), [0.0], [0.1], 24, 32)


class TestViews:
    def test_frame_views_are_zero_copy(self):
        stack = FrameStack.from_frames(make_frames())
        view = stack.frame(2)
        assert np.shares_memory(view.rows, stack.rows)
        assert np.shares_memory(view.pos, stack.pos)
        # The key cache is seeded from the stack's column only when that
        # column already exists — never computed just to seed one view.
        assert view._flat is None
        stack.flat_buffer()
        assert np.shares_memory(stack.frame(2).flat_keys(), stack.flat_buffer())

    def test_frame_index_out_of_range(self):
        stack = FrameStack.from_frames(make_frames(n=3))
        with pytest.raises(IndexError):
            stack.frame(3)
        with pytest.raises(IndexError):
            stack.frame(-1)

    def test_view_flat_keys_match_recomputed(self):
        stack = FrameStack.from_frames(make_frames())
        for view in stack.frames():
            expected = view.rows.astype(np.int64) * view.width + view.cols
            assert np.array_equal(view.flat_keys(), expected)

    def test_views_survive_pickling(self):
        # Zero-copy views must pickle standalone (the sharded runtime ships
        # frames through worker pipes) and drop the stack-aliased key cache.
        stack = FrameStack.from_frames(make_frames())
        view = stack.frame(1)
        clone = pickle.loads(pickle.dumps(view))
        assert frames_bit_identical(view, clone)
        assert clone._flat is None


class TestVectorisedQueries:
    def test_densities_match_per_frame_property(self):
        stack = FrameStack.from_frames(make_frames())
        expected = [stack.frame(i).density for i in range(len(stack))]
        assert np.array_equal(stack.densities(), expected)

    def test_event_counts_match_per_frame_property(self):
        frames = make_frames()
        frames.insert(2, SparseFrame.empty(24, 32, 0.0, 0.1))
        stack = FrameStack.from_frames(frames)
        expected = [f.num_events for f in frames]
        assert np.allclose(stack.event_counts(), expected)
        assert stack.event_counts()[2] == 0.0

    def test_empty_stack_queries(self):
        stack = FrameStack.from_frames([SparseFrame.empty(8, 8, 0.0, 0.1)])
        assert stack.densities()[0] == 0.0
        assert stack.event_counts()[0] == 0.0


def merge_groups(groups, average=False):
    """Merge each group of frames with ``merge_ranges`` over one packed stack."""
    frames = [f for group in groups for f in group]
    bounds = np.cumsum([0] + [len(group) for group in groups])
    ranges = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
    return FrameStack.from_frames(frames).merge_ranges(ranges, average=average)


class TestSegmentedMerges:
    """cAdd / cAverage of one segment (``SparseFrame.add`` / ``average`` and a
    one-range ``merge_ranges``) and of groups of loose frames packed with
    ``FrameStack.from_frames``, all against the ``np.unique`` oracle."""

    def test_segment_add_bit_identical_to_reference(self):
        frames = make_frames(n=5)
        expected = add_reference(frames)
        assert frames_bit_identical(SparseFrame.add(frames), expected)
        assert frames_bit_identical(merge_groups([frames]).frame(0), expected)

    def test_segment_add_fractional_values(self):
        # Averaged (non-integer) inputs exercise float accumulation order.
        frames = [f.scale(1.0 / 3.0) for f in make_frames(n=4)]
        expected = add_reference(frames)
        assert frames_bit_identical(SparseFrame.add(frames), expected)
        assert frames_bit_identical(merge_groups([frames]).frame(0), expected)

    def test_segment_average_matches_scaled_add(self):
        frames = make_frames(n=4)
        expected = add_reference(frames).scale(1.0 / 4.0)
        assert frames_bit_identical(SparseFrame.average(frames), expected)
        assert frames_bit_identical(
            merge_groups([frames], average=True).frame(0), expected
        )

    def test_merge_groups_bit_identical_to_per_bucket_add(self):
        frames = make_frames(n=12, nnz=60)
        groups = [frames[0:4], frames[4:6], frames[6:12]]
        stack = merge_groups(groups)
        assert len(stack) == 3
        for view, group in zip(stack.frames(), groups):
            assert frames_bit_identical(view, add_reference(group))

    def test_merge_groups_average_mode(self):
        frames = make_frames(n=6, nnz=60)
        groups = [frames[0:2], frames[2:6]]
        stack = merge_groups(groups, average=True)
        for view, group in zip(stack.frames(), groups):
            expected = add_reference(group).scale(1.0 / len(group))
            assert frames_bit_identical(view, expected)

    def test_merge_groups_single_frame_groups(self):
        frames = make_frames(n=3)
        stack = merge_groups([[f] for f in frames])
        for view, frame in zip(stack.frames(), frames):
            assert frames_bit_identical(view, add_reference([frame]))

    def test_merge_groups_with_empty_frames(self):
        group = [SparseFrame.empty(24, 32, 0.0, 0.1), random_sparse_frame(seed=7)]
        stack = merge_groups([group])
        assert frames_bit_identical(stack.frame(0), add_reference(group))

    def test_merge_groups_time_bounds(self):
        frames = make_frames(n=4)
        stack = merge_groups([[frames[2], frames[0]], [frames[3], frames[1]]])
        assert stack.t_starts[0] == frames[0].t_start
        assert stack.t_ends[0] == frames[2].t_end
        assert stack.t_starts[1] == frames[1].t_start
        assert stack.t_ends[1] == frames[3].t_end

    def test_merge_groups_rejects_bad_input(self):
        with pytest.raises(ValueError):
            merge_groups([])
        with pytest.raises(ValueError):
            merge_groups([[random_sparse_frame()], []])
        with pytest.raises(ValueError):
            merge_groups(
                [[random_sparse_frame(h=24, w=32)], [random_sparse_frame(h=16, w=16)]]
            )


class TestGroupedReduceKernel:
    def test_empty_input(self):
        keys, pos, neg = _grouped_reduce(
            np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0)
        )
        assert keys.size == pos.size == neg.size == 0

    def test_matches_bincount_accumulation(self):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 50, 500).astype(np.int64)
        pos = rng.uniform(0, 1, 500)
        neg = rng.uniform(0, 1, 500)
        unique, pos_sum, neg_sum = _grouped_reduce(keys, pos, neg)
        expected_keys, inverse = np.unique(keys, return_inverse=True)
        assert np.array_equal(unique, expected_keys)
        assert np.array_equal(pos_sum, np.bincount(inverse, weights=pos))
        assert np.array_equal(neg_sum, np.bincount(inverse, weights=neg))


def _pipe_echo_worker(conn):
    # Runs in a shard-style worker process: receive a (possibly sliced)
    # stack over the pipe, exercise a vectorized query, echo it back.
    stack = conn.recv()
    conn.send((stack, stack.densities().tolist()))
    conn.close()


class TestSlice:
    def test_slice_views_bit_identical(self):
        stack = FrameStack.from_frames(make_frames(n=6))
        sliced = stack.slice(1, 4)
        assert len(sliced) == 3
        for view, original in zip(sliced.frames(), stack.frames()[1:4]):
            assert frames_bit_identical(view, original)

    def test_slice_is_zero_copy(self):
        stack = FrameStack.from_frames(make_frames(n=6))
        sliced = stack.slice(2, 5)
        assert np.shares_memory(sliced.rows, stack.rows)
        assert np.shares_memory(sliced.pos, stack.pos)
        assert np.shares_memory(sliced.t_starts, stack.t_starts)

    def test_slice_carries_flat_cache_only_when_present(self):
        stack = FrameStack.from_frames(make_frames(n=4))
        assert stack.slice(0, 2)._flat is None  # never computed for the slice
        stack.flat_buffer()
        cached = stack.slice(1, 3)
        assert cached._flat is not None
        assert np.shares_memory(cached._flat, stack._flat)
        assert np.array_equal(cached._flat, cached.slice(0, 2).flat_buffer())

    def test_slice_bounds_checked(self):
        stack = FrameStack.from_frames(make_frames(n=4))
        with pytest.raises(IndexError):
            stack.slice(-1, 2)
        with pytest.raises(IndexError):
            stack.slice(3, 2)
        with pytest.raises(IndexError):
            stack.slice(0, 5)

    def test_empty_slice(self):
        stack = FrameStack.from_frames(make_frames(n=4))
        empty = stack.slice(2, 2)
        assert len(empty) == 0
        assert empty.total_active == 0

    def test_pickled_slice_roundtrips_and_drops_caches(self):
        stack = FrameStack.from_frames(make_frames(n=6))
        stack.flat_buffer()
        stack.densities()
        sliced = stack.slice(1, 5)
        loaded = pickle.loads(pickle.dumps(sliced))
        assert loaded._flat is None and loaded._dens is None
        assert int(loaded.offsets[0]) == 0
        for view, original in zip(loaded.frames(), sliced.frames()):
            assert frames_bit_identical(view, original)
        # Pickling a view serialises only the viewed elements.
        assert len(pickle.dumps(sliced)) < len(pickle.dumps(stack))

    def test_slice_survives_worker_pipe(self):
        # The sharded kernel ships stacks to worker processes over pipes;
        # a slice must arrive intact (rebased offsets, lazily rebuildable
        # caches) and come back intact.
        import multiprocessing

        ctx = multiprocessing.get_context()
        parent, child = ctx.Pipe()
        worker = ctx.Process(target=_pipe_echo_worker, args=(child,))
        worker.start()
        try:
            stack = FrameStack.from_frames(make_frames(n=6))
            sliced = stack.slice(2, 6)
            parent.send(sliced)
            echoed, densities = parent.recv()
        finally:
            worker.join(timeout=30)
            parent.close()
            child.close()
        assert worker.exitcode == 0
        assert densities == sliced.densities().tolist()
        for view, original in zip(echoed.frames(), sliced.frames()):
            assert frames_bit_identical(view, original)


class TestMergeRanges:
    def test_adjacent_ranges_match_add_reference(self):
        # DSFA buckets partition a contiguous arrival run: the adjacency
        # fast path (single parent slice) must be bit-identical to merging
        # each range's frames with the np.unique oracle.
        frames = make_frames(n=12, nnz=60)
        stack = FrameStack.from_frames(frames)
        ranges = [(0, 4), (4, 6), (6, 12)]
        merged = stack.merge_ranges(ranges)
        assert len(merged) == len(ranges)
        for (a, b), view in zip(ranges, merged.frames()):
            assert frames_bit_identical(view, add_reference(frames[a:b]))

    def test_non_adjacent_ranges_match_add_reference(self):
        frames = make_frames(n=10, nnz=60)
        stack = FrameStack.from_frames(frames)
        ranges = [(0, 2), (3, 5), (8, 10)]
        merged = stack.merge_ranges(ranges)
        for (a, b), view in zip(ranges, merged.frames()):
            assert frames_bit_identical(view, add_reference(frames[a:b]))

    def test_average_mode(self):
        frames = make_frames(n=6, nnz=60)
        stack = FrameStack.from_frames(frames)
        ranges = [(0, 2), (2, 6)]
        merged = stack.merge_ranges(ranges, average=True)
        for (a, b), view in zip(ranges, merged.frames()):
            assert frames_bit_identical(view, SparseFrame.average(frames[a:b]))

    def test_single_frame_ranges(self):
        frames = make_frames(n=3)
        stack = FrameStack.from_frames(frames)
        merged = stack.merge_ranges([(i, i + 1) for i in range(3)])
        for view, frame in zip(merged.frames(), frames):
            assert frames_bit_identical(view, add_reference([frame]))

    def test_time_bounds(self):
        frames = make_frames(n=4)
        stack = FrameStack.from_frames(frames)
        merged = stack.merge_ranges([(0, 3), (3, 4)])
        assert merged.t_starts[0] == frames[0].t_start
        assert merged.t_ends[0] == frames[2].t_end
        assert merged.t_starts[1] == frames[3].t_start

    def test_result_does_not_retain_flat_cache(self):
        # Dispatched batches sit in inference queues; the int64 key column
        # is deliberately dropped (recomputed lazily if ever needed).
        stack = FrameStack.from_frames(make_frames(n=4))
        merged = stack.merge_ranges([(0, 2), (2, 4)])
        assert merged._flat is None

    def test_rejects_bad_ranges(self):
        stack = FrameStack.from_frames(make_frames(n=4))
        with pytest.raises(ValueError):
            stack.merge_ranges([])
        with pytest.raises(ValueError):
            stack.merge_ranges([(2, 2)])
        with pytest.raises(IndexError):
            stack.merge_ranges([(0, 5)])
        with pytest.raises(IndexError):
            stack.merge_ranges([(-1, 2)])
