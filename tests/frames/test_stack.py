"""Tests for the columnar FrameStack data plane and its segmented kernels."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from oracles.frames import add_reference, scale
from repro.core.e2sf import Event2SparseFrameConverter
from repro.events import EventStream, SensorGeometry
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
        assert stack.rows.size == sum(f.num_active for f in frames)
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

    def test_init_validates_column_shapes_and_dimensions(self):
        one = np.array([0, 1], dtype=np.int64)
        with pytest.raises(ValueError):
            FrameStack([0, 1], [0], [1.0], [0.0], one, [0.0], [0.1], 24, 32)
        grid = np.zeros((1, 1))
        with pytest.raises(ValueError):
            FrameStack(grid, grid, grid, grid, one, [0.0], [0.1], 24, 32)
        with pytest.raises(ValueError):
            FrameStack([0], [0], [1.0], [0.0], one, [0.0], [0.1], 0, 32)
        with pytest.raises(ValueError):
            FrameStack([0], [0], [1.0], [0.0], np.zeros(0, dtype=np.int64), [], [], 24, 32)

    def test_init_validates_bounds(self):
        with pytest.raises(ValueError):
            FrameStack([50], [0], [1.0], [0.0], np.array([0, 1]), [0.0], [0.1], 24, 32)
        with pytest.raises(ValueError):
            FrameStack([0], [32], [1.0], [0.0], np.array([0, 1]), [0.0], [0.1], 24, 32)


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

    def test_repr_reports_frames_dimensions_and_nnz(self):
        frames = make_frames(n=3)
        stack = FrameStack.from_frames(frames)
        nnz = sum(f.num_active for f in frames)
        assert repr(stack) == f"FrameStack(3 frames, 24x32, nnz={nnz})"

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

    def test_empty_stack_queries(self):
        stack = FrameStack.from_frames([SparseFrame.empty(8, 8, 0.0, 0.1)])
        assert stack.densities()[0] == 0.0


def merge_groups(groups, average=False):
    """Merge each group of frames with ``merge_ranges`` over one packed stack."""
    frames = [f for group in groups for f in group]
    bounds = np.cumsum([0] + [len(group) for group in groups])
    ranges = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
    return FrameStack.from_frames(frames).merge_ranges(ranges, average=average)


class TestSegmentedMerges:
    """cAdd / cAverage of one segment (a one-range ``merge_ranges``) and of
    groups of loose frames packed with ``FrameStack.from_frames``, all
    against the ``np.unique`` oracle."""

    def test_segment_add_bit_identical_to_reference(self):
        frames = make_frames(n=5)
        expected = add_reference(frames)
        assert frames_bit_identical(merge_groups([frames]).frame(0), expected)

    def test_segment_add_fractional_values(self):
        # Averaged (non-integer) inputs exercise float accumulation order.
        frames = [scale(f, 1.0 / 3.0) for f in make_frames(n=4)]
        expected = add_reference(frames)
        assert frames_bit_identical(merge_groups([frames]).frame(0), expected)

    def test_segment_average_matches_scaled_add(self):
        frames = make_frames(n=4)
        expected = scale(add_reference(frames), 1.0 / 4.0)
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
            expected = scale(add_reference(group), 1.0 / len(group))
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
        assert empty.rows.size == 0

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
            expected = scale(add_reference(frames[a:b]), 1.0 / (b - a))
            assert frames_bit_identical(view, expected)

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
        # A merged stack is never re-merged; the int64 key column is
        # deliberately dropped (recomputed lazily if ever needed).
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


def _repeated_key_frame():
    # Pixel (1, 3) appears three times: four entries over two distinct
    # keys (8 and 10).
    return SparseFrame(
        [1, 1, 1, 2], [3, 3, 3, 0], [1.5, 2.0, 0.25, 1.0], [0.5, 0.0, 1.0, 0.0],
        height=4, width=5, t_start=0.0, t_end=0.1,
    )


def _descending_key_frame():
    # Distinct keys 16, 10, 4: no repeats, but not in ascending order.
    return SparseFrame(
        [3, 2, 0], [1, 0, 4], [1.0, 2.0, 3.0], [0.0, 1.0, 0.0],
        height=4, width=5, t_start=0.1, t_end=0.2,
    )


def _stack_of_keys(frame_keys, height=4, width=5):
    """A stack whose frame ``i`` holds the flat pixel keys ``frame_keys[i]``."""
    keys = np.array([k for keys in frame_keys for k in keys], dtype=np.int64)
    n = len(frame_keys)
    return FrameStack(
        keys // width,
        keys % width,
        np.ones(keys.size),
        np.zeros(keys.size),
        np.cumsum([0] + [len(keys) for keys in frame_keys]),
        0.1 * np.arange(n),
        0.1 * np.arange(1, n + 1),
        height,
        width,
    )


class TestKeysStrictlyAscending:
    @pytest.mark.parametrize(
        "frame_keys, expected",
        [
            ([], True),
            ([[], [], []], True),
            ([[7]], True),
            ([[3, 9], [1, 4]], True),
            ([[2, 7], [7, 8]], True),
            ([[], [4, 8], [], [], [1, 3], []], True),
            ([[2, 2], [1]], False),
            ([[1, 2], [0, 5, 4]], False),
            ([[], [6, 6]], False),
            ([[9, 3], []], False),
            ([[0, 1, 19], [], [5, 4, 10]], False),
        ],
        ids=[
            "no-frames",
            "all-empty",
            "one-entry",
            "descent-across-boundary",
            "repeat-across-boundary",
            "empty-frames-between",
            "repeat-in-first-frame",
            "descent-in-last-frame",
            "repeat-after-empty-frame",
            "descent-before-empty-frame",
            "descent-after-empty-frame",
        ],
    )
    def test_matches_per_frame_check(self, frame_keys, expected):
        # Only key pairs inside one frame count, wherever the empty frames
        # and frame boundaries fall.
        assert expected == all(
            a < b for keys in frame_keys for a, b in zip(keys, keys[1:])
        )
        stack = _stack_of_keys(frame_keys)
        assert stack.keys_strictly_ascending() is expected

    def test_rendered_and_constructed_stacks_pass(self):
        rng = np.random.default_rng(3)
        geometry = SensorGeometry(width=20, height=12)
        n = 1500
        stream = EventStream(
            rng.integers(0, geometry.width, n),
            rng.integers(0, geometry.height, n),
            np.sort(rng.uniform(0.0, 1.0, n)),
            rng.choice([-1, 1], n),
            geometry,
        )
        rendered = Event2SparseFrameConverter(4).convert_stack(
            stream, np.linspace(0.0, 1.0, 6)
        )
        assert rendered.keys_strictly_ascending()
        from_events = FrameStack.from_frames(make_frames(n=5, h=12, w=20, nnz=150))
        # Consecutive frames overlap in keys: only pairs inside a frame count.
        assert from_events.keys_strictly_ascending()
        dense = make_frames(n=3, h=12, w=20)
        from_dense = FrameStack.from_frames(
            [SparseFrame.from_dense(f.to_dense(), f.t_start, f.t_end) for f in dense]
        )
        assert from_dense.keys_strictly_ascending()
        # Empty frames at either end leave the boundary exemptions in range.
        padded = FrameStack.from_frames(
            [SparseFrame.empty(12, 20)] + dense + [SparseFrame.empty(12, 20)]
        )
        assert padded.keys_strictly_ascending()
        assert FrameStack.from_frames([SparseFrame.empty(12, 20)]).keys_strictly_ascending()

    def test_repeated_or_descending_keys_fail(self):
        repeated, descending = _repeated_key_frame(), _descending_key_frame()
        assert not FrameStack.from_frames([repeated, descending]).keys_strictly_ascending()
        assert not FrameStack.from_frames([repeated]).keys_strictly_ascending()
        assert not FrameStack.from_frames([descending]).keys_strictly_ascending()

    def test_survives_pickling_and_slicing(self):
        mixed = FrameStack.from_frames(
            [_repeated_key_frame(), random_sparse_frame(h=4, w=5, n_events=6)]
        )
        clean = FrameStack.from_frames(make_frames(n=3))
        for stack in (mixed, clean):
            expected = stack.keys_strictly_ascending()
            loaded = pickle.loads(pickle.dumps(stack))
            assert loaded._ascending is None
            assert loaded.keys_strictly_ascending() == expected
        assert not mixed.keys_strictly_ascending()
        assert clean.keys_strictly_ascending()
        # A slice rechecks only its own frames.
        assert mixed.slice(1, 2).keys_strictly_ascending()
        assert not mixed.slice(0, 1).keys_strictly_ascending()
