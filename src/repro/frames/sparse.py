"""Sparse frame representation (COO) used throughout Ev-Edge.

The Event2Sparse Frame converter (paper Section 4.1) accumulates the events
of one temporal bin into a *two-channel sparse frame*: for every active pixel
it stores the row index, the column index and the accumulated positive and
negative polarity counts — essentially the sparse Coordinate (COO) format.

:class:`SparseFrame` is that representation plus density queries and
conversion to/from dense arrays; frames merge on whole stacks with
:meth:`~repro.frames.stack.FrameStack.merge_ranges`.
:class:`SparseFrameBatch` is one dispatched inference input: an index range
into a :class:`~repro.frames.stack.FrameStack`, or a DSFA dispatch's pending
merge of index ranges that is built only when its frames are read.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["SparseFrame", "SparseFrameBatch", "pairwise_mean"]


def _pairwise_sum(values: Sequence[float], start: int, n: int) -> float:
    """``values[start:start + n]`` summed in NumPy's float64 order.

    ``np.add.reduce`` sums fewer than 8 values left to right from ``0.0``;
    up to 128 values in eight strided accumulators combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the tail left to right;
    above that it splits at ``n // 2`` rounded down to a multiple of 8 and
    recurses.
    """
    if n < 8:
        total = 0.0
        for i in range(start, start + n):
            total += values[i]
        return total
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[start : start + 8]
        end = start + n - n % 8
        for i in range(start + 8, end, 8):
            r0 += values[i]
            r1 += values[i + 1]
            r2 += values[i + 2]
            r3 += values[i + 3]
            r4 += values[i + 4]
            r5 += values[i + 5]
            r6 += values[i + 6]
            r7 += values[i + 7]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(end, start + n):
            total += values[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, start, half) + _pairwise_sum(
        values, start + half, n - half
    )


def pairwise_mean(values: Sequence[float]) -> float:
    """``float(np.mean(values))`` of non-empty python floats, bit for bit.

    The same pairwise summation order, then one division; a dispatch's
    handful of densities skips the array conversion ``np.mean`` pays for.
    A plain left-to-right sum differs from it from 8 values on.
    """
    return _pairwise_sum(values, 0, len(values)) / len(values)


def _grouped_reduce(
    flat: np.ndarray, pos: np.ndarray, neg: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum ``pos``/``neg`` per duplicate key of ``flat``.

    Returns ``(unique_keys, pos_sums, neg_sums)`` with keys ascending.  The
    per-group accumulation is sequential in *input* order: the stable sort
    only labels the groups, and the sums themselves come from
    ``np.bincount`` over the input-order group labels — exactly the
    accumulation of an ``np.unique`` + ``np.bincount`` merge, so the kernel
    is bit-identical to it for arbitrary float values.  (``np.add.reduceat``
    would not be: it sums pairwise above eight elements.)  This is the
    shared grouped-reduce kernel of the columnar data plane: one argsort
    plus sequential bincounts instead of a ``unique``/``bincount``/divmod
    round trip per merge.
    """
    if flat.size == 0:
        empty = np.zeros(0, dtype=np.float64)
        return flat.astype(np.int64, copy=False), empty, empty
    order = np.argsort(flat, kind="stable")
    sorted_flat = flat[order]
    boundary = np.empty(sorted_flat.size, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_flat[1:], sorted_flat[:-1], out=boundary[1:])
    group_sorted = np.cumsum(boundary) - 1
    # Scatter the group labels back to input positions so bincount
    # accumulates each group's weights in input order.
    group = np.empty_like(group_sorted)
    group[order] = group_sorted
    num_groups = int(group_sorted[-1]) + 1
    return (
        sorted_flat[boundary],
        np.bincount(group, weights=pos, minlength=num_groups),
        np.bincount(group, weights=neg, minlength=num_groups),
    )


class SparseFrame:
    """A two-channel (positive / negative polarity) sparse event frame.

    Parameters
    ----------
    rows, cols:
        Coordinates of the active pixels (unique pairs, any order).
    pos, neg:
        Accumulated positive / negative event counts per active pixel.
    height, width:
        Dense frame dimensions.
    t_start, t_end:
        Time interval covered by the events accumulated into this frame.

    Notes
    -----
    Values are stored as float64 so that the ``cAverage`` merge mode (which
    produces fractional counts) is exact.
    """

    __slots__ = (
        "rows",
        "cols",
        "pos",
        "neg",
        "height",
        "width",
        "t_start",
        "t_end",
        "_flat",
    )

    def __init__(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        pos: np.ndarray,
        neg: np.ndarray,
        height: int,
        width: int,
        t_start: float = 0.0,
        t_end: float = 0.0,
    ) -> None:
        rows = np.asarray(rows, dtype=np.int32)
        cols = np.asarray(cols, dtype=np.int32)
        pos = np.asarray(pos, dtype=np.float64)
        neg = np.asarray(neg, dtype=np.float64)
        if not (rows.shape == cols.shape == pos.shape == neg.shape):
            raise ValueError("rows, cols, pos, neg must have identical shapes")
        if rows.ndim != 1:
            raise ValueError("sparse frame columns must be one-dimensional")
        if height <= 0 or width <= 0:
            raise ValueError("frame dimensions must be positive")
        if rows.size:
            if rows.min() < 0 or rows.max() >= height:
                raise ValueError("row indices out of bounds")
            if cols.min() < 0 or cols.max() >= width:
                raise ValueError("column indices out of bounds")
        self.rows = rows
        self.cols = cols
        self.pos = pos
        self.neg = neg
        self.height = int(height)
        self.width = int(width)
        self.t_start = float(t_start)
        self.t_end = float(t_end)
        self._flat = None

    @classmethod
    def _view(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        pos: np.ndarray,
        neg: np.ndarray,
        height: int,
        width: int,
        t_start: float,
        t_end: float,
        flat: Optional[np.ndarray] = None,
    ) -> "SparseFrame":
        """Zero-copy construction from already-validated column buffers.

        Used by :class:`~repro.frames.stack.FrameStack` slices and the merge
        kernels, whose buffers were bounds-checked once at stack build time;
        re-validating per frame would reintroduce the per-frame overhead the
        columnar plane removes.  ``flat`` optionally seeds the
        :meth:`flat_keys` cache.
        """
        frame = cls.__new__(cls)
        frame.rows = rows
        frame.cols = cols
        frame.pos = pos
        frame.neg = neg
        frame.height = int(height)
        frame.width = int(width)
        frame.t_start = float(t_start)
        frame.t_end = float(t_end)
        frame._flat = flat
        return frame

    def flat_keys(self) -> np.ndarray:
        """Flattened ``row * width + col`` pixel keys (int64), cached.

        Frames sliced out of a :class:`~repro.frames.stack.FrameStack`
        inherit their slice of the stack's key buffer, so merge kernels on
        the fleet hot path never recompute (or re-allocate) the keys.
        """
        if self._flat is None:
            self._flat = self.rows.astype(np.int64) * self.width + self.cols
        return self._flat

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(
        cls, height: int, width: int, t_start: float = 0.0, t_end: float = 0.0
    ) -> "SparseFrame":
        """A sparse frame with no active pixels."""
        zero = np.zeros(0)
        return cls(zero, zero, zero, zero, height, width, t_start, t_end)

    @classmethod
    def from_events(
        cls,
        x: np.ndarray,
        y: np.ndarray,
        p: np.ndarray,
        height: int,
        width: int,
        t_start: float = 0.0,
        t_end: float = 0.0,
    ) -> "SparseFrame":
        """Accumulate raw event columns into a sparse frame.

        Positive and negative polarities are accumulated separately per
        pixel, exactly as E2SF specifies.
        """
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        p = np.asarray(p)
        if np.any(p == 0):
            # A zero polarity would accumulate into neither channel and the
            # event would silently vanish from the frame; AER polarities are
            # strictly +1 / -1, so reject instead of dropping.
            raise ValueError("polarities must be non-zero (+1 or -1)")
        if x.size == 0:
            return cls.empty(height, width, t_start, t_end)
        flat = y * width + x
        unique_flat, inverse = np.unique(flat, return_inverse=True)
        pos = np.bincount(inverse, weights=(p > 0).astype(np.float64), minlength=unique_flat.size)
        neg = np.bincount(inverse, weights=(p < 0).astype(np.float64), minlength=unique_flat.size)
        rows = (unique_flat // width).astype(np.int32)
        cols = (unique_flat % width).astype(np.int32)
        return cls(rows, cols, pos, neg, height, width, t_start, t_end)

    @classmethod
    def from_dense(
        cls,
        dense: np.ndarray,
        t_start: float = 0.0,
        t_end: float = 0.0,
    ) -> "SparseFrame":
        """Build a sparse frame from a dense ``(2, H, W)`` array.

        Channel 0 is the positive-polarity plane, channel 1 the negative one.
        This is the *encode* path whose overhead the paper argues against;
        it exists so the overhead can be measured (see
        :mod:`repro.frames.encoding`).
        """
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 3 or dense.shape[0] != 2:
            raise ValueError("expected a (2, H, W) dense frame")
        _, h, w = dense.shape
        active = (dense[0] != 0) | (dense[1] != 0)
        rows, cols = np.nonzero(active)
        return cls(
            rows.astype(np.int32),
            cols.astype(np.int32),
            dense[0][rows, cols],
            dense[1][rows, cols],
            h,
            w,
            t_start,
            t_end,
        )

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    @property
    def num_active(self) -> int:
        """Number of active (non-zero) pixel locations."""
        return int(self.rows.size)

    @property
    def num_events(self) -> float:
        """Total accumulated event count (positive + negative)."""
        return float(self.pos.sum() + self.neg.sum())

    @property
    def density(self) -> float:
        """Fraction of pixels that are active — the paper's ``%events``."""
        return self.num_active / float(self.height * self.width)

    def __repr__(self) -> str:
        return (
            f"SparseFrame({self.height}x{self.width}, nnz={self.num_active}, "
            f"density={self.density:.4%}, t=[{self.t_start:.4f}, {self.t_end:.4f}])"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseFrame):
            return NotImplemented
        if self.height != other.height or self.width != other.width:
            return False
        self_flat, self_values = self._canonical()
        other_flat, other_values = other._canonical()
        return np.array_equal(self_flat, other_flat) and np.allclose(
            self_values, other_values
        )

    def _canonical(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return (sorted flat indices, stacked values) for comparisons."""
        flat = self.rows.astype(np.int64) * self.width + self.cols
        order = np.argsort(flat)
        values = np.stack([self.pos, self.neg], axis=1)
        return flat[order], values[order]

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Decode into a dense ``(2, H, W)`` array.

        A flat ``np.bincount`` scatter per channel: duplicate coordinates
        accumulate exactly as an ``np.add.at`` scatter would, in input
        order, but without the notoriously slow buffered ``ufunc.at``
        dispatch.
        """
        size = self.height * self.width
        flat = self.flat_keys()
        dense = np.empty((2, self.height, self.width), dtype=np.float64)
        dense[0] = np.bincount(flat, weights=self.pos, minlength=size).reshape(
            self.height, self.width
        )
        dense[1] = np.bincount(flat, weights=self.neg, minlength=size).reshape(
            self.height, self.width
        )
        return dense

    def __getstate__(self):
        # The flat-key cache is derived data (and may alias a whole
        # FrameStack buffer) — rebuild it lazily on the other side instead
        # of shipping it through worker pipes.
        return (
            self.rows,
            self.cols,
            self.pos,
            self.neg,
            self.height,
            self.width,
            self.t_start,
            self.t_end,
        )

    def __setstate__(self, state) -> None:
        (
            self.rows,
            self.cols,
            self.pos,
            self.neg,
            self.height,
            self.width,
            self.t_start,
            self.t_end,
        ) = state
        self._flat = None


class SparseFrameBatch:
    """An ordered batch of sparse frames (one dispatched inference input).

    The batch is what gets presented to the network as a multi-channel /
    multi-timestep input: ``B`` sparse frames concatenated along a leading
    batch dimension.  It is backed by a
    :class:`~repro.frames.stack.FrameStack`, the columnar transport the
    runtime uses end to end, in one of two forms:

    * a *range* (:meth:`from_stack`) — frames ``[start, stop)`` of a stack,
      zero-copy: density queries read the stack's cached density column;
    * a *pending merge* (:meth:`from_merge`) — one merged frame per frame
      index range of a source stack, as a DSFA dispatch produces.  It
      carries each merged frame's density, so :func:`len`,
      :attr:`mean_density` and :meth:`frame_densities` (all that costing a
      dispatch reads) never merge anything.  The merged stack is built
      with :meth:`FrameStack.merge_ranges` the first time a caller reads
      frame contents — :attr:`stack`, :attr:`frames`, iteration, indexing,
      :meth:`to_dense`, :attr:`num_events` or the time bounds — and cached.

    :meth:`to_dense` scatters the whole batch in one flat ``bincount`` pass
    and no per-frame objects exist until a caller iterates the batch
    (zero-copy views).  Loose frames are batched by packing them first with
    :meth:`FrameStack.from_frames`.
    """

    __slots__ = ("_stack", "_start", "_stop", "_merge", "_densities")

    def __init__(self, stack, start: int = 0, stop: Optional[int] = None) -> None:
        stop = stack.num_frames if stop is None else int(stop)
        start = int(start)
        if not 0 <= start <= stop <= stack.num_frames:
            raise IndexError(
                f"batch range [{start}, {stop}) out of range for "
                f"{stack.num_frames} frames"
            )
        self._stack = stack
        self._start = start
        self._stop = stop
        self._merge = None
        self._densities = None

    @classmethod
    def from_stack(
        cls, stack, start: int = 0, stop: Optional[int] = None
    ) -> "SparseFrameBatch":
        """Batch over frames ``[start, stop)`` of ``stack``, zero-copy.

        The stack's buffers were validated at build time, so no per-frame
        re-validation happens; the batch holds only the stack reference and
        the index range.
        """
        return cls(stack, start, stop)

    @classmethod
    def from_merge(
        cls,
        stack,
        ranges: Sequence[Tuple[int, int]],
        densities: Sequence[float],
        average: bool = False,
    ) -> "SparseFrameBatch":
        """Batch of the merges of frame index ``ranges`` of ``stack``, built lazily.

        ``densities[i]`` must be the spatial density of merged frame ``i``
        — its distinct-key count over ``height * width``, which is what
        :attr:`~repro.core.dsfa.PlacementPlan.densities` holds.
        The merge itself (``stack.merge_ranges(ranges, average)``) runs only
        when frame contents are first read.
        """
        batch = cls.__new__(cls)
        batch._stack = None
        batch._start = 0
        batch._stop = len(ranges)
        batch._merge = (stack, ranges, average)
        batch._densities = tuple(densities)
        return batch

    @property
    def stack(self):
        """The backing :class:`FrameStack` (a pending merge is built here, once)."""
        if self._merge is not None:
            source, ranges, average = self._merge
            self._stack = source.merge_ranges(ranges, average=average)
            self._merge = None
        return self._stack

    @property
    def stack_range(self) -> Tuple[int, int]:
        """The backing ``(start, stop)`` index range."""
        return (self._start, self._stop)

    @property
    def frames(self) -> List[SparseFrame]:
        """The batch's frames, materialised as zero-copy stack views."""
        stack = self.stack
        return [stack.frame(i) for i in range(self._start, self._stop)]

    def __repr__(self) -> str:
        return f"SparseFrameBatch({len(self)} frames)"

    def __len__(self) -> int:
        return self._stop - self._start

    def __iter__(self):
        return iter(self.frames)

    def __getitem__(self, index: int) -> SparseFrame:
        return self.frames[index]

    @property
    def t_start(self) -> float:
        """Earliest start time in the batch."""
        if self._stop == self._start:
            return 0.0
        return float(self.stack.t_starts[self._start : self._stop].min())

    @property
    def t_end(self) -> float:
        """Latest end time in the batch."""
        if self._stop == self._start:
            return 0.0
        return float(self.stack.t_ends[self._start : self._stop].max())

    @property
    def num_events(self) -> float:
        """Total number of events across the batch.

        Summed frame by frame (``pos.sum() + neg.sum()`` per frame), so the
        floating-point accumulation order is that of
        :attr:`SparseFrame.num_events`, including fractional cAverage
        values.
        """
        return float(sum(f.num_events for f in self.frames))

    @property
    def mean_density(self) -> float:
        """Mean spatial density across the batch (0 for an empty batch).

        The mean over the carried densities equals the mean over the built
        stack's density column: same float64 values, same order.  Both are
        ``np.mean``'s result (:func:`pairwise_mean`).
        """
        n = self._stop - self._start
        if n == 0:
            return 0.0
        densities = self._densities
        if densities is not None:
            return densities[0] if n == 1 else pairwise_mean(densities)
        if n == 1:
            # Bit-identical to np.mean over one element; single-frame
            # batches dominate the traffic hot path.
            return self._stack.frame_density(self._start)
        return pairwise_mean(self._stack.densities()[self._start : self._stop].tolist())

    def frame_densities(self) -> Tuple[float, ...]:
        """Per-frame spatial densities, in batch order.

        These seed the per-member occupancy profiles of the layered cost
        stack: a merged dispatch's per-layer occupancy is the mean of its
        members' propagated profiles, so the combination needs the
        individual densities, not just :attr:`mean_density`.  A pending
        merge returns its carried densities; a range reads them off the
        stack's cached density column.
        """
        if self._densities is not None:
            return self._densities
        return tuple(self._stack.densities()[self._start : self._stop].tolist())

    def to_dense(self) -> np.ndarray:
        """Decode into a dense ``(B, 2, H, W)`` tensor.

        Scatters *all* frames in one flat ``bincount`` pass per channel
        over the concatenated COO columns (the frame index folded into the
        pixel key) instead of stacking per-frame decodes — bit-identical to
        ``np.stack([f.to_dense() for f in batch])`` because ``bincount``
        accumulates duplicate coordinates in input order within each frame,
        exactly as the per-frame scatter does.
        """
        num = self._stop - self._start
        if num == 0:
            return np.zeros((0, 2, 0, 0))
        stack = self.stack
        h, w = stack.height, stack.width
        size = h * w
        lo = int(stack.offsets[self._start])
        hi = int(stack.offsets[self._stop])
        key = (
            np.repeat(
                np.arange(num, dtype=np.int64),
                stack.nnz_counts()[self._start : self._stop],
            )
            * size
            + stack.flat_buffer()[lo:hi]
        )
        dense = np.empty((num, 2, h, w), dtype=np.float64)
        dense[:, 0] = np.bincount(
            key, weights=stack.pos[lo:hi], minlength=num * size
        ).reshape(num, h, w)
        dense[:, 1] = np.bincount(
            key, weights=stack.neg[lo:hi], minlength=num * size
        ).reshape(num, h, w)
        return dense
