"""Sparse frame representation (COO) used throughout Ev-Edge.

The Event2Sparse Frame converter (paper Section 4.1) accumulates the events
of one temporal bin into a *two-channel sparse frame*: for every active pixel
it stores the row index, the column index and the accumulated positive and
negative polarity counts — essentially the sparse Coordinate (COO) format.

:class:`SparseFrame` is that representation plus the operations the Dynamic
Sparse Frame Aggregator needs: element-wise add, average, density queries
and conversion to/from dense arrays.  :class:`SparseFrameBatch` is one
dispatched inference input: an index range into a
:class:`~repro.frames.stack.FrameStack`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["SparseFrame", "SparseFrameBatch"]


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

    @property
    def duration(self) -> float:
        """Time span covered by the frame (seconds)."""
        return max(self.t_end - self.t_start, 0.0)

    @property
    def shape(self) -> Tuple[int, int, int]:
        """Dense-equivalent shape ``(2, H, W)``."""
        return (2, self.height, self.width)

    @property
    def nnz_bytes(self) -> int:
        """Memory footprint of the COO representation in bytes."""
        # rows + cols as int32, pos + neg as float64
        return self.num_active * (4 + 4 + 8 + 8)

    @property
    def dense_bytes(self) -> int:
        """Memory footprint of the equivalent dense frame in bytes (float32)."""
        return 2 * self.height * self.width * 4

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

    def copy(self) -> "SparseFrame":
        """Deep copy."""
        return SparseFrame(
            self.rows.copy(),
            self.cols.copy(),
            self.pos.copy(),
            self.neg.copy(),
            self.height,
            self.width,
            self.t_start,
            self.t_end,
        )

    def scale(self, factor: float) -> "SparseFrame":
        """Return a copy with all values multiplied by ``factor``."""
        out = self.copy()
        out.pos *= factor
        out.neg *= factor
        return out

    def prune_zeros(self, tolerance: float = 0.0) -> "SparseFrame":
        """Drop entries whose positive and negative values are both ~0."""
        keep = (np.abs(self.pos) > tolerance) | (np.abs(self.neg) > tolerance)
        return SparseFrame(
            self.rows[keep],
            self.cols[keep],
            self.pos[keep],
            self.neg[keep],
            self.height,
            self.width,
            self.t_start,
            self.t_end,
        )

    # ------------------------------------------------------------------
    # merge operations (used by DSFA cAdd / cAverage)
    # ------------------------------------------------------------------
    @staticmethod
    def add(frames: Sequence["SparseFrame"]) -> "SparseFrame":
        """Element-wise sum of several sparse frames (``cAdd`` mode).

        Runs the grouped-reduce merge kernel of the columnar data plane:
        cached flat pixel keys (free for frames sliced out of a
        :class:`~repro.frames.stack.FrameStack`), one stable argsort and
        segmented reductions — no per-frame ``astype`` copies, no
        ``np.unique`` inverse construction, no divmod over the merged
        support.  Bit-identical to the ``np.unique`` + ``np.bincount``
        merge (see :func:`_grouped_reduce`).
        """
        frames = list(frames)
        if not frames:
            raise ValueError("cannot add an empty list of frames")
        h, w = frames[0].height, frames[0].width
        for f in frames[1:]:
            if (f.height, f.width) != (h, w):
                raise ValueError("all frames must share the same dimensions")
        if len(frames) == 1:
            flat = frames[0].flat_keys()
            pos = frames[0].pos
            neg = frames[0].neg
        else:
            flat = np.concatenate([f.flat_keys() for f in frames])
            pos = np.concatenate([f.pos for f in frames])
            neg = np.concatenate([f.neg for f in frames])
        unique_flat, pos_sum, neg_sum = _grouped_reduce(flat, pos, neg)
        return SparseFrame._view(
            (unique_flat // w).astype(np.int32),
            (unique_flat % w).astype(np.int32),
            pos_sum,
            neg_sum,
            h,
            w,
            min(f.t_start for f in frames),
            max(f.t_end for f in frames),
            flat=unique_flat,
        )

    @staticmethod
    def average(frames: Sequence["SparseFrame"]) -> "SparseFrame":
        """Element-wise average of several sparse frames (``cAverage`` mode)."""
        frames = list(frames)
        if not frames:
            raise ValueError("cannot average an empty list of frames")
        summed = SparseFrame.add(frames)
        return summed.scale(1.0 / len(frames))

    def density_change(self, other: "SparseFrame") -> float:
        """Relative change in spatial density between ``self`` and ``other``.

        DSFA uses this to decide whether an incoming frame may join an
        existing merge bucket (the ``MdTh`` threshold).  Defined as
        ``|d_self - d_other| / max(d_self, d_other)`` and 0 when both are
        empty.
        """
        d1, d2 = self.density, other.density
        top = abs(d1 - d2)
        bottom = max(d1, d2)
        if bottom == 0:
            return 0.0
        return top / bottom


class SparseFrameBatch:
    """An ordered batch of sparse frames (one dispatched inference input).

    The batch is what gets presented to the network as a multi-channel /
    multi-timestep input: ``B`` sparse frames concatenated along a leading
    batch dimension.  It is the index range ``[start, stop)`` of a
    :class:`~repro.frames.stack.FrameStack` (:meth:`from_stack`), the
    columnar transport the runtime uses end to end: density and time-bound
    queries read the stack's vectorised columns, :meth:`to_dense` scatters
    the whole batch in one flat ``bincount`` pass, and no per-frame objects
    exist until a caller iterates the batch (zero-copy views).  Loose
    frames are batched by packing them first with
    :meth:`FrameStack.from_frames`.
    """

    __slots__ = ("_stack", "_start", "_stop")

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

    @property
    def stack(self):
        """The backing :class:`FrameStack`."""
        return self._stack

    @property
    def stack_range(self) -> Tuple[int, int]:
        """The backing ``(start, stop)`` index range."""
        return (self._start, self._stop)

    @property
    def frames(self) -> List[SparseFrame]:
        """The batch's frames, materialised as zero-copy stack views."""
        return [self._stack.frame(i) for i in range(self._start, self._stop)]

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
        return float(self._stack.t_starts[self._start : self._stop].min())

    @property
    def t_end(self) -> float:
        """Latest end time in the batch."""
        if self._stop == self._start:
            return 0.0
        return float(self._stack.t_ends[self._start : self._stop].max())

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
        """Mean spatial density across the batch (0 for an empty batch)."""
        n = self._stop - self._start
        if n == 0:
            return 0.0
        if n == 1:
            # Bit-identical to np.mean over one element; single-frame
            # batches dominate the traffic hot path.
            return self._stack.frame_density(self._start)
        return float(np.mean(self._stack.densities()[self._start : self._stop]))

    def frame_densities(self) -> Tuple[float, ...]:
        """Per-frame spatial densities, in batch order.

        These seed the per-member occupancy profiles of the layered cost
        stack: a merged dispatch's per-layer occupancy is the mean of its
        members' propagated profiles, so the combination needs the
        individual densities, not just :attr:`mean_density`.  They are read
        off the stack's cached density column.
        """
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
        stack = self._stack
        num = self._stop - self._start
        if num == 0:
            return np.zeros((0, 2, 0, 0))
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
