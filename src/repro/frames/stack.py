"""Columnar COO frame stacks: many sparse frames in one set of buffers.

The per-frame data plane allocates four small numpy arrays per
``SparseFrame`` — thousands of tiny allocations per compiled stream at fleet
scale, plus a Python property walk per density query.  A :class:`FrameStack`
stores an entire rendering (every ``(interval, bin)`` of a recording, or
every merged bucket of a DSFA dispatch) as **one** contiguous set of
``rows/cols/pos/neg`` buffers with a CSR-style ``offsets`` array over
frames, per-frame ``t_starts``/``t_ends`` columns, and a cached flat
pixel-key buffer shared by every sliced frame view.

Operations on the stack are vectorised across frames:

* :meth:`FrameStack.densities` — all per-frame spatial densities from one
  ``np.diff`` over ``offsets`` (no per-frame property walks);
* :meth:`FrameStack.frame` — a zero-copy :class:`~repro.frames.sparse.
  SparseFrame` view over the buffers (buffer slices share memory with the
  stack and carry their slice of the key cache);
* :meth:`FrameStack.merge_ranges` — the segmented merge kernel behind DSFA
  batches: merges *all* buckets of a dispatch (frame index ranges of the
  stack) in one grouped-reduce pass instead of one ``np.unique`` round trip
  per bucket, when a caller first reads the batch's frame contents.  Loose
  frames merge the same way once packed with :meth:`FrameStack.from_frames`.

The merge kernel is bit-identical to merging each range's frames on its
own with ``np.unique`` + ``np.bincount`` and, for cAverage, scaling by
``1 / len(range)`` (stable sort, input-order accumulation; see
:func:`~repro.frames.sparse._grouped_reduce`), and runs pure numpy.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from .sparse import SparseFrame, _grouped_reduce

__all__ = ["FrameStack"]

_K = TypeVar("_K")
_T = TypeVar("_T")


class FrameStack:
    """A sequence of same-geometry sparse frames in contiguous COO buffers.

    Parameters
    ----------
    rows, cols, pos, neg:
        Concatenated COO columns of every frame, frame-major (frame ``i``
        occupies ``[offsets[i], offsets[i+1])``).
    offsets:
        CSR-style int64 array of length ``num_frames + 1`` with
        ``offsets[0] == 0`` and ``offsets[-1] == rows.size``.
    t_starts, t_ends:
        Per-frame time bounds (float64, length ``num_frames``).
    height, width:
        Shared dense frame dimensions.
    flat:
        Optional precomputed ``row * width + col`` keys (int64, same length
        as ``rows``); computed lazily when omitted.
    """

    __slots__ = (
        "rows",
        "cols",
        "pos",
        "neg",
        "offsets",
        "t_starts",
        "t_ends",
        "height",
        "width",
        "_flat",
        "_dens",
        "_ts_list",
        "_te_list",
        "_d_list",
        "_ascending",
        "_compiled",
    )

    def __init__(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        pos: np.ndarray,
        neg: np.ndarray,
        offsets: np.ndarray,
        t_starts: np.ndarray,
        t_ends: np.ndarray,
        height: int,
        width: int,
        flat: Optional[np.ndarray] = None,
    ) -> None:
        rows = np.asarray(rows, dtype=np.int32)
        cols = np.asarray(cols, dtype=np.int32)
        pos = np.asarray(pos, dtype=np.float64)
        neg = np.asarray(neg, dtype=np.float64)
        offsets = np.asarray(offsets, dtype=np.int64)
        t_starts = np.asarray(t_starts, dtype=np.float64)
        t_ends = np.asarray(t_ends, dtype=np.float64)
        if not (rows.shape == cols.shape == pos.shape == neg.shape):
            raise ValueError("rows, cols, pos, neg must have identical shapes")
        if rows.ndim != 1:
            raise ValueError("stack columns must be one-dimensional")
        if height <= 0 or width <= 0:
            raise ValueError("frame dimensions must be positive")
        if offsets.ndim != 1 or offsets.size < 1:
            raise ValueError("offsets must be a non-empty one-dimensional array")
        if offsets[0] != 0 or offsets[-1] != rows.size:
            raise ValueError("offsets must start at 0 and end at the buffer length")
        if np.any(np.diff(offsets) < 0):
            raise ValueError("offsets must be non-decreasing")
        if not (t_starts.shape == t_ends.shape == (offsets.size - 1,)):
            raise ValueError("t_starts/t_ends must have one entry per frame")
        if rows.size:
            if rows.min() < 0 or rows.max() >= height:
                raise ValueError("row indices out of bounds")
            if cols.min() < 0 or cols.max() >= width:
                raise ValueError("column indices out of bounds")
        self.rows = rows
        self.cols = cols
        self.pos = pos
        self.neg = neg
        self.offsets = offsets
        self.t_starts = t_starts
        self.t_ends = t_ends
        self.height = int(height)
        self.width = int(width)
        self._flat = None if flat is None else np.asarray(flat, dtype=np.int64)
        self._dens = None
        self._ts_list = None
        self._te_list = None
        self._d_list = None
        self._ascending = None
        self._compiled = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def _view(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        pos: np.ndarray,
        neg: np.ndarray,
        offsets: np.ndarray,
        t_starts: np.ndarray,
        t_ends: np.ndarray,
        height: int,
        width: int,
        flat: Optional[np.ndarray] = None,
    ) -> "FrameStack":
        """Trusted constructor: adopt kernel-produced buffers without
        re-validating them (the kernels guarantee the invariants)."""
        stack = cls.__new__(cls)
        stack.rows = rows
        stack.cols = cols
        stack.pos = pos
        stack.neg = neg
        stack.offsets = offsets
        stack.t_starts = t_starts
        stack.t_ends = t_ends
        stack.height = height
        stack.width = width
        stack._flat = flat
        stack._dens = None
        stack._ts_list = None
        stack._te_list = None
        stack._d_list = None
        stack._ascending = None
        stack._compiled = None
        return stack

    @classmethod
    def from_frames(cls, frames: Sequence[SparseFrame]) -> "FrameStack":
        """Pack existing sparse frames into one contiguous stack."""
        frames = list(frames)
        if not frames:
            raise ValueError("cannot build a stack from an empty frame list")
        h, w = frames[0].height, frames[0].width
        for f in frames[1:]:
            if (f.height, f.width) != (h, w):
                raise ValueError("all frames must share the same dimensions")
        offsets = np.zeros(len(frames) + 1, dtype=np.int64)
        np.cumsum([f.num_active for f in frames], out=offsets[1:])
        return cls(
            np.concatenate([f.rows for f in frames]),
            np.concatenate([f.cols for f in frames]),
            np.concatenate([f.pos for f in frames]),
            np.concatenate([f.neg for f in frames]),
            offsets,
            np.array([f.t_start for f in frames], dtype=np.float64),
            np.array([f.t_end for f in frames], dtype=np.float64),
            h,
            w,
        )

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    @property
    def num_frames(self) -> int:
        """Number of frames in the stack."""
        return int(self.offsets.size - 1)

    def __len__(self) -> int:
        return self.num_frames

    def __iter__(self):
        for i in range(self.num_frames):
            yield self.frame(i)

    def __repr__(self) -> str:
        return (
            f"FrameStack({self.num_frames} frames, {self.height}x{self.width}, "
            f"nnz={self.rows.size})"
        )

    def flat_buffer(self) -> np.ndarray:
        """The (cached) flat ``row * width + col`` key buffer."""
        if self._flat is None:
            self._flat = self.rows.astype(np.int64) * self.width + self.cols
        return self._flat

    # ------------------------------------------------------------------
    # vectorised per-frame queries
    # ------------------------------------------------------------------
    def nnz_counts(self) -> np.ndarray:
        """Active sites per frame (int64), one ``np.diff`` over ``offsets``."""
        return np.diff(self.offsets)

    def densities(self) -> np.ndarray:
        """Per-frame spatial densities, vectorised (cached).

        Equals ``[stack.frame(i).density for i in range(len(stack))]``
        without materialising a frame view per entry.  The column is cached:
        DSFA's placement compile and batch cost queries read it repeatedly on
        the fleet hot path.  Callers must not mutate the returned array.
        """
        if self._dens is None:
            self._dens = self.nnz_counts() / float(self.height * self.width)
        return self._dens

    def frame_density(self, index: int) -> float:
        """Spatial density of frame ``index`` — O(1) off the cached
        :meth:`densities` column, bit-identical to ``frame(index).density``."""
        return float(self.densities()[index])

    def t_starts_list(self) -> List[float]:
        """``t_starts`` as a cached list of python floats.

        ``float64.tolist()`` round-trips every value exactly, so indexing
        this list is bit-identical to ``float(self.t_starts[i])`` — but a
        list index is a pointer load, while extracting a numpy scalar per
        DSFA push costs ~1µs.  The placement compile reads one entry per
        probed frame.
        """
        if self._ts_list is None:
            self._ts_list = self.t_starts.tolist()
        return self._ts_list

    def t_ends_list(self) -> List[float]:
        """``t_ends`` as a cached list of python floats (exact, same
        rationale as :meth:`t_starts_list`)."""
        if self._te_list is None:
            self._te_list = self.t_ends.tolist()
        return self._te_list

    def densities_list(self) -> List[float]:
        """:meth:`densities` as a cached list of python floats (exact,
        same rationale as :meth:`t_starts_list`)."""
        if self._d_list is None:
            self._d_list = self.densities().tolist()
        return self._d_list

    def keys_strictly_ascending(self) -> bool:
        """True when every frame's pixel keys are strictly ascending (cached).

        Such a frame repeats no key, so its ``nnz`` is its distinct-key
        count and its cached density equals the density of its merge with
        itself.  Stacks rendered by ``convert_stack`` (grouped-reduce key
        order) and frames from :meth:`SparseFrame.from_events` /
        :meth:`SparseFrame.from_dense` always pass; stacks built from other
        columns may repeat or unsort keys and fail.  One vectorised pass
        over :meth:`flat_buffer`; key pairs that straddle a frame boundary
        are exempt.
        """
        if self._ascending is None:
            flat = self.flat_buffer()
            step = np.diff(flat) > 0
            starts = self.offsets[1:-1]
            starts = starts[(starts > 0) & (starts < flat.size)]
            step[starts - 1] = True
            self._ascending = bool(step.all())
        return self._ascending

    def compiled(self, build: Callable[["FrameStack", _K], _T], key: _K) -> _T:
        """``build(self, key)``, computed once per ``(build, key)``.

        Lets another layer compile what depends only on the stack's columns
        and a few settings (DSFA's placement plan,
        :func:`repro.core.dsfa.placement_plan`) once, on the stack itself, so
        every stream replaying the stack shares it and it lives exactly as
        long as the stack does.  ``build`` must only read the columns: a
        frozen stack stays read-only.  Slices and unpickled copies start
        with nothing compiled.
        """
        compiled = self._compiled
        if compiled is None:
            compiled = self._compiled = {}
        entry = compiled.get((build, key))
        if entry is None:
            entry = compiled[(build, key)] = build(self, key)
        return entry

    def freeze(self) -> "FrameStack":
        """Warm every derived column, then make every buffer read-only.

        Computes the flat keys, the density column, the python-float time
        and density lists and the key-order flag, so readers of a frozen
        stack do no render work.  Then clears ``flags.writeable`` on
        ``rows``/``cols``/``pos``/``neg``/``offsets``/``t_starts``/
        ``t_ends``, the flat keys and the density column: one stack can be
        shared by many streams, and a stray write raises ``ValueError``
        instead of leaking into the others.  Returns ``self``.
        """
        self.t_starts_list()
        self.t_ends_list()
        self.densities_list()
        self.keys_strictly_ascending()
        for column in (
            self.rows,
            self.cols,
            self.pos,
            self.neg,
            self.offsets,
            self.t_starts,
            self.t_ends,
            self._flat,
            self._dens,
        ):
            column.flags.writeable = False
        return self

    # ------------------------------------------------------------------
    # frame views
    # ------------------------------------------------------------------
    def frame(self, index: int) -> SparseFrame:
        """Zero-copy :class:`SparseFrame` view of frame ``index``.

        The view's columns are slices of the stack buffers (shared memory).
        Its flat-key cache is pre-seeded from the stack's key buffer only
        when that buffer already exists: computing the whole column just to
        seed one view would charge every stack whose views never touch the
        keys an int64 column.  Callers that materialise every frame for
        key-consuming merges warm :meth:`flat_buffer` first.
        """
        if not 0 <= index < self.num_frames:
            raise IndexError(f"frame index {index} out of range")
        lo = int(self.offsets[index])
        hi = int(self.offsets[index + 1])
        return SparseFrame._view(
            self.rows[lo:hi],
            self.cols[lo:hi],
            self.pos[lo:hi],
            self.neg[lo:hi],
            self.height,
            self.width,
            float(self.t_starts[index]),
            float(self.t_ends[index]),
            flat=None if self._flat is None else self._flat[lo:hi],
        )

    def frames(self) -> List[SparseFrame]:
        """All frames as zero-copy views, in stack order."""
        return [self.frame(i) for i in range(self.num_frames)]

    def slice(self, start: int, stop: int) -> "FrameStack":
        """Zero-copy sub-stack over frames ``[start, stop)``.

        Buffer columns and time bounds are numpy views into this stack
        (shared memory); only the rebased ``offsets`` array is newly
        allocated.  A cached flat-key buffer is carried into the slice (as a
        view) when present — it is never computed just for the slice; what
        was :meth:`compiled` on this stack is not, because it indexes this
        stack's frames.  This is how shard workers and churned streams ship
        index ranges instead of frame lists; pickling a slice serialises
        only the sliced elements and drops the derived caches (see
        :meth:`__getstate__`).
        """
        if not 0 <= start <= stop <= self.num_frames:
            raise IndexError(
                f"slice [{start}, {stop}) out of range for {self.num_frames} frames"
            )
        lo = int(self.offsets[start])
        hi = int(self.offsets[stop])
        return FrameStack._view(
            self.rows[lo:hi],
            self.cols[lo:hi],
            self.pos[lo:hi],
            self.neg[lo:hi],
            self.offsets[start : stop + 1] - lo,
            self.t_starts[start:stop],
            self.t_ends[start:stop],
            self.height,
            self.width,
            flat=None if self._flat is None else self._flat[lo:hi],
        )

    # ------------------------------------------------------------------
    # pickling
    # ------------------------------------------------------------------
    def __getstate__(self):
        # The flat-key and density caches and the compiled structures are
        # derived data (and may alias buffers of a parent stack) — rebuild
        # them lazily on the other side instead of shipping them through
        # worker pipes.  Pickling array views serialises only the viewed
        # elements, so sliced sub-stacks ship compactly.
        return (
            self.rows,
            self.cols,
            self.pos,
            self.neg,
            self.offsets,
            self.t_starts,
            self.t_ends,
            self.height,
            self.width,
        )

    def __setstate__(self, state) -> None:
        (
            self.rows,
            self.cols,
            self.pos,
            self.neg,
            self.offsets,
            self.t_starts,
            self.t_ends,
            self.height,
            self.width,
        ) = state
        self._flat = None
        self._dens = None
        self._ts_list = None
        self._te_list = None
        self._d_list = None
        self._ascending = None
        self._compiled = None

    # ------------------------------------------------------------------
    # segmented merge kernels
    # ------------------------------------------------------------------
    def merge_ranges(
        self, ranges: Sequence[Tuple[int, int]], average: bool = False
    ) -> "FrameStack":
        """Merge frame index ranges of *this* stack with cAdd (or cAverage).

        ``ranges`` is a sequence of non-empty ``(start, stop)`` frame-index
        ranges; merged frame ``i`` of the result is the merge of frames
        ``[ranges[i][0], ranges[i][1])``.  This is the slice-backed kernel
        behind DSFA batches (:meth:`SparseFrameBatch.from_merge` runs it the
        first time a caller reads a dispatched batch's frame contents):
        buckets that hold index ranges into one stream's stack merge
        without ever materialising per-frame views.  When the
        ranges are adjacent and ascending — always true for DSFA buckets,
        which partition a contiguous run of arrivals — the entry columns are
        one parent slice and nothing is concatenated at all.

        Bit-identical to merging each range's frames on its own with
        ``np.unique`` + ``np.bincount`` (then scaling by ``1 / len(range)``
        for cAverage): within a segment the grouped reduction accumulates
        the same entries in the same order, and the time bounds are the same
        min/max.
        """
        if not len(ranges):
            raise ValueError("cannot merge an empty list of ranges")
        starts = np.array([r[0] for r in ranges], dtype=np.int64)
        stops = np.array([r[1] for r in ranges], dtype=np.int64)
        if np.any(stops <= starts):
            raise ValueError("cannot merge an empty range")
        if starts.min() < 0 or stops.max() > self.num_frames:
            raise IndexError("merge range out of bounds")
        lo = self.offsets[starts]
        hi = self.offsets[stops]
        if np.array_equal(starts[1:], stops[:-1]):
            # Adjacent ascending ranges: one contiguous parent slice.
            flat = self.flat_buffer()[int(lo[0]) : int(hi[-1])]
            pos = self.pos[int(lo[0]) : int(hi[-1])]
            neg = self.neg[int(lo[0]) : int(hi[-1])]
        else:
            whole = self.flat_buffer()
            flat = np.concatenate([whole[a:b] for a, b in zip(lo, hi)])
            pos = np.concatenate([self.pos[a:b] for a, b in zip(lo, hi)])
            neg = np.concatenate([self.neg[a:b] for a, b in zip(lo, hi)])
        num_pixels = self.height * self.width
        ts = self.t_starts_list()
        te = self.t_ends_list()
        segment = np.repeat(np.arange(len(ranges), dtype=np.int64), hi - lo)
        key = segment * num_pixels + flat
        unique_key, pos_sum, neg_sum = _grouped_reduce(key, pos, neg)
        unique_segment = unique_key // num_pixels
        unique_flat = unique_key - unique_segment * num_pixels
        if average:
            factors = 1.0 / (stops - starts).astype(np.float64)
            pos_sum = pos_sum * factors[unique_segment]
            neg_sum = neg_sum * factors[unique_segment]
        offsets = np.zeros(len(ranges) + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(unique_segment, minlength=len(ranges)), out=offsets[1:]
        )
        # The flat key cache is not carried onto the result.  Queued DSFA
        # batches no longer hold merged stacks (they build one only when
        # read), but a caller that builds one may keep it, and the int64
        # column would add about a quarter to its footprint for keys that
        # only the rare key-reading paths want; those recompute them lazily.
        return FrameStack._view(
            (unique_flat // self.width).astype(np.int32),
            (unique_flat % self.width).astype(np.int32),
            pos_sum,
            neg_sum,
            offsets,
            # min/max over the cached python-float columns: bit-identical
            # to the numpy reductions (same float64 values, no NaN) without
            # a ufunc dispatch per range.
            np.array(
                [min(ts[r[0] : r[1]]) for r in ranges], dtype=np.float64
            ),
            np.array(
                [max(te[r[0] : r[1]]) for r in ranges], dtype=np.float64
            ),
            self.height,
            self.width,
        )
