"""Dynamic Sparse Frame Aggregator (DSFA) — paper Section 4.2.

DSFA sits between E2SF and the network: it buffers incoming sparse frames,
greedily packs them into *merge buckets* and dispatches merged frames to the
inference queue, adapting the temporal granularity of the input to both the
event density and the hardware processing rate.

The implementation follows Figure 6 of the paper:

* an event buffer of capacity ``EBufsize`` holds incoming sparse frames,
  partitioned into merge buckets of capacity ``MBsize``;
* an incoming frame joins the earliest ``AVL`` bucket if (i) its delay from
  the bucket's earliest frame is within ``MtTh`` and (ii) the relative change
  in spatial density versus the bucket's merged density is within ``MdTh``;
  otherwise the bucket is marked ``FULL`` and the next bucket is tried
  (``cBatch`` mode always opens a new bucket);
* when the buffer occupancy exceeds ``EBufsize`` — or the hardware reports
  itself idle — the buckets are combined according to ``cMode``
  (``cAdd`` / ``cAverage`` / ``cBatch``) and forwarded to the inference
  queue, evicting the oldest pending entry if the queue is full.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Deque, List, Optional

import numpy as np

from ..frames.sparse import SparseFrame, SparseFrameBatch
from ..frames.stack import FrameStack

__all__ = [
    "MergeMode",
    "BucketStatus",
    "MergeBucket",
    "StackMergeBucket",
    "DSFAConfig",
    "DynamicSparseFrameAggregator",
]


class MergeMode(Enum):
    """How the frames inside one merge bucket are combined (``cMode``)."""

    ADD = "cAdd"
    AVERAGE = "cAverage"
    BATCH = "cBatch"


class BucketStatus(Enum):
    """Whether a merge bucket can still accept frames."""

    AVAILABLE = "AVL"
    FULL = "FULL"


@dataclass
class MergeBucket:
    """One merge bucket: a bounded group of sparse frames merged together."""

    capacity: int
    frames: List[SparseFrame] = field(default_factory=list)
    status: BucketStatus = BucketStatus.AVAILABLE
    # Incrementally maintained cAdd merge of ``frames``, used for the
    # density queries of the placement test.  Merging is associative on the
    # *support* (the active-site union), so the incremental merge has
    # bit-identical density to re-merging the whole list — but each
    # ``accepts`` probe stops paying an O(bucket) re-merge.  ``merge()``
    # still combines the full list so dispatched values keep their exact
    # summation order.
    _merged: Optional[SparseFrame] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("bucket capacity must be >= 1")

    @property
    def occupancy(self) -> int:
        """Number of frames currently in the bucket."""
        return len(self.frames)

    @property
    def is_full(self) -> bool:
        """True when no further frame may be added."""
        return self.status is BucketStatus.FULL or self.occupancy >= self.capacity

    @property
    def earliest_time(self) -> float:
        """Timestamp of the earliest frame (``Time(Evf_1)``), inf when empty."""
        if not self.frames:
            return float("inf")
        return min(f.t_start for f in self.frames)

    def _merged_support(self) -> SparseFrame:
        """The (cached) cAdd merge of the bucket, for density queries."""
        if self._merged is None:
            self._merged = SparseFrame.add(self.frames)
        return self._merged

    @property
    def merged_density(self) -> float:
        """Spatial density of the bucket's frames merged with cAdd (``MBmerged``)."""
        if not self.frames:
            return 0.0
        return self._merged_support().density

    def accepts(self, frame: SparseFrame, max_delay: float, max_density_change: float) -> bool:
        """Greedy placement test: capacity, time-delay and density conditions."""
        if self.is_full:
            return False
        if not self.frames:
            return True
        if frame.t_start - self.earliest_time > max_delay:
            return False
        if self._merged_support().density_change(frame) > max_density_change:
            return False
        return True

    def add(self, frame: SparseFrame) -> None:
        """Insert ``frame`` (the caller must have checked :meth:`accepts`)."""
        if self.is_full:
            raise RuntimeError("cannot add a frame to a FULL merge bucket")
        self.frames.append(frame)
        if self._merged is not None:
            self._merged = SparseFrame.add([self._merged, frame])
        if self.occupancy >= self.capacity:
            self.seal()

    def seal(self) -> None:
        """Mark the bucket FULL and release its merged-support cache.

        A FULL bucket is never density-probed again — it only waits for
        dispatch — so the incremental cAdd support is dead weight from here.
        """
        self.status = BucketStatus.FULL
        self._merged = None

    def merge(self, mode: MergeMode) -> SparseFrame:
        """Combine the bucket's frames into one sparse frame per ``mode``.

        ``cBatch`` buckets hold a single frame by construction, so the merge
        is the identity for them.
        """
        if not self.frames:
            raise RuntimeError("cannot merge an empty bucket")
        if mode is MergeMode.ADD or mode is MergeMode.BATCH:
            return FrameStack.segment_add(self.frames)
        return FrameStack.segment_average(self.frames)


class StackMergeBucket:
    """A merge bucket backed by an index range into a :class:`FrameStack`.

    The stack-transport data plane pushes frames by ``(stack, index)``
    reference, so the bucket never materialises frame objects: it holds the
    contiguous range ``[start, stop)`` of stack indices placed into it.
    Contiguity is a structural invariant of the placement loop, not an
    assumption — once a bucket rejects a frame it is marked ``FULL``
    forever, so every placement lands in the *first* non-``FULL`` bucket
    and each bucket accumulates a contiguous run of pushed indices, with
    buckets in list order partitioning a contiguous range of the stack.

    Density probes read the stack's cached :meth:`FrameStack.densities`
    column and compute the merged-support density as the unique-key count
    of the range's flat pixel keys — bit-identical to the incremental
    cAdd merge of :class:`MergeBucket` (density depends only on the active-
    site union), without building any intermediate frame.
    """

    __slots__ = (
        "capacity",
        "stack",
        "start",
        "stop",
        "status",
        "_density",
        "_earliest",
    )

    def __init__(self, capacity: int, stack: FrameStack, start: int) -> None:
        if capacity < 1:
            raise ValueError("bucket capacity must be >= 1")
        self.capacity = capacity
        self.stack = stack
        self.start = start
        self.stop = start
        self.status = BucketStatus.AVAILABLE
        self._density: Optional[float] = None
        # Running min of the bucket's t_starts (the paper's Time(Evf_1)),
        # maintained in O(1) per add so placement probes never slice the
        # stack's time column.
        self._earliest = float("inf")

    @property
    def occupancy(self) -> int:
        """Number of frames currently in the bucket."""
        return self.stop - self.start

    @property
    def is_full(self) -> bool:
        """True when no further frame may be added."""
        return self.status is BucketStatus.FULL or self.occupancy >= self.capacity

    @property
    def earliest_time(self) -> float:
        """Timestamp of the earliest frame (``Time(Evf_1)``), inf when empty."""
        return self._earliest

    @property
    def frames(self) -> List[SparseFrame]:
        """The bucket's frames, materialised as zero-copy stack views."""
        return [self.stack.frame(i) for i in range(self.start, self.stop)]

    @property
    def merged_density(self) -> float:
        """Spatial density of the bucket's frames merged with cAdd (``MBmerged``)."""
        if self.stop == self.start:
            return 0.0
        if self._density is None:
            lo = int(self.stack.offsets[self.start])
            hi = int(self.stack.offsets[self.stop])
            # Cardinality of a key set equals ``np.unique(...).size`` and
            # the int64 -> python int round trip is exact, so the density
            # is bit-identical to the cAdd-merge's.  The set is transient:
            # a bucket holds at most ``capacity`` sparse frames, so
            # rebuilding it per probe beats both an ``np.unique`` dispatch
            # and retaining a per-bucket support cache across the fleet.
            support = set(self.stack.flat_buffer()[lo:hi].tolist())
            self._density = len(support) / float(
                self.stack.height * self.stack.width
            )
        return self._density

    def accepts_index(
        self,
        stack: FrameStack,
        index: int,
        max_delay: float,
        max_density_change: float,
        t_start: Optional[float] = None,
        density: Optional[float] = None,
    ) -> bool:
        """Greedy placement test for frame ``index`` of ``stack``.

        Same three conditions as :meth:`MergeBucket.accepts`; a bucket
        additionally never accepts indices of a *different* stack (the
        caller then marks it FULL, exactly as for a failed condition).
        ``t_start`` / ``density`` accept the frame's precomputed scalars —
        the placement loop probes one frame against many buckets and
        extracts them from the stack columns once, not per probe.
        """
        if stack is not self.stack or self.is_full:
            return False
        if self.stop == self.start:
            return True
        if t_start is None:
            t_start = stack.t_starts_list()[index]
        if t_start - self._earliest > max_delay:
            return False
        d1 = self.merged_density
        d2 = stack.frame_density(index) if density is None else density
        bottom = d1 if d1 > d2 else d2
        if bottom > 0 and abs(d1 - d2) / bottom > max_density_change:
            return False
        return True

    def add_index(self, index: int) -> None:
        """Append frame ``index`` (the caller must have checked :meth:`accepts_index`)."""
        if self.is_full:
            raise RuntimeError("cannot add a frame to a FULL merge bucket")
        if index != self.stop:
            raise RuntimeError(
                f"stack bucket holds [{self.start}, {self.stop}); "
                f"index {index} breaks contiguity"
            )
        self.stop = index + 1
        self._density = None
        t = self.stack.t_starts_list()[index]
        if t < self._earliest:
            self._earliest = t
        if self.occupancy >= self.capacity:
            self.seal()

    def seal(self) -> None:
        """Mark the bucket FULL; it is never density-probed again and only
        waits for dispatch."""
        self.status = BucketStatus.FULL

    def merge(self, mode: MergeMode) -> SparseFrame:
        """Combine the bucket's frames into one sparse frame per ``mode``."""
        if self.stop == self.start:
            raise RuntimeError("cannot merge an empty bucket")
        merged = self.stack.merge_ranges(
            [(self.start, self.stop)], average=mode is MergeMode.AVERAGE
        )
        return merged.frame(0)


@dataclass(frozen=True)
class DSFAConfig:
    """Tunable parameters of DSFA (all named as in the paper).

    Attributes
    ----------
    event_buffer_size:
        ``EBufsize`` — total frames buffered before a forced dispatch.
    merge_bucket_size:
        ``MBsize`` — frames per merge bucket.
    max_time_delay:
        ``MtTh`` — maximum delay (seconds) between an incoming frame and the
        earliest frame of the bucket it joins.
    max_density_change:
        ``MdTh`` — maximum relative change in spatial density.
    merge_mode:
        ``cMode`` — cAdd / cAverage / cBatch.
    inference_queue_depth:
        Depth of the per-task inference queue; the oldest entry is discarded
        when a new merged frame arrives at a full queue.
    """

    event_buffer_size: int = 8
    merge_bucket_size: int = 4
    max_time_delay: float = 0.05
    max_density_change: float = 0.5
    merge_mode: MergeMode = MergeMode.ADD
    inference_queue_depth: int = 4

    def __post_init__(self) -> None:
        if self.event_buffer_size < 1:
            raise ValueError("event_buffer_size must be >= 1")
        if self.merge_bucket_size < 1:
            raise ValueError("merge_bucket_size must be >= 1")
        if self.merge_bucket_size > self.event_buffer_size:
            raise ValueError("merge_bucket_size cannot exceed event_buffer_size")
        if self.max_time_delay <= 0:
            raise ValueError("max_time_delay must be positive")
        if self.max_density_change < 0:
            raise ValueError("max_density_change must be non-negative")
        if self.inference_queue_depth < 1:
            raise ValueError("inference_queue_depth must be >= 1")


class DynamicSparseFrameAggregator:
    """Runtime aggregator of sparse frames (one instance per task)."""

    def __init__(self, config: Optional[DSFAConfig] = None) -> None:
        self.config = config or DSFAConfig()
        self._buckets: List[MergeBucket] = []
        self._inference_queue: Deque[SparseFrameBatch] = deque(
            maxlen=self.config.inference_queue_depth
        )
        self.discarded_frames = 0
        self.dispatched_batches = 0
        # Running buffered-frame count: every _place adds exactly one frame
        # and _dispatch drains every bucket, so the counter is O(1) per push
        # instead of re-summing all bucket occupancies.
        self._buffered_frames = 0

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def buffer_occupancy(self) -> int:
        """Total frames currently buffered across all merge buckets."""
        return self._buffered_frames

    @property
    def num_buckets(self) -> int:
        """Number of (non-dispatched) merge buckets."""
        return len(self._buckets)

    @property
    def inference_queue(self) -> List[SparseFrameBatch]:
        """Snapshot of the pending merged-frame batches."""
        return list(self._inference_queue)

    # ------------------------------------------------------------------
    # main entry points
    # ------------------------------------------------------------------
    def push(self, frame: SparseFrame, hardware_available: bool = False) -> Optional[SparseFrameBatch]:
        """Offer a newly generated sparse frame to the aggregator.

        Returns a dispatched :class:`SparseFrameBatch` if this push caused a
        dispatch (buffer overflow or ``hardware_available``), else ``None``.
        """
        self._place(frame)
        return self._maybe_dispatch(hardware_available)

    def push_index(
        self, stack: FrameStack, index: int, hardware_available: bool = False
    ) -> Optional[SparseFrameBatch]:
        """Offer frame ``index`` of ``stack`` without materialising it.

        The stack-transport twin of :meth:`push`: placement probes read the
        stack's density/time columns, buckets record index ranges
        (:class:`StackMergeBucket`) and dispatch merges every bucket in one
        :meth:`FrameStack.merge_ranges` pass over the parent buffers.
        Dispatch decisions, accounting and merged values are bit-identical
        to pushing ``stack.frame(index)`` through :meth:`push`.
        """
        self._place_index(stack, index)
        return self._maybe_dispatch(hardware_available)

    def flush(self) -> Optional[SparseFrameBatch]:
        """Force-dispatch all buffered frames (end of a sequence)."""
        if self.num_buckets == 0:
            return None
        return self._dispatch()

    def pop_batch(self) -> Optional[SparseFrameBatch]:
        """Take the oldest pending batch from the inference queue."""
        if not self._inference_queue:
            return None
        return self._inference_queue.popleft()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _maybe_dispatch(self, hardware_available: bool) -> Optional[SparseFrameBatch]:
        if self.buffer_occupancy >= self.config.event_buffer_size:
            return self._dispatch()
        if hardware_available and self.num_buckets > 0:
            # Dispatch whatever is ready to keep the hardware busy.
            return self._dispatch()
        return None

    def _new_bucket(self, capacity: int) -> MergeBucket:
        """Bucket constructor hook for the per-frame path (oracle subclasses override)."""
        return MergeBucket(capacity=capacity)

    def _place(self, frame: SparseFrame) -> None:
        cfg = self.config
        self._buffered_frames += 1
        if cfg.merge_mode is MergeMode.BATCH:
            # cBatch: every generated frame goes into a fresh bucket.
            bucket = self._new_bucket(1)
            bucket.add(frame)
            self._buckets.append(bucket)
            return
        for bucket in self._buckets:
            if bucket.accepts(frame, cfg.max_time_delay, cfg.max_density_change):
                bucket.add(frame)
                return
            if not bucket.is_full:
                # Condition failed: the paper marks the bucket FULL and moves on.
                bucket.seal()
        bucket = self._new_bucket(cfg.merge_bucket_size)
        bucket.add(frame)
        self._buckets.append(bucket)

    def _place_index(self, stack: FrameStack, index: int) -> None:
        cfg = self.config
        self._buffered_frames += 1
        if cfg.merge_mode is MergeMode.BATCH:
            # cBatch: every generated frame goes into a fresh bucket.
            bucket = StackMergeBucket(1, stack, index)
            bucket.add_index(index)
            self._buckets.append(bucket)
            return
        # Only the tail bucket can ever be open: a bucket that rejects a
        # frame is sealed on the spot and a full bucket stays FULL forever,
        # so every bucket before the last was closed before the last was
        # created.  Probing just the tail is therefore placement-identical
        # to the paper's full scan (every earlier probe would return False),
        # without the O(buckets) pass per push the oracle `_place` keeps.
        if self._buckets:
            bucket = self._buckets[-1]
            if isinstance(bucket, StackMergeBucket) and bucket.accepts_index(
                stack,
                index,
                cfg.max_time_delay,
                cfg.max_density_change,
                t_start=stack.t_starts_list()[index],
                density=stack.densities_list()[index],
            ):
                bucket.add_index(index)
                return
            if not bucket.is_full:
                # Condition failed: the paper marks the bucket FULL and moves on.
                bucket.seal()
        bucket = StackMergeBucket(cfg.merge_bucket_size, stack, index)
        bucket.add_index(index)
        self._buckets.append(bucket)

    def _merge_buckets(self) -> SparseFrameBatch:
        """Merge all buffered buckets into one dispatchable batch.

        Stack-backed buckets sharing one parent stack merge directly as
        index ranges (:meth:`FrameStack.merge_ranges` — the ranges are
        adjacent by the placement invariant, so the merge reads one parent
        slice) and yield a stack-backed batch; any other mix falls back to
        the segmented :meth:`FrameStack.merge_groups` pass over
        materialised frames.  Both produce bit-identical merged values.
        """
        buckets = [bucket for bucket in self._buckets if bucket.occupancy]
        average = self.config.merge_mode is MergeMode.AVERAGE
        if not buckets:
            return SparseFrameBatch([])
        stack = getattr(buckets[0], "stack", None)
        if stack is not None and all(
            isinstance(bucket, StackMergeBucket) and bucket.stack is stack
            for bucket in buckets
        ):
            merged_stack = stack.merge_ranges(
                [(bucket.start, bucket.stop) for bucket in buckets], average=average
            )
            return SparseFrameBatch.from_stack(merged_stack)
        merged_stack = FrameStack.merge_groups(
            [bucket.frames for bucket in buckets], average=average
        )
        return SparseFrameBatch(merged_stack.frames())

    def _finish_dispatch(self, batch: SparseFrameBatch) -> SparseFrameBatch:
        if len(self._inference_queue) == self._inference_queue.maxlen:
            # The earliest pending batch is discarded (stale data).
            dropped = self._inference_queue.popleft()
            self.discarded_frames += len(dropped)
        self._inference_queue.append(batch)
        self._buckets = []
        self._buffered_frames = 0
        self.dispatched_batches += 1
        return batch

    def _dispatch(self) -> SparseFrameBatch:
        # All buckets of the dispatch merge in one segmented grouped-reduce
        # pass (bit-identical to per-bucket MergeBucket.merge calls).
        return self._finish_dispatch(self._merge_buckets())

    # ------------------------------------------------------------------
    def merge_statistics(self) -> dict:
        """Summary counters for the experiment harnesses."""
        return {
            "dispatched_batches": self.dispatched_batches,
            "discarded_frames": self.discarded_frames,
            "pending_batches": len(self._inference_queue),
            "buffered_frames": self.buffer_occupancy,
        }
