"""Dynamic Sparse Frame Aggregator (DSFA) — paper Section 4.2.

DSFA sits between E2SF and the network: it buffers incoming sparse frames,
greedily packs them into *merge buckets* and dispatches merged frames for
inference, adapting the temporal granularity of the input to both the
event density and the hardware processing rate.

The implementation follows Figure 6 of the paper:

* an event buffer of capacity ``EBufsize`` holds incoming sparse frames,
  partitioned into merge buckets of capacity ``MBsize``;
* an incoming frame joins the earliest ``AVL`` bucket if (i) its delay from
  the bucket's earliest frame is within ``MtTh`` and (ii) the relative change
  in spatial density versus the bucket's merged density is within ``MdTh``;
  otherwise the bucket is marked ``FULL`` and the next bucket is tried
  (``cBatch`` mode always opens a new bucket);
* when the buffer occupancy reaches ``EBufsize`` — or the hardware reports
  itself idle — the buckets are combined according to ``cMode``
  (``cAdd`` / ``cAverage`` / ``cBatch``) and the merged batch is handed
  back for dispatch to the inference queue.

Frames arrive as ``(stack, index)`` references into one rendered
:class:`~repro.frames.stack.FrameStack`
(:meth:`DynamicSparseFrameAggregator.push_index`): every merge bucket is a
contiguous index range of that stack (:class:`StackMergeBucket`), and a
dispatch merges all buckets with one :meth:`FrameStack.merge_ranges` call.
The bounded inference queue of Figure 6 is the executor's: the
:class:`~repro.runtime.executor.SignatureServer` keeps at most
``inference_queue_depth`` pending dispatches per stream.  The per-frame
form of the algorithm — list-of-frames buckets and the full bucket scan —
is kept in ``tests/oracles/`` as the equivalence oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

from ..frames.sparse import SparseFrameBatch
from ..frames.stack import FrameStack

__all__ = [
    "MergeMode",
    "BucketStatus",
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


class StackMergeBucket:
    """One merge bucket: an index range into a :class:`FrameStack`.

    Frames are pushed by ``(stack, index)`` reference, so the bucket never
    materialises frame objects: it holds the contiguous range
    ``[start, stop)`` of stack indices placed into it.  Contiguity is a
    structural invariant of the placement loop, not an assumption — once a
    bucket rejects a frame it is marked ``FULL`` forever, so every placement
    lands in the *first* non-``FULL`` bucket and each bucket accumulates a
    contiguous run of pushed indices, with buckets in list order
    partitioning a contiguous range of the stack.

    Density probes compute the merged-support density (the paper's
    ``MBmerged``) as the unique-key count of the range's flat pixel keys —
    bit-identical to the density of the cAdd merge of the bucket's frames
    (density depends only on the active-site union), without building any
    intermediate frame.
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
        t_start: float,
        density: float,
        max_delay: float,
        max_density_change: float,
    ) -> bool:
        """Greedy placement test for the next frame of the bucket's stack.

        ``t_start`` / ``density`` are the frame's start time and spatial
        density, read by the caller off the stack's cached columns.  The
        frame is accepted when the bucket has room, its delay from the
        bucket's earliest frame is within ``max_delay`` (``MtTh``) and the
        relative density change versus :attr:`merged_density` is within
        ``max_density_change`` (``MdTh``).
        """
        if self.is_full:
            return False
        if self.stop == self.start:
            return True
        if t_start - self._earliest > max_delay:
            return False
        d1 = self.merged_density
        bottom = d1 if d1 > density else density
        if bottom > 0 and abs(d1 - density) / bottom > max_density_change:
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
        Depth of each stream's inference queue, enforced by the executor:
        a :class:`~repro.runtime.executor.SignatureServer` keeps at most
        this many pending dispatches per stream and evicts the oldest with
        ``QueueEvict("queue-full")``.  Without DSFA the depth also bounds
        the backlog drop rule: a frame is dropped when the estimated
        backlog exceeds this many inferences.
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
    """Runtime aggregator of sparse frames (one instance per task).

    The aggregator buffers frames of one :class:`FrameStack` at a time: a
    push from a different stack while frames are buffered raises
    ``ValueError`` (flush first).
    """

    def __init__(self, config: Optional[DSFAConfig] = None) -> None:
        self.config = config or DSFAConfig()
        self._buckets: List[StackMergeBucket] = []
        self.dispatched_batches = 0
        # Running buffered-frame count: every push adds exactly one frame
        # and a dispatch drains every bucket, so the counter is O(1) per
        # push instead of re-summing all bucket occupancies.
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

    # ------------------------------------------------------------------
    # main entry points
    # ------------------------------------------------------------------
    def push_index(
        self, stack: FrameStack, index: int, hardware_available: bool = False
    ) -> Optional[SparseFrameBatch]:
        """Offer frame ``index`` of ``stack`` without materialising it.

        Returns the dispatched :class:`SparseFrameBatch` if this push
        caused a dispatch (buffer full or ``hardware_available``), else
        ``None``.  Placement probes read the stack's density/time columns
        and buckets record index ranges (:class:`StackMergeBucket`).
        """
        self._place_index(stack, index)
        return self._maybe_dispatch(hardware_available)

    def flush(self) -> Optional[SparseFrameBatch]:
        """Force-dispatch all buffered frames (end of a sequence)."""
        if self.num_buckets == 0:
            return None
        return self._dispatch()

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

    def _place_index(self, stack: FrameStack, index: int) -> None:
        buckets = self._buckets
        if buckets and buckets[0].stack is not stack:
            raise ValueError(
                "DSFA buffers frames of one stack at a time; "
                "flush before pushing frames of another stack"
            )
        cfg = self.config
        self._buffered_frames += 1
        if cfg.merge_mode is MergeMode.BATCH:
            # cBatch: every generated frame goes into a fresh bucket.
            bucket = StackMergeBucket(1, stack, index)
            bucket.add_index(index)
            buckets.append(bucket)
            return
        # Only the tail bucket can ever be open: a bucket that rejects a
        # frame is sealed on the spot and a full bucket stays FULL forever,
        # so every bucket before the last was closed before the last was
        # created.  Probing just the tail is therefore placement-identical
        # to the paper's full scan (every earlier probe would return False)
        # without an O(buckets) pass per push.
        if buckets:
            bucket = buckets[-1]
            if bucket.accepts_index(
                stack.t_starts_list()[index],
                stack.densities_list()[index],
                cfg.max_time_delay,
                cfg.max_density_change,
            ):
                bucket.add_index(index)
                return
            if not bucket.is_full:
                # Condition failed: the paper marks the bucket FULL and moves on.
                bucket.seal()
        bucket = StackMergeBucket(cfg.merge_bucket_size, stack, index)
        bucket.add_index(index)
        buckets.append(bucket)

    def _dispatch(self) -> SparseFrameBatch:
        # Every bucket of the dispatch merges in one grouped-reduce pass.
        # The buckets partition a contiguous run of the stack (placement
        # invariant), so the ranges are adjacent and the merge reads one
        # parent slice.
        buckets = self._buckets
        merged = buckets[0].stack.merge_ranges(
            [(bucket.start, bucket.stop) for bucket in buckets],
            average=self.config.merge_mode is MergeMode.AVERAGE,
        )
        self._buckets = []
        self._buffered_frames = 0
        self.dispatched_batches += 1
        return SparseFrameBatch.from_stack(merged)

    # ------------------------------------------------------------------
    def merge_statistics(self) -> dict:
        """Summary counters for the experiment harnesses."""
        return {
            "dispatched_batches": self.dispatched_batches,
            "buffered_frames": self.buffer_occupancy,
        }
