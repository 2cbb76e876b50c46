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
(:meth:`DynamicSparseFrameAggregator.push_index`), so every merge bucket is
a contiguous index range of that stack.  Only the last bucket can be ``AVL``
— a ``FULL`` bucket never reopens — and a dispatch only cuts the buffer,
never deciding whether a frame joins the open bucket.  So where a bucket
opened at frame ``s`` closes, and the merged density of each of its
prefixes, depend only on the stack and the placement settings: they are
compiled once per (stack, settings) into a :class:`PlacementPlan`, cached
on the stack (:func:`placement_plan`) and shared by every stream that
replays it.  A push compares its index with the open bucket's end.  A
dispatch merges nothing: it hands out a
:meth:`~repro.frames.sparse.SparseFrameBatch.from_merge` batch of the
buckets' ranges and their plan densities — all that costing a dispatch
reads — which runs one :meth:`FrameStack.merge_ranges` call over every
bucket only if a caller reads its frame contents.
The bounded inference queue of Figure 6 is the executor's: the
:class:`~repro.runtime.executor.SignatureServer` keeps at most
``inference_queue_depth`` pending dispatches per stream.  The per-frame
form of the algorithm — list-of-frames buckets and the full bucket scan —
is kept in ``tests/oracles/`` as the equivalence oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, NamedTuple, Optional, Tuple

from .._checks import require_count
from ..frames.sparse import SparseFrameBatch
from ..frames.stack import FrameStack

__all__ = [
    "MergeMode",
    "DSFAConfig",
    "PlacementPlan",
    "placement_plan",
    "DynamicSparseFrameAggregator",
]


class MergeMode(Enum):
    """How the frames inside one merge bucket are combined (``cMode``)."""

    ADD = "cAdd"
    AVERAGE = "cAverage"
    BATCH = "cBatch"


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
        require_count("event_buffer_size", self.event_buffer_size, 1)
        require_count("merge_bucket_size", self.merge_bucket_size, 1)
        if self.merge_bucket_size > self.event_buffer_size:
            raise ValueError("merge_bucket_size cannot exceed event_buffer_size")
        # Negated comparisons, so that NaN (which compares false either
        # way) is rejected rather than disabling both merge limits.
        if not self.max_time_delay > 0:
            raise ValueError("max_time_delay must be positive")
        if not self.max_density_change >= 0:
            raise ValueError("max_density_change must be non-negative")
        # A NaN depth would turn off both eviction rules.
        require_count("inference_queue_depth", self.inference_queue_depth, 1)


class PlacementPlan(NamedTuple):
    """DSFA's bucket placement over one stack, for one set of settings.

    ``end[s]`` is the first frame that a bucket opened at frame ``s`` does
    not take, and ``densities[s][k - 1]`` is the merged density (the
    paper's ``MBmerged``: distinct active pixels over the frame area) of
    frames ``[s, s + k)`` for every ``k`` up to ``end[s] - s``.
    """

    end: List[int]
    densities: List[List[float]]


def _compile_placement(
    stack: FrameStack, key: Tuple[int, float, float]
) -> PlacementPlan:
    """Place a bucket at every start frame of ``stack`` (paper Figure 6).

    A bucket opened at ``s`` takes the next frame while it has room, the
    frame's delay from the bucket's earliest frame is within ``MtTh`` and
    its density (the stack's density column) differs from the bucket's
    merged density by at most ``MdTh`` relative to the larger of the two;
    the first frame it refuses, or the end of the stack, is ``end[s]``.
    Each start's prefix densities come from one incremental union of the
    stack's flat pixel keys: a key set's size equals ``np.unique(...).size``
    and the int64 -> python int round trip is exact, so every density is
    bit-identical to the density of the cAdd merge of its range.  A
    one-frame range of a stack whose frames repeat no key
    (:meth:`FrameStack.keys_strictly_ascending`) reads the density column.
    """
    capacity, max_delay, max_change = key
    num_frames = stack.num_frames
    t_starts = stack.t_starts_list()
    frame_density = stack.densities_list()
    offsets = stack.offsets.tolist()
    flat = stack.flat_buffer()
    area = float(stack.height * stack.width)
    ascending = stack.keys_strictly_ascending()
    end: List[int] = []
    densities: List[List[float]] = []
    for s in range(num_frames):
        lo, hi = offsets[s], offsets[s + 1]
        support = None
        if ascending:
            merged = frame_density[s]
        else:
            support = set(flat[lo:hi].tolist())
            merged = len(support) / area
        prefix = [merged]
        earliest = t_starts[s]
        j = s + 1
        stop = min(s + capacity, num_frames)
        while j < stop:
            t = t_starts[j]
            if t - earliest > max_delay:
                break
            density = frame_density[j]
            bottom = merged if merged > density else density
            if bottom > 0 and abs(merged - density) / bottom > max_change:
                break
            if support is None:
                support = set(flat[lo:hi].tolist())
            support.update(flat[offsets[j] : offsets[j + 1]].tolist())
            merged = len(support) / area
            prefix.append(merged)
            if t < earliest:
                earliest = t
            j += 1
        end.append(j)
        densities.append(prefix)
    return PlacementPlan(end, densities)


def placement_plan(stack: FrameStack, config: DSFAConfig) -> PlacementPlan:
    """``stack``'s placement under ``config``, compiled once per stack.

    The plan is cached on the stack (:meth:`FrameStack.compiled`), keyed by
    the settings placement reads: ``merge_bucket_size`` (1 for cBatch, which
    puts every frame in a fresh bucket), ``max_time_delay`` and
    ``max_density_change``.  The buffer size, the queue depth and cAdd
    versus cAverage act at dispatch, so configs that differ only there
    share a plan.
    """
    capacity = 1 if config.merge_mode is MergeMode.BATCH else config.merge_bucket_size
    key = (capacity, config.max_time_delay, config.max_density_change)
    return stack.compiled(_compile_placement, key)


class DynamicSparseFrameAggregator:
    """Runtime aggregator of sparse frames (one instance per task).

    The aggregator buffers one contiguous run of one :class:`FrameStack`'s
    frames at a time, cut into buckets by the stack's
    :func:`placement_plan`.  A push from a different stack while frames are
    buffered raises ``ValueError`` (flush first), and a push that does not
    continue the buffered run raises ``RuntimeError``.
    """

    def __init__(self, config: Optional[DSFAConfig] = None) -> None:
        self.config = config or DSFAConfig()
        self.dispatched_batches = 0
        # The stack whose placement plan is loaded, and that plan's columns.
        self._stack: Optional[FrameStack] = None
        self._end: List[int] = []
        self._densities: List[List[float]] = []
        # The buffered run [starts[0], stop) is cut into buckets at
        # ``starts``; the open (last) bucket takes frames below ``limit``.
        self._starts: List[int] = []
        self._stop = 0
        self._limit = 0

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def buffer_occupancy(self) -> int:
        """Total frames currently buffered across all merge buckets."""
        return self._stop - self._starts[0] if self._starts else 0

    @property
    def num_buckets(self) -> int:
        """Number of (non-dispatched) merge buckets."""
        return len(self._starts)

    # ------------------------------------------------------------------
    # main entry points
    # ------------------------------------------------------------------
    def push_index(
        self, stack: FrameStack, index: int, hardware_available: bool = False
    ) -> Optional[SparseFrameBatch]:
        """Offer frame ``index`` of ``stack`` without materialising it.

        Returns the dispatched :class:`SparseFrameBatch` if this push
        caused a dispatch (buffer full or ``hardware_available``), else
        ``None``.  The frame opens a bucket when the buffer is empty or the
        open bucket's plan end refuses it, and joins the open bucket
        otherwise; the first push of a stack compiles or loads its plan.
        """
        starts = self._starts
        if starts:
            if stack is not self._stack:
                raise ValueError(
                    "DSFA buffers frames of one stack at a time; "
                    "flush before pushing frames of another stack"
                )
            if index != self._stop:
                raise RuntimeError(
                    f"DSFA buffers frames [{starts[0]}, {self._stop}); "
                    f"index {index} breaks contiguity"
                )
        elif stack is not self._stack:
            self._end, self._densities = placement_plan(stack, self.config)
            self._stack = stack
        if not starts or index >= self._limit:
            self._limit = self._end[index]
            starts.append(index)
        self._stop = index + 1
        if self._stop - starts[0] >= self.config.event_buffer_size or hardware_available:
            return self._dispatch()
        return None

    def flush(self) -> Optional[SparseFrameBatch]:
        """Force-dispatch all buffered frames (end of a sequence)."""
        if not self._starts:
            return None
        return self._dispatch()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _dispatch(self) -> SparseFrameBatch:
        # No merge runs here.  A merged frame has one entry per distinct key
        # of its bucket, so its density is the bucket's plan density, and
        # the batch merges every bucket in one grouped-reduce pass only if a
        # caller reads frame contents.  The buckets partition the buffered
        # run, so that merge reads one parent slice.
        starts = self._starts
        stops = starts[1:]
        stops.append(self._stop)
        densities = self._densities
        batch = SparseFrameBatch.from_merge(
            self._stack,
            list(zip(starts, stops)),
            [densities[a][b - a - 1] for a, b in zip(starts, stops)],
            average=self.config.merge_mode is MergeMode.AVERAGE,
        )
        self._starts = []
        self.dispatched_batches += 1
        return batch

    # ------------------------------------------------------------------
    def merge_statistics(self) -> dict:
        """Summary counters for the experiment harnesses."""
        return {
            "dispatched_batches": self.dispatched_batches,
            "buffered_frames": self.buffer_occupancy,
        }
