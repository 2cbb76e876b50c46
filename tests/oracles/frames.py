"""Per-frame reference implementations of the frame data plane and DSFA.

The columnar data plane (``FrameStack`` renders, ``merge_ranges`` merges,
stack-range batches, index-range DSFA buckets) replaced per-frame code
paths that were each proven bit-identical before they left ``src/``.  They
live on here as the equivalence oracles the frame, DSFA and pipeline tests
compare against:

* :func:`add_reference` — the ``np.unique`` + ``np.bincount`` cAdd merge;
* :func:`to_dense_reference` / :func:`batch_to_dense_reference` — the
  ``np.add.at`` frame decode and the per-frame ``np.stack`` batch decode;
* :func:`convert_sequence` — the per-interval × per-bin E2SF loop;
* :class:`ReferenceMergeBucket` / :class:`ReferenceAggregator` — the
  per-frame DSFA of paper Figure 6: list-of-frames buckets whose density
  probes re-merge the whole list, the full bucket scan per push and one
  merge per bucket at dispatch.

:func:`frame_batch` packs loose frames into a
:class:`~repro.frames.sparse.SparseFrameBatch` (a batch is always a
``FrameStack`` range).  Like the runtime oracles, this is deliberately
unoptimized verification code.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.dsfa import BucketStatus, DSFAConfig, MergeMode
from repro.core.e2sf import Event2SparseFrameConverter
from repro.events.types import EventStream
from repro.frames.sparse import SparseFrame, SparseFrameBatch
from repro.frames.stack import FrameStack

__all__ = [
    "add_reference",
    "to_dense_reference",
    "batch_to_dense_reference",
    "convert_sequence",
    "frame_batch",
    "ReferenceMergeBucket",
    "ReferenceAggregator",
]


def add_reference(frames: Sequence[SparseFrame]) -> SparseFrame:
    """The pre-columnar ``np.unique``-based cAdd merge of ``frames``."""
    frames = list(frames)
    if not frames:
        raise ValueError("cannot add an empty list of frames")
    h, w = frames[0].height, frames[0].width
    for f in frames[1:]:
        if (f.height, f.width) != (h, w):
            raise ValueError("all frames must share the same dimensions")
    rows = np.concatenate([f.rows.astype(np.int64) for f in frames])
    cols = np.concatenate([f.cols.astype(np.int64) for f in frames])
    pos = np.concatenate([f.pos for f in frames])
    neg = np.concatenate([f.neg for f in frames])
    flat = rows * w + cols
    unique_flat, inverse = np.unique(flat, return_inverse=True)
    pos_sum = np.bincount(inverse, weights=pos, minlength=unique_flat.size)
    neg_sum = np.bincount(inverse, weights=neg, minlength=unique_flat.size)
    return SparseFrame(
        (unique_flat // w).astype(np.int32),
        (unique_flat % w).astype(np.int32),
        pos_sum,
        neg_sum,
        h,
        w,
        min(f.t_start for f in frames),
        max(f.t_end for f in frames),
    )


def to_dense_reference(frame: SparseFrame) -> np.ndarray:
    """The pre-columnar ``np.add.at`` decode of one frame."""
    dense = np.zeros((2, frame.height, frame.width), dtype=np.float64)
    np.add.at(dense[0], (frame.rows, frame.cols), frame.pos)
    np.add.at(dense[1], (frame.rows, frame.cols), frame.neg)
    return dense


def batch_to_dense_reference(batch: SparseFrameBatch) -> np.ndarray:
    """The per-frame ``np.stack`` decode of a batch."""
    frames = batch.frames
    if not frames:
        return np.zeros((0, 2, 0, 0))
    return np.stack([to_dense_reference(f) for f in frames], axis=0)


def convert_sequence(
    converter: Event2SparseFrameConverter,
    stream: EventStream,
    frame_timestamps: Sequence[float],
) -> List[List[SparseFrame]]:
    """The per-interval × per-bin render loop behind ``convert_stack``.

    One :meth:`~repro.core.e2sf.Event2SparseFrameConverter.convert` call per
    consecutive grayscale interval, one list of ``num_bins`` frames each.
    """
    timestamps = list(frame_timestamps)
    if len(timestamps) < 2:
        raise ValueError("at least two grayscale frame timestamps are required")
    return [
        converter.convert(stream, timestamps[i], timestamps[i + 1])
        for i in range(len(timestamps) - 1)
    ]


def frame_batch(frames: Sequence[SparseFrame]) -> SparseFrameBatch:
    """A batch over ``frames``, packed into a fresh stack."""
    return SparseFrameBatch.from_stack(FrameStack.from_frames(frames))


class ReferenceMergeBucket:
    """A merge bucket holding a list of frame objects.

    Density probes re-merge the whole list through :func:`add_reference`
    per call (no incremental cache, no grouped-reduce kernel), and
    :meth:`merge` combines the list the same way, scaling for cAverage.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("bucket capacity must be >= 1")
        self.capacity = capacity
        self.frames: List[SparseFrame] = []
        self.status = BucketStatus.AVAILABLE

    @property
    def occupancy(self) -> int:
        return len(self.frames)

    @property
    def is_full(self) -> bool:
        return self.status is BucketStatus.FULL or self.occupancy >= self.capacity

    def accepts(
        self, frame: SparseFrame, max_delay: float, max_density_change: float
    ) -> bool:
        """Capacity, time-delay (``MtTh``) and density (``MdTh``) conditions."""
        if self.is_full:
            return False
        if not self.frames:
            return True
        if frame.t_start - min(f.t_start for f in self.frames) > max_delay:
            return False
        merged = add_reference(self.frames)
        return merged.density_change(frame) <= max_density_change

    def add(self, frame: SparseFrame) -> None:
        if self.is_full:
            raise RuntimeError("cannot add a frame to a FULL merge bucket")
        self.frames.append(frame)
        if self.occupancy >= self.capacity:
            self.status = BucketStatus.FULL

    def merge(self, mode: MergeMode) -> SparseFrame:
        if not self.frames:
            raise RuntimeError("cannot merge an empty bucket")
        merged = add_reference(self.frames)
        if mode is MergeMode.AVERAGE:
            merged = merged.scale(1.0 / len(self.frames))
        return merged


class ReferenceAggregator:
    """The per-frame DSFA: frame objects in, per-bucket merges out.

    :meth:`push` places a frame with the paper's full bucket scan — every
    bucket is probed in order, a bucket whose condition fails is marked
    ``FULL`` and the frame opens a new bucket if none accepts it — and a
    dispatch merges bucket by bucket through :func:`add_reference`.  The
    production :class:`~repro.core.dsfa.DynamicSparseFrameAggregator`
    must match it push for push: dispatch decisions, buffer occupancy and
    merged values.
    """

    def __init__(self, config: Optional[DSFAConfig] = None) -> None:
        self.config = config or DSFAConfig()
        self.buckets: List[ReferenceMergeBucket] = []
        self.dispatched_batches = 0

    @property
    def buffer_occupancy(self) -> int:
        return sum(bucket.occupancy for bucket in self.buckets)

    def push(
        self, frame: SparseFrame, hardware_available: bool = False
    ) -> Optional[SparseFrameBatch]:
        cfg = self.config
        if cfg.merge_mode is MergeMode.BATCH:
            bucket = ReferenceMergeBucket(1)
            bucket.add(frame)
            self.buckets.append(bucket)
        else:
            for bucket in self.buckets:
                if bucket.accepts(frame, cfg.max_time_delay, cfg.max_density_change):
                    bucket.add(frame)
                    break
                bucket.status = BucketStatus.FULL
            else:
                bucket = ReferenceMergeBucket(cfg.merge_bucket_size)
                bucket.add(frame)
                self.buckets.append(bucket)
        if self.buffer_occupancy >= cfg.event_buffer_size or (
            hardware_available and self.buckets
        ):
            return self._dispatch()
        return None

    def flush(self) -> Optional[SparseFrameBatch]:
        if not self.buckets:
            return None
        return self._dispatch()

    def _dispatch(self) -> SparseFrameBatch:
        merged = [bucket.merge(self.config.merge_mode) for bucket in self.buckets]
        self.buckets = []
        self.dispatched_batches += 1
        return frame_batch(merged)

    def merge_statistics(self) -> dict:
        return {
            "dispatched_batches": self.dispatched_batches,
            "buffered_frames": self.buffer_occupancy,
        }
