"""Event2Sparse Frame converter (E2SF) — paper Section 4.1.

E2SF converts the raw asynchronous event stream directly into a sparse
(COO) frame representation, skipping the dense intermediate event frame that
conventional pipelines build.  The steps follow the paper exactly:

1. the interval between two synchronized grayscale frames (``Tstart``,
   ``Tend``) is divided into ``nB`` event bins of duration
   ``biS = (Tend - Tstart) / nB`` (Equation 1);
2. each event is assigned to bin ``EB_k = floor((t_k - Tstart) / biS)``;
3. within each bin, positive and negative polarities are accumulated
   separately per pixel;
4. each accumulated bin is stored as row indices, column indices and the two
   polarity channels — a two-channel sparse frame in COO format.

:meth:`Event2SparseFrameConverter.convert_stack` is the one binning
implementation: it runs these steps for a whole recording in one pass, and
:meth:`~Event2SparseFrameConverter.convert` is its one-interval case.  The
converter also reports the cost of the direct path next to the
dense-then-encode path so the paper's overhead argument can be reproduced
quantitatively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..events.types import EventStream
from ..frames.encoding import ConversionCost, encode_cost, events_to_sparse_cost
from ..frames.sparse import SparseFrame, _grouped_reduce
from ..frames.stack import FrameStack

__all__ = ["E2SFReport", "Event2SparseFrameConverter"]


@dataclass
class E2SFReport:
    """Cost accounting for one conversion call.

    ``direct_cost`` is the events->sparse path E2SF takes; ``dense_path_cost``
    is what building a dense event frame first and then encoding it to COO
    would have cost (the overhead the paper avoids).
    """

    num_events: int
    num_bins: int
    total_active_sites: int
    direct_cost: ConversionCost
    dense_path_cost: ConversionCost

    @property
    def operation_saving(self) -> float:
        """Ratio of dense-path operations to direct-path operations."""
        if self.direct_cost.operations == 0:
            return float("inf") if self.dense_path_cost.operations else 1.0
        return self.dense_path_cost.operations / self.direct_cost.operations


class Event2SparseFrameConverter:
    """Convert raw event streams to per-bin two-channel sparse frames.

    Parameters
    ----------
    num_bins:
        Number of event bins ``nB`` per grayscale-frame interval; sets the
        temporal resolution of the representation.
    """

    def __init__(self, num_bins: int = 5) -> None:
        if num_bins < 1:
            raise ValueError("num_bins must be >= 1")
        self.num_bins = num_bins

    # ------------------------------------------------------------------
    def convert(
        self,
        stream: EventStream,
        t_start: float,
        t_end: float,
    ) -> List[SparseFrame]:
        """Convert the events in ``[t_start, t_end)`` into ``num_bins`` sparse frames.

        The one-interval case of :meth:`convert_stack`: the frames are
        zero-copy views into a two-timestamp stack.
        """
        return self.convert_stack(stream, (t_start, t_end)).frames()

    def convert_with_report(
        self, stream: EventStream, t_start: float, t_end: float
    ) -> Tuple[List[SparseFrame], E2SFReport]:
        """Convert and also report direct-path vs dense-path conversion cost."""
        frames = self.convert(stream, t_start, t_end)
        window = stream.slice_time(t_start, t_end)
        total_nnz = sum(f.num_active for f in frames)
        direct = events_to_sparse_cost(len(window), total_nnz)
        geometry = stream.geometry
        dense_path = ConversionCost(0, 0, 0)
        for f in frames:
            dense_path = dense_path + encode_cost(geometry.height, geometry.width, f.num_active)
        report = E2SFReport(
            num_events=len(window),
            num_bins=self.num_bins,
            total_active_sites=total_nnz,
            direct_cost=direct,
            dense_path_cost=dense_path,
        )
        return frames, report

    def convert_stack(
        self,
        stream: EventStream,
        frame_timestamps: Sequence[float],
    ) -> FrameStack:
        """Bin an entire recording into one columnar :class:`FrameStack`.

        Every event gets an ``(interval, bin, pixel)`` key, a single stable
        sort groups the whole recording, and segmented reductions
        accumulate the two polarity channels.  The resulting stack holds
        ``num_intervals * num_bins`` frames in interval-major order — empty
        bins included — with the same time bounds, canonical
        (ascending-pixel) site order and accumulated values as a loop that
        slices each interval and builds one frame per bin, bit for bit (the
        loop is the test suite's oracle).
        """
        timestamps = np.asarray(frame_timestamps, dtype=np.float64)
        if timestamps.ndim != 1 or timestamps.size < 2:
            raise ValueError("at least two grayscale frame timestamps are required")
        if np.any(np.diff(timestamps) <= 0):
            raise ValueError("frame timestamps must be strictly increasing")
        num_bins = self.num_bins
        num_intervals = timestamps.size - 1
        num_frames = num_intervals * num_bins
        geometry = stream.geometry
        h, w = geometry.height, geometry.width
        num_pixels = h * w

        # Per-frame time bounds, identical arithmetic to the loop path:
        # t_start + k * ((t_end - t_start) / num_bins) per interval.
        frame_idx = np.arange(num_frames, dtype=np.int64)
        interval_of_frame = frame_idx // num_bins
        bin_of_frame = frame_idx % num_bins
        interval_start = timestamps[interval_of_frame]
        bin_duration = (
            timestamps[interval_of_frame + 1] - interval_start
        ) / num_bins
        t_starts = interval_start + bin_of_frame * bin_duration
        t_ends = interval_start + (bin_of_frame + 1) * bin_duration

        # Events inside [timestamps[0], timestamps[-1]) — the union of the
        # per-interval slice_time windows.
        lo = int(np.searchsorted(stream.t, timestamps[0], side="left"))
        hi = int(np.searchsorted(stream.t, timestamps[-1], side="left"))
        t = stream.t[lo:hi]
        if t.size == 0:
            return FrameStack(
                np.zeros(0, dtype=np.int32),
                np.zeros(0, dtype=np.int32),
                np.zeros(0, dtype=np.float64),
                np.zeros(0, dtype=np.float64),
                np.zeros(num_frames + 1, dtype=np.int64),
                t_starts,
                t_ends,
                h,
                w,
            )
        x = stream.x[lo:hi]
        y = stream.y[lo:hi]
        p = stream.p[lo:hi]

        # (interval, bin, pixel) key per event.  An event exactly at a
        # grayscale timestamp opens the next interval (slice_time is
        # half-open), and the bin expression is elementwise-identical to
        # assign_event_bins' floor/clip.
        interval = np.searchsorted(timestamps, t, side="right") - 1
        t0 = timestamps[interval]
        bis = (timestamps[interval + 1] - t0) / num_bins
        bins = np.clip(
            np.floor((t - t0) / bis).astype(np.int64), 0, num_bins - 1
        )
        pixel = y.astype(np.int64) * w + x
        key = (interval * num_bins + bins) * num_pixels + pixel

        unique_key, pos, neg = _grouped_reduce(
            key,
            (p > 0).astype(np.float64),
            (p < 0).astype(np.float64),
        )
        unique_frame = unique_key // num_pixels
        unique_pixel = unique_key - unique_frame * num_pixels
        offsets = np.zeros(num_frames + 1, dtype=np.int64)
        np.cumsum(np.bincount(unique_frame, minlength=num_frames), out=offsets[1:])
        return FrameStack._view(
            (unique_pixel // w).astype(np.int32),
            (unique_pixel % w).astype(np.int32),
            pos,
            neg,
            offsets,
            t_starts,
            t_ends,
            h,
            w,
            flat=unique_pixel,
        )

    def input_occupancies(self, frames: Sequence[SparseFrame]) -> Tuple[float, ...]:
        """Per-bin input occupancies (spatial densities) of converted frames.

        The same quantity the runtime reads per dispatched batch via
        :meth:`repro.frames.sparse.SparseFrameBatch.frame_densities` to seed
        per-layer occupancy profiles; exposed here for analyses that work on
        raw converter output (e.g. the Figure 3 sparsity sweeps) before any
        batch exists.
        """
        return tuple(f.density for f in frames)

    def mean_occupancy(self, frames: Sequence[SparseFrame]) -> float:
        """Average fraction of active pixels across sparse frames (paper Fig. 3)."""
        occupancies = self.input_occupancies(frames)
        if not occupancies:
            return 0.0
        return float(np.mean(occupancies))
