"""Execution timelines: kernel event traces and schedule Gantt charts.

Two tracing surfaces live here:

* :class:`KernelTrace` records every event the simulation kernel processes
  (frame arrivals, dispatches, completions, evictions), so any kernel
  client — the single-stream pipeline or the multi-stream traffic
  simulator — gets a per-stream timeline for free.
* The Gantt helpers (:func:`timeline_by_device`, :func:`utilisation`,
  :func:`format_gantt`) render static list-scheduler results, convenient
  for inspecting why one mapping beats another without a plotting stack.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Optional

from ..core.nmp.scheduler import ScheduledNode, ScheduleResult

__all__ = [
    "TraceEntry",
    "KernelTrace",
    "timeline_by_device",
    "utilisation",
    "format_gantt",
]


@dataclass(frozen=True)
class TraceEntry:
    """One processed kernel event.

    ``profile`` is the resolved per-layer occupancy profile of an
    inference completion (``None`` for every other event kind and for
    server wake-ups) — kept as the event carried it, so calibration can
    re-fit firing fractions from a finished trace.
    """

    time: float
    kind: str
    stream: str
    detail: str = ""
    profile: Optional[tuple] = None


class KernelTrace:
    """Chronological record of the events a simulation kernel processed.

    Pass an instance as the kernel's ``trace`` (or to
    ``EvEdgePipeline.run`` / ``MultiStreamSimulator.run``); after the run it
    holds one :class:`TraceEntry` per processed event.

    Parameters
    ----------
    max_events:
        Ring-buffer bound on retained entries: the trace keeps the **last**
        ``max_events`` processed events and counts every older entry pushed
        out (or never retained) in ``entries_dropped`` — a long-horizon run
        always ends with its newest activity inspectable under a fixed
        memory cap.  ``None`` (the default) retains everything.
    record_details:
        Format each event's payload summary (the default).  ``False`` skips
        the per-event string formatting — the expensive part of tracing a
        large fleet — and stores empty details; timelines, per-stream
        grouping and event counts still work.
    """

    def __init__(
        self, max_events: Optional[int] = None, record_details: bool = True
    ) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError("max_events must be >= 1 or None")
        # A bounded trace is a deque ring (appends past the cap evict the
        # oldest entry in O(1)); an unbounded trace stays a plain list.
        self.entries = [] if max_events is None else deque(maxlen=max_events)
        self.max_events = max_events
        self.record_details = record_details
        self.entries_dropped = 0

    def record(self, event) -> None:
        """Append one kernel event (called by the kernel itself).

        A full ring buffer evicts its oldest entry to make room and bumps
        ``entries_dropped`` — the newest ``max_events`` events are always
        the ones retained.
        """
        if self.max_events is not None and len(self.entries) == self.max_events:
            self.entries_dropped += 1
        profile = getattr(event, "profile", None)
        self.entries.append(
            TraceEntry(
                time=event.time,
                kind=type(event).__name__,
                stream=event.stream,
                detail=event.trace_detail() if self.record_details else "",
                profile=None if profile is None else tuple(profile),
            )
        )

    def __len__(self) -> int:
        return len(self.entries)

    def by_stream(self) -> Dict[str, List[TraceEntry]]:
        """Group entries by the stream that produced them."""
        grouped: Dict[str, List[TraceEntry]] = {}
        for entry in self.entries:
            grouped.setdefault(entry.stream, []).append(entry)
        return grouped

    def counts(self) -> Dict[str, int]:
        """Number of processed events per event kind."""
        out: Dict[str, int] = {}
        for entry in self.entries:
            out[entry.kind] = out.get(entry.kind, 0) + 1
        return out

    def profiles(self) -> List[tuple]:
        """Resolved per-dispatch occupancy profiles, in completion order.

        One tuple per inference completion that carried a profile (server
        wake-ups and non-inference events are skipped) — the input
        :func:`repro.nn.calibration.fit_firing_fractions` consumes.
        """
        return [e.profile for e in self.entries if e.profile is not None]

    @staticmethod
    def _format_profile(profile: tuple) -> str:
        """Compact one-line rendering of a per-dispatch profile.

        Flat profiles show the single measured occupancy; propagated
        profiles show the head of the cascade and the converged deep
        value — the point where mixed-density dispatches start sharing
        deep-layer cache cells is visible as the entries flattening out.
        """
        if not profile:
            return ""
        if all(e is None for e in profile[1:]):
            first = profile[0]
            head = "none" if first is None else f"{first:.4f}"
            return f"occ[{head} flat x{len(profile)}]"
        shown = [f"{e:.4f}" if e is not None else "none" for e in profile[:3]]
        if len(profile) > 4:
            shown.append("..")
        if len(profile) > 3:
            last = profile[-1]
            shown.append(f"{last:.4f}" if last is not None else "none")
        return f"occ[{'>'.join(shown)} x{len(profile)}]"

    def format_log(self, max_rows: int = 40) -> str:
        """Render the first ``max_rows`` retained entries as an event log.

        Inference completions that carried a resolved occupancy profile
        get a compact per-dispatch profile column after the detail text.
        For a saturated ring buffer the retained window is the run's tail,
        so the log shows the oldest *retained* events and reports both the
        ring-evicted and beyond-``max_rows`` counts as hidden.
        """
        if not self.entries:
            return "(empty trace)"
        lines = []
        for entry in islice(self.entries, max_rows):
            detail = entry.detail
            if entry.profile is not None:
                column = self._format_profile(entry.profile)
                detail = f"{detail}  {column}" if detail else column
            lines.append(
                f"{entry.time * 1e3:10.3f} ms  {entry.kind:<14s} "
                f"{entry.stream:<24s} {detail}"
            )
        hidden = max(len(self.entries) - max_rows, 0) + self.entries_dropped
        if hidden > 0:
            lines.append(f"... {hidden} more events")
        return "\n".join(lines)


def timeline_by_device(result: ScheduleResult) -> Dict[str, List[ScheduledNode]]:
    """Group the schedule's timeline entries by execution queue."""
    grouped: Dict[str, List[ScheduledNode]] = {}
    for entry in sorted(result.timeline, key=lambda e: e.start):
        grouped.setdefault(entry.queue, []).append(entry)
    return grouped


def utilisation(result: ScheduleResult) -> Dict[str, float]:
    """Fraction of the makespan each queue spends busy."""
    makespan = result.makespan
    if makespan <= 0:
        return {}
    return {
        queue: busy / makespan for queue, busy in result.device_busy_time().items()
    }


def format_gantt(result: ScheduleResult, width: int = 60, max_rows: int = 40) -> str:
    """Render a simple fixed-width textual Gantt chart of the schedule."""
    makespan = result.makespan
    if makespan <= 0:
        return "(empty schedule)"
    lines = []
    for queue, entries in timeline_by_device(result).items():
        lines.append(f"{queue}:")
        for entry in entries[:max_rows]:
            start = int(width * entry.start / makespan)
            length = max(int(width * entry.duration / makespan), 1)
            bar = " " * start + "#" * length
            lines.append(f"  {bar:<{width + 2}} {entry.node} ({entry.duration * 1e3:.2f} ms)")
        if len(entries) > max_rows:
            lines.append(f"  ... {len(entries) - max_rows} more entries")
    return "\n".join(lines)
