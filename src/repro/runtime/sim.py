"""Event-driven simulation kernel shared by every Ev-Edge execution client.

The seed had two disjoint simulation paths: :class:`~repro.core.pipeline.
EvEdgePipeline` hand-rolled an inline arrival loop for single-task streaming
and the multi-task path went through a static list scheduler.  This module
extracts the common substrate both (and any future traffic scenario) build
on:

* **Typed events** — :class:`FrameReady`, :class:`DispatchBatch`,
  :class:`InferenceDone`, :class:`QueueEvict`, :class:`StreamEnd` and
  :class:`RemapTriggered` — each carrying its simulation time and the name
  of the traffic stream it belongs to.  Events are ``__slots__`` value
  objects: a fleet-scale run allocates hundreds of thousands of them, so
  they carry no per-instance ``__dict__``.
* :class:`SimulationKernel` — a priority-queue event loop.  Events at the
  same timestamp are ordered by a per-type priority (completions free their
  devices before new frames are examined, dispatches run before later
  arrivals) and FIFO within a type, which is exactly the ordering the seed's
  inline loop produced implicitly.  Each event is scheduled together with
  the callable that handles it.  Only work that waits during a run is
  heaped: frame arrivals, whose order is fixed before the run, are
  registered as columns, and the first run merges them once with every
  event scheduled before it (each stream's ``StreamEnd``, every
  ``RemapTriggered``); an event that happens *now* and would be popped next
  anyway is processed in place; and the ``InferenceDone`` events one
  execution ends with share one heap entry
  (:meth:`~SimulationKernel.schedule_completions`).  Untraced, an eviction
  (:meth:`~SimulationKernel.evict`), a dispatch
  (:meth:`~SimulationKernel.dispatch`) and each completion are only
  counted; they are built as events for an attached trace.  The kernel also
  owns per-resource busy tracking (the ``busy`` map, ``busy_until`` /
  ``acquire``) so clients share one notion of device occupancy.
* **Compiled, layered cost stack** — :class:`LayerCostTable` (defined in
  :mod:`repro.hw.profiler`, where the Network Mapper reads it too, and
  re-exported here) interns each ``(layer, pe, precision, sparse)``
  execution to an integer *cell* and memoizes costs per ``(cell,
  occupancy-bucket, batch)``; a miss evaluates the cell's compiled roofline
  once (energy comes from its total and DRAM bytes).
  :class:`NetworkCostModel` compiles a network's layer→(PE, precision)
  assignment into cells plus the bytes each cross-PE boundary moves, and
  composes cell costs into memoized whole-network costs.  Costs are driven
  by an :class:`~repro.nn.occupancy.OccupancyProfile` — one occupancy per
  layer — and each input bucket's profile row is built once.  In
  ``cost_mode="flat"`` (the default) the row carries the measured input
  occupancy in its first slot and defers to each deeper layer's static
  modelled sparsity, which is bit-identical to the pre-profile scalar
  path.  In ``cost_mode="profile"`` the input density is *propagated*
  layer by layer (support dilation + activation sparsification) and
  bucketed per layer **after** propagation, so mixed-density traffic whose
  deep entries converge (as they do along serial segments) shares
  deep-layer cache cells instead of thrashing the memo per input bucket; a
  merged dispatch's profile is the column-wise mean of its members' rows.
  The object-walking stack this replaced is the bit-for-bit reference in
  ``tests/oracles``.

Single-stream clients (``EvEdgePipeline.run``) and the multi-stream traffic
simulator (:mod:`repro.runtime.streams`) are both thin protocol drivers on
top of this kernel.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_right
from operator import itemgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..core.config import EvEdgeConfig
from ..core.nmp.candidate import MappingCandidate
from ..frames.sparse import SparseFrameBatch
from ..hw.pe import Platform
from ..hw.profiler import LayerCost, LayerCostTable
from ..nn.graph import LayerGraph
from ..nn.occupancy import OccupancyProfile, propagate_occupancy_graph
from ..nn.quantization import Precision

__all__ = [
    "SimEvent",
    "FrameReady",
    "DispatchBatch",
    "InferenceDone",
    "QueueEvict",
    "StreamEnd",
    "RemapTriggered",
    "SimulationKernel",
    "LayerCost",
    "LayerCostTable",
    "NetworkCostModel",
    "OccupancyProfile",
    "COST_MODES",
    "InferenceRecord",
    "PipelineReport",
]


# ----------------------------------------------------------------------
# reports (shared by the single-stream pipeline and the traffic simulator)
# ----------------------------------------------------------------------
class InferenceRecord(NamedTuple):
    """One simulated inference: which frames it covered and its timing."""

    dispatch_time: float
    start_time: float
    end_time: float
    num_frames: int
    occupancy: float
    energy: float

    @property
    def latency(self) -> float:
        """Completion time minus the time the newest covered frame was ready."""
        return self.end_time - self.dispatch_time


class PipelineReport:
    """Aggregate statistics of one pipeline run over a sequence.

    Aggregates (latency/energy/occupancy sums, completion time) are
    maintained as *streaming accumulators* updated by :meth:`add_records`,
    so reading a property never materializes an array over the full record
    list — a fleet-scale run reads these per stream without touching its
    (possibly huge) record history.  Records must be accounted through
    :meth:`add_records`; ``records`` is only the retained history.

    ``record_limit`` bounds that history to the *most recent* N records
    (oldest entries are discarded as new ones arrive) while the streaming
    aggregates keep accounting every record: ``None`` (the default) keeps
    every record, which traces and the per-record regression tests rely on;
    ``0`` keeps none — the memory-lean mode the large-fleet benchmarks run
    in; ``N`` keeps an inspectable tail for long-horizon fleets.
    """

    __slots__ = (
        "records",
        "frames_generated",
        "frames_merged",
        "frames_dropped",
        "record_limit",
        "cost_mode",
        "_num_records",
        "_latency_sum",
        "_energy_sum",
        "_occupancy_sum",
        "_max_end_time",
    )

    def __init__(self, record_limit: Optional[int] = None) -> None:
        if record_limit is not None and record_limit < 0:
            raise ValueError("record_limit must be >= 0 or None")
        self.records: List[InferenceRecord] = []
        self.frames_generated = 0
        self.frames_merged = 0
        self.frames_dropped = 0
        self.record_limit = record_limit
        # Cost-stack semantics the run was costed under ("flat"/"profile");
        # stamped by the stream client, None until a cost model is attached.
        self.cost_mode: Optional[str] = None
        self._num_records = 0
        self._latency_sum = 0.0
        self._energy_sum = 0.0
        self._occupancy_sum = 0.0
        self._max_end_time = 0.0

    def add_records(self, records) -> None:
        """Account ``records`` into the streaming aggregates (and the list)."""
        for record in records:
            self._num_records += 1
            self._latency_sum += record.latency
            self._energy_sum += record.energy
            self._occupancy_sum += record.occupancy
            if record.end_time > self._max_end_time:
                self._max_end_time = record.end_time
        limit = self.record_limit
        if limit != 0:
            self.records.extend(records)
            if limit is not None and len(self.records) > limit:
                del self.records[: len(self.records) - limit]

    @property
    def num_inferences(self) -> int:
        """Number of network invocations performed."""
        return self._num_records

    @property
    def total_time(self) -> float:
        """Wall-clock completion time of the last inference."""
        return self._max_end_time

    @property
    def mean_latency(self) -> float:
        """Mean per-inference latency (dispatch to completion), seconds."""
        if self._num_records == 0:
            return 0.0
        return self._latency_sum / self._num_records

    @property
    def total_energy(self) -> float:
        """Total energy in joules."""
        return self._energy_sum

    @property
    def mean_occupancy(self) -> float:
        """Mean input occupancy across inferences."""
        if self._num_records == 0:
            return 0.0
        return self._occupancy_sum / self._num_records


# ----------------------------------------------------------------------
# typed events
# ----------------------------------------------------------------------
class SimEvent:
    """Base class of all kernel events.

    ``PRIORITY`` orders events scheduled at the same timestamp: completions
    (which free devices) are processed first, then queue evictions, then
    batch dispatches, then new frame arrivals, and finally end-of-stream
    flushes.  Within one priority class events are FIFO.

    Events are plain ``__slots__`` classes rather than dataclasses: a
    fleet-scale run creates one object per frame arrival, dispatch and
    completion, and the per-instance ``__dict__`` was a measurable share of
    the kernel's allocation traffic.
    """

    __slots__ = ("time", "stream")

    PRIORITY = 5

    def __init__(self, time: float, stream: str = "") -> None:
        self.time = time
        self.stream = stream

    def __repr__(self) -> str:
        return f"{type(self).__name__}(time={self.time!r}, stream={self.stream!r})"

    def trace_detail(self) -> str:
        """Short human-readable payload summary for the kernel trace."""
        return ""


class InferenceDone(SimEvent):
    """An inference finished; carries the per-stream records it produced.

    ``profile`` is the resolved per-layer occupancy profile the dispatch
    was costed at (``None`` for bookkeeping wake-ups that carry no
    records) — the raw material of trace-driven firing-fraction
    calibration (:mod:`repro.nn.calibration`).
    """

    __slots__ = ("records", "profile")

    PRIORITY = 0

    def __init__(
        self,
        time: float,
        stream: str = "",
        records: Tuple[InferenceRecord, ...] = (),
        profile: Optional["OccupancyProfile"] = None,
    ) -> None:
        super().__init__(time, stream)
        self.records = records
        self.profile = profile

    def trace_detail(self) -> str:
        frames = sum(r.num_frames for r in self.records)
        return f"records={len(self.records)} frames={frames}"


class QueueEvict(SimEvent):
    """Frames were evicted from a bounded queue (backlog or staleness).

    Evictions reach the kernel through :meth:`SimulationKernel.evict`,
    which counts each one and builds this object only to hand it to an
    attached trace.
    """

    __slots__ = ("num_frames", "reason")

    PRIORITY = 1

    def __init__(
        self,
        time: float,
        stream: str = "",
        num_frames: int = 1,
        reason: str = "backlog",
    ) -> None:
        super().__init__(time, stream)
        self.num_frames = num_frames
        self.reason = reason

    def trace_detail(self) -> str:
        return f"frames={self.num_frames} reason={self.reason}"


class DispatchBatch(SimEvent):
    """A merged batch was handed to the inference queue of its stream."""

    __slots__ = ("batch",)

    PRIORITY = 2

    def __init__(
        self,
        time: float,
        stream: str = "",
        batch: Optional[SparseFrameBatch] = None,
    ) -> None:
        super().__init__(time, stream)
        self.batch = batch

    def trace_detail(self) -> str:
        return f"frames={len(self.batch) if self.batch is not None else 0}"


class FrameReady(SimEvent):
    """A sparse frame became available on a traffic stream.

    Carries a ``(stack, index)`` reference into the stream's rendered
    :class:`~repro.frames.stack.FrameStack`.  Stream arrivals reach the
    kernel as columns (:meth:`SimulationKernel.add_arrivals`), so the
    kernel builds this object only to hand it to an attached trace.
    """

    __slots__ = ("stack", "index")

    PRIORITY = 3

    def __init__(
        self,
        time: float,
        stream: str = "",
        stack=None,
        index: int = -1,
    ) -> None:
        super().__init__(time, stream)
        self.stack = stack
        self.index = index

    def trace_detail(self) -> str:
        if self.stack is None:
            return ""
        return f"density={self.stack.frame_density(self.index):.4f}"


class StreamEnd(SimEvent):
    """A traffic stream produced its last frame (triggers a final flush)."""

    __slots__ = ()

    PRIORITY = 4


class RemapTriggered(SimEvent):
    """The traffic mix changed (a stream joined or left); remapping may run.

    Scheduled by the multi-stream simulator at every stream join/leave point
    when a remap policy is active.  Processed after completions (so freed
    devices are visible) but before same-time dispatches and frame arrivals,
    so a join's first frame already executes under the adapted mapping.
    """

    __slots__ = ("reason",)

    PRIORITY = 1

    def __init__(self, time: float, stream: str = "", reason: str = "join") -> None:
        super().__init__(time, stream)
        self.reason = reason  # "join" or "leave"

    def trace_detail(self) -> str:
        return f"reason={self.reason}"


# ----------------------------------------------------------------------
# kernel
# ----------------------------------------------------------------------
# Pre-run events share the merged column with the arrivals.  An arrival's
# code is ``(column << 32) | index``, which is never negative; pre-run event
# ``k`` (in ``(priority, seq)`` order) gets the code ``k - _PRERUN``.
_PRERUN = 1 << 62


class SimulationKernel:
    """Priority-queue event loop with per-resource busy tracking.

    Events are processed in ``(time, priority, seq)`` order, ``seq`` being
    the order in which the kernel learnt of them.  Only work that waits
    while a run is under way is heaped:

    * :meth:`schedule` queues an event together with its handler, which
      :meth:`run` calls when it reaches the event.
      :meth:`schedule_completions` queues the ``InferenceDone`` events that
      end one execution as one entry.  During a run both heap their entry;
      before the first run it waits for the merge below.
    * :meth:`add_arrivals` registers one stream's ``FrameReady`` arrivals
      as a column of times and a handler called as ``handler(index,
      time)``.  The first :meth:`run` merges every column and every entry
      queued before it into one column, once: a stable sort by time over a
      concatenation in ``(priority, seq)`` order.  A column takes its block
      of sequence numbers when it is registered, so the merged order is
      exactly that of heaping every arrival and event when the kernel
      learnt of it.  The run loop takes the column's next entry unless the
      heap's top entry comes first.
    * :meth:`deliver` processes an event that happens now and that no
      heaped event precedes, which is what popping it next would do.

    An event without a handler is still counted in ``events_processed``
    and traced, but calls nothing.  Evictions (:meth:`evict`), dispatches
    (:meth:`dispatch`) and the completions of a group are counted where
    they are processed, and each is built as an event only to hand it to
    an attached trace, as an arrival's :class:`FrameReady` is.

    ``busy`` maps each resource to the time it frees up.  Clients read it
    (one ``busy.get(pe, 0.0)`` is a single PE's frontier) but only
    :meth:`acquire` writes it.

    Parameters
    ----------
    trace:
        Optional event sink (e.g. :class:`repro.runtime.tracer.KernelTrace`);
        every processed event is passed to ``trace.record(event)``.
    """

    def __init__(self, trace: Optional[object] = None) -> None:
        # Entries are (time, priority, seq, event, handler); a completion
        # group's entry has no event and its completions in the last slot.
        self._heap: List[tuple] = []
        # Plain int rather than itertools.count: an arrival column takes a
        # whole block of sequence numbers at once.
        self._seq = 0
        self._heap_high_water = 0
        self.busy: Dict[str, float] = {}
        self.now = 0.0
        self.events_processed = 0
        self.trace = trace
        # One (handler, stream, stack, first seq) per registered column.
        # The column times wait in _unmerged and the entries queued before
        # the first run in _prerun until the first run() merges them into
        # _merged_times plus one code per entry.
        self._columns: List[Tuple[Callable[[int, float], None], str, object, int]] = []
        self._unmerged: List[np.ndarray] = []
        self._prerun: List[Optional[tuple]] = []
        self._merged_times: Optional[array] = None
        self._merged_codes: Optional[array] = None
        self._next_merged = 0

    # -- scheduling ----------------------------------------------------
    def schedule(
        self,
        event: SimEvent,
        handler: Optional[Callable[[SimEvent], None]] = None,
    ) -> None:
        """Queue ``event``; scheduling into the past is a client bug.

        ``handler`` is called with the event when it is processed
        (``None``: the event is only counted and traced).
        """
        if event.time < self.now - 1e-12:
            raise ValueError(
                f"cannot schedule {type(event).__name__} at t={event.time} "
                f"before kernel time t={self.now}"
            )
        self._enqueue(event.time, event.PRIORITY, event, handler)

    def schedule_completions(
        self,
        time: float,
        completions: List[Tuple[str, tuple, Optional[OccupancyProfile], Callable]],
    ) -> None:
        """Queue the ``InferenceDone`` events that end one execution.

        ``completions`` holds one ``(stream, records, profile, handler)``
        per event, in processing order, and each handler is called as
        ``handler(time, records)``.  Queued one by one, the events would
        take consecutive sequence numbers at one time and priority, so no
        other event could come between them: they share one entry, and the
        run processes them one after another.  Each is counted, and it is
        built as an :class:`InferenceDone` only to hand it to an attached
        trace.
        """
        if time < self.now - 1e-12:
            raise ValueError(
                f"cannot schedule InferenceDone at t={time} "
                f"before kernel time t={self.now}"
            )
        self._enqueue(time, InferenceDone.PRIORITY, None, completions)

    def _enqueue(self, time: float, priority: int, event, handler) -> None:
        """Give an entry the next sequence number and heap it, or keep it
        for the merge before the first run."""
        seq = self._seq
        self._seq = seq + 1
        entry = (time, priority, seq, event, handler)
        if self._merged_times is None:
            self._prerun.append(entry)
            return
        heap = self._heap
        heapq.heappush(heap, entry)
        if len(heap) > self._heap_high_water:
            self._heap_high_water = len(heap)

    def deliver(
        self,
        event: SimEvent,
        handler: Optional[Callable[[SimEvent], None]] = None,
    ) -> None:
        """Process ``event`` now, exactly as popping it next would.

        For an event that a running handler creates at the current time
        and that no heaped event precedes: every same-time event of a lower
        priority was processed before that handler ran.  The event stamps
        ``now`` (an end-of-stream flush may sit a few ulps before its
        ``StreamEnd``), is counted and traced, and ``handler`` is called.
        Delivering at another time is a client bug.
        """
        time = event.time
        if time < self.now - 1e-12 or time > self.now + 1e-12:
            raise ValueError(
                f"cannot deliver {type(event).__name__} at t={time} "
                f"at kernel time t={self.now}"
            )
        self.now = time
        self.events_processed += 1
        if self.trace is not None:
            self.trace.record(event)
        if handler is not None:
            handler(event)

    def evict(self, time: float, stream: str, num_frames: int, reason: str) -> None:
        """Process the eviction of ``num_frames`` frames of ``stream`` now.

        A :class:`QueueEvict` has no handler, and an eviction happens at
        the arrival or dispatch being handled, so ``now`` already equals
        ``time``: counting it is all that delivering it would do.  With a
        trace attached the event is built and delivered, so the trace
        records it in place.
        """
        if self.trace is None:
            self.events_processed += 1
        else:
            self.deliver(QueueEvict(time, stream, num_frames, reason))

    def dispatch(
        self,
        time: float,
        stream: str,
        batch: SparseFrameBatch,
        handler: Callable[[SparseFrameBatch, float], None],
    ) -> None:
        """Process the dispatch of ``batch`` by ``stream`` now, which calls
        ``handler(batch, time)``.

        A dispatch happens at the arrival or flush being handled, so it is
        an event :meth:`deliver` would process.  Untraced it is counted and
        stamps ``now``, and the handler is called.  With a trace attached a
        :class:`DispatchBatch` is built and delivered first.
        """
        if self.trace is None:
            self.now = time
            self.events_processed += 1
        else:
            self.deliver(DispatchBatch(time, stream, batch))
        handler(batch, time)

    def add_arrivals(
        self,
        times: Sequence[float],
        handler: Callable[[int, float], None],
        stream: str = "",
        stack=None,
    ) -> None:
        """Register one stream's ``FrameReady`` arrivals as a column.

        Arrival ``i`` at ``times[i]`` calls ``handler(i, times[i])``.
        ``stream`` and ``stack`` are only read to build the ``FrameReady``
        an attached trace records.  Columns must be registered before the
        first :meth:`run`, which merges them.
        """
        if self._merged_times is not None:
            raise RuntimeError("arrivals must be registered before the first run()")
        times = np.asarray(times, dtype=np.float64)
        self._columns.append((handler, stream, stack, self._seq))
        self._unmerged.append(times)
        self._seq += len(times)

    def _merge(self) -> None:
        """Merge the columns and the pre-run entries into one column.

        The pieces are concatenated in ``(priority, seq)`` order, so a
        stable sort by time yields the full ``(time, priority, seq)``
        order.  Column ``c`` is one piece, keyed by the ``FrameReady``
        priority and its first seq.  The pre-run entries are sorted by
        ``(priority, seq)``, and each run of them between two columns is
        one piece.  Position ``g`` of a piece that starts at ``g0`` gets
        the code ``offset + g``: ``offset`` is ``(c << 32) - g0`` for
        column ``c``, and ``k0 - _PRERUN - g0`` for pre-run entries from
        ``k0`` on.  Times and codes are gathered straight into the typed
        arrays the run loop reads.
        """
        unmerged = self._unmerged
        prerun = sorted(self._prerun, key=itemgetter(1, 2))
        pieces: List[np.ndarray] = []
        offsets: List[int] = []
        start = k = 0
        for c in range(len(unmerged) + 1):
            # The pre-run entries before column c (after the last column:
            # all that are left) form one piece.
            j = k
            if c < len(unmerged):
                first = (FrameReady.PRIORITY, self._columns[c][3])
                while j < len(prerun) and prerun[j][1:3] < first:
                    j += 1
            else:
                j = len(prerun)
            if j > k:
                times = [entry[0] for entry in prerun[k:j]]
                pieces.append(np.array(times, dtype=np.float64))
                offsets.append(k - _PRERUN - start)
                start += j - k
                k = j
            if c < len(unmerged):
                pieces.append(unmerged[c])
                offsets.append((c << 32) - start)
                start += len(unmerged[c])
        lengths = np.array([len(piece) for piece in pieces], dtype=np.int64)
        times = np.concatenate(pieces) if pieces else np.zeros(0)
        del pieces
        self._unmerged = []
        self._prerun = prerun
        order = np.argsort(times, kind="stable")
        merged = array("d", [0.0]) * start
        np.take(times, order, out=np.frombuffer(merged, dtype=np.float64))
        del times
        codes = array("q", [0]) * start
        view = np.frombuffer(codes, dtype=np.int64)
        np.take(
            np.repeat(np.array(offsets, dtype=np.int64), lengths), order, out=view
        )
        view += order
        self._merged_times = merged
        self._merged_codes = codes

    def run(self, until: Optional[float] = None) -> float:
        """Process events in time/priority order; return the final time.

        With ``until``, events later than it stay queued (held-back
        arrivals and pre-run events included) and a later call resumes
        where this one stopped.
        """
        if self._merged_times is None:
            self._merge()
        heap = self._heap
        heappop = heapq.heappop
        trace = self.trace
        times = self._merged_times
        codes = self._merged_codes
        columns = self._columns
        prerun = self._prerun
        pos = self._next_merged
        stop = len(times) if until is None else bisect_right(times, until, pos)
        while True:
            if pos < stop:
                time = times[pos]
                # The column's entry goes first unless the heap's top entry
                # is earlier, or simultaneous with a lower (priority, seq).
                top = heap[0] if heap else None
                if (
                    top is None
                    or top[0] > time
                    or (top[0] == time and top[1:3] > self._merged_key(pos))
                ):
                    code = codes[pos]
                    pos += 1
                    self._next_merged = pos
                    if code >= 0:
                        self.now = time
                        self.events_processed += 1
                        handler, stream, stack, _ = columns[code >> 32]
                        index = code & 0xFFFFFFFF
                        if trace is not None:
                            trace.record(FrameReady(time, stream, stack, index))
                        handler(index, time)
                        continue
                    # A pre-run entry: the kernel lets go of it, as of a
                    # popped one.
                    k = code + _PRERUN
                    time, _, _, event, handler = prerun[k]
                    prerun[k] = None
                else:
                    time, _, _, event, handler = heappop(heap)
            elif heap and (until is None or heap[0][0] <= until):
                time, _, _, event, handler = heappop(heap)
            else:
                break
            self.now = time
            if event is None:
                # A completion group: the handler slot lists its events.
                for stream, records, profile, call in handler:
                    self.events_processed += 1
                    if trace is not None:
                        trace.record(InferenceDone(time, stream, records, profile))
                    call(time, records)
                continue
            self.events_processed += 1
            if trace is not None:
                trace.record(event)
            if handler is not None:
                handler(event)
        if pos == len(times):
            # The column is drained: drop the handlers, or the kernel and
            # the stream clients holding it would keep each other alive.
            self._columns = []
            self._prerun = []
        return self.now

    def _merged_key(self, pos: int) -> Tuple[int, int]:
        """``(priority, seq)`` of merged column entry ``pos``."""
        code = self._merged_codes[pos]
        if code < 0:
            return self._prerun[code + _PRERUN][1:3]
        return FrameReady.PRIORITY, self._columns[code >> 32][3] + (code & 0xFFFFFFFF)

    @property
    def pending_events(self) -> int:
        """Number of events still queued: heaped, in the merged column or
        waiting for the merge (a completion group counts its events)."""
        waiting = [entry for entry in self._prerun if entry is not None]
        if self._merged_times is None:
            arrivals = sum(len(times) for times in self._unmerged)
        else:
            arrivals = len(self._merged_times) - self._next_merged - len(waiting)
        return arrivals + sum(
            1 if entry[3] is not None else len(entry[4])
            for entry in self._heap + waiting
        )

    @property
    def heap_high_water(self) -> int:
        """Largest number of entries ever heaped at once.

        The memory-plane health metric of the scheduling discipline.
        Arrivals and everything queued before the first run wait in the
        merged column, same-time dispatches and evictions are processed in
        place, and an execution's completions share one entry.  So the
        heap holds only what handlers schedule during the run: in-flight
        executions and server wake-ups, independent of the horizon and of
        the number of streams.
        """
        return self._heap_high_water

    # -- resources -----------------------------------------------------
    def busy_until(self, *resources: str) -> float:
        """Latest time any of ``resources`` is occupied (0 when never used)."""
        if len(resources) == 1:  # single-PE mappings dominate the hot path
            return self.busy.get(resources[0], 0.0)
        if not resources:
            return 0.0
        return max(self.busy.get(r, 0.0) for r in resources)

    def acquire(
        self, resources: Tuple[str, ...], ready_time: float, duration: float
    ) -> Tuple[float, float]:
        """Reserve ``resources`` for ``duration`` starting when all are free.

        Returns ``(start, end)`` with ``start = max(ready_time, busy)``; the
        caller is queued behind earlier reservations, which is how the
        kernel models serial accelerator occupancy.  A single resource's
        frontier is one lookup, and a comparison takes the later time.
        """
        busy = self.busy
        if len(resources) == 1:
            resource = resources[0]
            frontier = busy.get(resource, 0.0)
            start = frontier if frontier > ready_time else ready_time
            end = start + duration
            busy[resource] = end
            return start, end
        start = max(ready_time, self.busy_until(*resources))
        end = start + duration
        for r in resources:
            busy[r] = end
        return start, end

    def resource_busy_times(self) -> Dict[str, float]:
        """Snapshot of each resource's busy-until time."""
        return dict(self.busy)


# ----------------------------------------------------------------------
# memoized cost models
# ----------------------------------------------------------------------
# Supported cost-stack semantics: "flat" reproduces the pre-profile scalar
# path bit for bit (measured occupancy on the first layer, static modelled
# sparsity deeper); "profile" propagates the input density layer by layer and
# buckets it per layer after propagation.
COST_MODES = ("flat", "profile")


class NetworkCostModel:
    """Whole-network inference cost under one fixed mapping and config.

    The layer→(PE, precision) assignment is resolved at construction and
    on every :meth:`rebind` (the same rules the seed pipeline applied per
    call: NMP mapping when enabled, GPU + baseline precision otherwise, GPU
    fallback for layers the assigned device cannot run) and compiled into
    integer cells of the shared :class:`LayerCostTable` plus the bytes each
    cross-PE boundary moves, once per distinct mapping key.

    The model is a *layered cost stack*: every inference is costed from an
    :class:`~repro.nn.occupancy.OccupancyProfile` (one occupancy per
    resolved layer) whose per-layer entries index the table cells; the
    composed whole-network result is memoized on ``(profile, batch)``, in
    one memo per mapping key that lives as long as the model, so a rebind
    back to a key finds its costs again.  A memo hit skips the table, so
    ``cache_info()`` counts only the layers the memoized misses looked up.
    Each input bucket has one bucketed profile row, built on first use.
    ``cost_mode`` selects how rows are built:

    * ``"flat"`` (default) — the measured input occupancy drives the first
      layer, deeper layers use their static modelled sparsity.  Semantics
      (and results) are bit-identical to the pre-profile scalar path kept
      as the ``ScalarCostModel`` oracle of the test suite.
    * ``"profile"`` — the input density is propagated through the layers
      (support dilation + activation sparsification, see
      :mod:`repro.nn.occupancy`) and bucketed **per layer after
      propagation**.  Along serial segments mixed-density traffic
      converges onto the same deep buckets within a few layers, so DSFA
      merges and heterogeneous streams share those deep-layer cache cells
      instead of thrashing the memo per input bucket; joins can keep deep
      entries a bucket or more apart.

    ``pes_used`` names the processing elements the active mapping occupies,
    in first-use order.  Each resolution sets it (at construction and on
    every :meth:`rebind`), so a reader never sees a stale PE set; treat it
    as read-only.  ``uses_sparse`` is True when the configured optimization
    level executes sparse kernels; the configuration is frozen, so it is
    read once at construction.
    """

    def __init__(
        self,
        network: LayerGraph,
        platform: Platform,
        config: Optional[EvEdgeConfig] = None,
        mapping: Optional[MappingCandidate] = None,
        table: Optional[LayerCostTable] = None,
        cost_mode: str = "flat",
    ) -> None:
        if cost_mode not in COST_MODES:
            raise ValueError(
                f"unknown cost_mode {cost_mode!r}; expected one of {COST_MODES}"
            )
        self.network = network
        self.platform = platform
        self.config = config or EvEdgeConfig()
        self.uses_sparse = self.config.optimization.uses_sparse
        self.mapping = mapping
        self.table = table or LayerCostTable()
        self.cost_mode = cost_mode
        self._specs = [spec for spec in network.layers() if spec.kind.is_compute]
        # Each compute layer's mapping names (full node id, then bare layer
        # name) and the GPU it falls back to, resolved once per model.
        self._node_names = tuple(
            (f"{network.name}.{spec.name}", spec.name) for spec in self._specs
        )
        self._gpu = platform.gpu()
        self._baseline = (self._gpu.name, self.config.baseline_precision.value)
        # Mapping key -> its compiled (cells, transfers, pes_used, memo).  A
        # compiled resolution and its (profile, batch) -> (latency, energy)
        # memo depend only on the key, so they outlive rebinds; _cache is
        # the active key's memo.
        self._resolutions: Dict[tuple, tuple] = {}
        # Input bucket -> its bucketed profile row, and a merged dispatch's
        # member density -> its row (frame densities recur across streams
        # sharing a recording, so a row is usually one dict hit away).  Rows
        # depend only on the layer structure (never on the mapping), so
        # rebind() keeps both.
        self._profiles: Dict[Optional[float], OccupancyProfile] = {}
        self._density_rows: Dict[float, Tuple[Optional[float], ...]] = {}
        self._resolve()

    def _mapping_key(self) -> Tuple[Tuple[str, str], ...]:
        """The ``(pe, precision value)`` of each compute layer under the mapping.

        A layer takes the mapping's assignment of its full node id, else of
        its bare name, else the GPU at the baseline precision; without an
        NMP mapping every layer takes the latter, so such a model has a
        single key.
        """
        baseline = self._baseline
        if self.mapping is None or not self.config.optimization.uses_nmp:
            return (baseline,) * len(self._specs)
        get = self.mapping.assignments.get
        key = []
        for full_node, node_name in self._node_names:
            assignment = get(full_node)
            if assignment is None:
                assignment = get(node_name)
            key.append(baseline if assignment is None else assignment.key)
        return tuple(key)

    def _resolve(self) -> None:
        """Point the model at the compiled resolution of the active mapping.

        Each mapping key is compiled once (:meth:`_compile`) and reused, with
        its cost memo, by every later rebind to a mapping with the same key.
        Sets ``pes_used``.
        """
        key = self._mapping_key()
        compiled = self._resolutions.get(key)
        if compiled is None:
            compiled = self._resolutions[key] = self._compile(key)
        self._cells, self._transfers, self.pes_used, self._cache = compiled

    def _compile(self, key: Tuple[Tuple[str, str], ...]) -> tuple:
        """Compile one mapping key into cells, transfers, the PEs used and a memo.

        Each layer becomes a :class:`LayerCostTable` cell, on the GPU when
        its assigned PE cannot run it; a layer whose producer ran on
        another PE also records ``(producer output bytes, producer PE,
        PE)``, the unified-memory transfer a batch of one moves across that
        boundary (``None`` elsewhere).  The memo starts empty:
        :meth:`profile_cost` fills it.
        """
        sparse = self.uses_sparse
        cells: List[int] = []
        transfers: List[Optional[Tuple[int, str, str]]] = []
        seen: List[str] = []
        previous = None
        for spec, (pe_name, value) in zip(self._specs, key):
            pe = self.platform.pe(pe_name)
            precision = Precision(value)
            if not pe.supports_layer(spec):
                pe = self._gpu
            cells.append(
                self.table.cell(spec, pe, precision, sparse and pe.supports_sparse)
            )
            transfer = None
            if previous is not None and previous[0].name != pe.name:
                producer_pe, producer_spec, producer_precision = previous
                transfer = (
                    producer_spec.output_bytes(producer_precision),
                    producer_pe.name,
                    pe.name,
                )
            transfers.append(transfer)
            if pe.name not in seen:
                seen.append(pe.name)
            previous = (pe, spec, precision)
        return tuple(cells), tuple(transfers), tuple(seen), {}

    def rebind(self, mapping: Optional[MappingCandidate]) -> None:
        """Swap the NMP mapping; every cost that is still valid is kept.

        Used by online traffic-adaptive remapping.  The per-layer costs in
        the shared :class:`LayerCostTable` stay valid (they are keyed on the
        layer/PE/precision cell, not on the mapping).  The resolved cells,
        the transfer boundaries, the occupied-PE set and the whole-network
        cost memo depend only on the mapping key (:meth:`_mapping_key`), so
        a key compiled before — by an earlier rebind or at construction —
        is reused as it is, memo included, and a new key starts with an
        empty memo.  Nothing is cleared.  Note that an execution server's
        *grouping* of streams (its :meth:`signature_for` at construction
        time) is intentionally not revisited — streams that shared a cost
        surface before a remap still share the rebound one.
        """
        self.mapping = mapping
        self._resolve()

    @staticmethod
    def signature_for(
        network: LayerGraph,
        config: Optional[EvEdgeConfig] = None,
        mapping: Optional[MappingCandidate] = None,
    ) -> tuple:
        """Identity of a (network, mapping, config) cost surface.

        Streams with equal signatures run the same computation and may be
        batched together by the traffic simulator.  The layer specs are part
        of the identity: two networks that share a name but differ
        structurally (e.g. the same zoo model built at two resolutions) must
        not share a cost model or an execution server.

        It is computed *without* constructing a model: the traffic
        simulator uses it to decide whether a stream joins an existing
        :class:`NetworkCostModel` (and execution server) before paying for a
        full assignment resolution — constructing a model per source just to
        discard it when the signature already had a server was a measurable
        share of fleet start-up time.
        """
        mapping_key = None if mapping is None else mapping.key()
        return (
            network.name,
            tuple(spec for spec in network.layers() if spec.kind.is_compute),
            mapping_key,
        ) + NetworkCostModel._config_identity(config)

    @staticmethod
    def identity_for(
        network: LayerGraph,
        config: Optional[EvEdgeConfig] = None,
        mapping: Optional[MappingCandidate] = None,
    ) -> tuple:
        """The inputs :meth:`signature_for` reads, with objects by identity.

        Equal identities have equal signatures as long as the network and
        mapping objects are alive and unchanged, so a caller that holds
        them (the traffic simulator, within one set-up) can resolve each
        identity's signature once: a fleet shares a few network and
        mapping objects among many sources.
        """
        return (id(network), id(mapping)) + NetworkCostModel._config_identity(config)

    @staticmethod
    def _config_identity(config: Optional[EvEdgeConfig]) -> tuple:
        """The configuration fields a cost surface depends on."""
        config = config or EvEdgeConfig()
        return (config.optimization, config.baseline_precision)

    # ------------------------------------------------------------------
    # occupancy profiles
    # ------------------------------------------------------------------
    def occupancy_profile(self, occupancy: Optional[float]) -> OccupancyProfile:
        """The bucketed profile row of one measured input occupancy.

        Built once per input bucket.  Propagation follows the network
        *graph* (:func:`~repro.nn.occupancy.propagate_occupancy_graph`):
        multi-input layers see the combined support of all their
        predecessors.  Entries come back in the topo order the cells were
        resolved in, each snapped to its table bucket.
        """
        occ_key = self.table.bucket(occupancy)
        profile = self._profiles.get(occ_key)
        if profile is None:
            num_layers = len(self._specs)
            if self.cost_mode == "flat" or occ_key is None or num_layers <= 1:
                profile = OccupancyProfile.flat(occ_key, num_layers)
            else:
                bucket = self.table.bucket
                profile = OccupancyProfile(
                    bucket(e) for e in propagate_occupancy_graph(self.network, occ_key)
                )
            self._profiles[occ_key] = profile
        return profile

    def densities_profile(
        self, densities: Sequence[float], occupancy: float
    ) -> OccupancyProfile:
        """Input profile of one (possibly merged) dispatch.

        ``densities`` are the per-frame input densities of every member
        batch and ``occupancy`` their mean (the scalar stamped on the
        inference record); dense configurations pass ``([], 1.0)``.
        Dispatchers hand the members' density columns straight to the cost
        stack, so no concatenated batch (and no per-frame view) is ever
        materialised for costing.  In ``"flat"`` mode the dispatch is
        costed at the single mean density — exactly the scalar path.  In
        ``"profile"`` mode each frame contributes its input bucket's row
        and the dispatch's profile is the column-wise mean of the member
        rows, summed in member order, then bucketed per layer: a batched
        inference runs every member through the same layers, so its
        per-layer occupancy is the mean of the members' per-layer
        occupancies — not the propagation of their mean, which differs
        because propagation is nonlinear.  Each column is summed with the
        built-in ``sum``, as :meth:`OccupancyProfile.combine` sums with
        unit weights (bit-identical on every Python, including 3.12's
        compensated float ``sum``), and the column means are bucketed in
        one pass.
        """
        occupancy = max(float(occupancy), 1e-4)
        if self.cost_mode == "flat" or not self.uses_sparse or len(densities) <= 1:
            return self.occupancy_profile(occupancy)
        density_rows = self._density_rows
        rows = []
        for density in densities:
            row = density_rows.get(density)
            if row is None:
                row = self.occupancy_profile(max(density, 1e-4)).entries
                density_rows[density] = row
            rows.append(row)
        count = len(rows)
        bucket = self.table.bucket
        return OccupancyProfile(
            [bucket(total / count) for total in map(sum, zip(*rows))]
        )

    # ------------------------------------------------------------------
    def profile_cost(
        self, profile: OccupancyProfile, batch: int
    ) -> Tuple[float, float]:
        """Memoized latency and energy of one invocation at ``profile``.

        Composes the per-layer cost cells of the shared
        :class:`LayerCostTable` into a network total: each resolved layer is
        costed at its profile entry (``None`` = static modelled sparsity),
        and a unified-memory transfer is added whenever producer and
        consumer sit on different devices (execution is serial, so
        transfers are summed, each right after its consumer's cost).  The
        composed result is memoized on ``(profile, batch)`` in the active
        mapping key's memo — profiles that converge onto the same per-layer
        buckets share one entry.  Entries are bucket representatives
        already, so they key the cells as they are.  Each layer's cost is
        read from the table's memo inline; only a miss calls
        :meth:`LayerCostTable.cell_cost` (which counts it), and the hits are
        added to the table's counter, so ``cache_info()`` reads as if every
        layer of a memo miss had called ``cell_cost``.
        """
        entries = profile.entries
        key = (entries, batch)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if len(entries) != len(self._cells):
            raise ValueError(
                "profile length does not match the resolved layer count "
                f"({len(entries)} != {len(self._cells)})"
            )
        table = self.table
        costs = table._cache
        hits = 0
        total_latency = 0.0
        total_energy = 0.0
        for cell, transfer, occupancy in zip(self._cells, self._transfers, entries):
            cost = costs.get((cell, occupancy, batch))
            if cost is None:
                cost = table.cell_cost(cell, occupancy, batch)
            else:
                hits += 1
            total_latency += cost.latency
            total_energy += cost.energy
            if transfer is not None:
                out_bytes, src, dst = transfer
                transfer_bytes = out_bytes * batch
                total_latency += self.platform.transfer_time(transfer_bytes, src, dst)
                total_energy += table.energy_model.transfer_energy(transfer_bytes)
        table.hits += hits
        result = (total_latency, total_energy)
        self._cache[key] = result
        return result
