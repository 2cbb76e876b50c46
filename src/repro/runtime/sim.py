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
  inline loop produced implicitly.  Delivery is O(1) in the number of
  registered handlers: handlers live in a routing table keyed on
  ``(event_type, stream)`` with a wildcard bucket per type, so a
  1024-stream fleet no longer pays a linear scan over every stream's
  handlers for every event.  The kernel also owns per-resource busy
  tracking (``busy_until`` / ``acquire``) so clients share one notion of
  device occupancy.
* **Layered cost stack** — :class:`LayerCostTable` holds per-layer cost
  cells keyed on ``(layer, pe, precision, sparse, layer-bucket, batch)``;
  :class:`NetworkCostModel` resolves a network's layer→(PE, precision)
  assignment once and composes the cells into memoized whole-network costs.
  Costs are driven by an :class:`~repro.nn.occupancy.OccupancyProfile` —
  one occupancy per layer.  In ``cost_mode="flat"`` (the default) the
  profile carries the measured input occupancy in its first slot and defers
  to each deeper layer's static modelled sparsity, which is bit-identical
  to the pre-profile scalar path.  In ``cost_mode="profile"`` the input
  density is *propagated* layer by layer (support dilation + activation
  sparsification) and bucketed per layer **after** propagation, so
  mixed-density traffic whose deep entries converge (as they do along
  serial segments) shares deep-layer cache cells instead of thrashing the
  memo per input bucket.

Single-stream clients (``EvEdgePipeline.run``) and the multi-stream traffic
simulator (:mod:`repro.runtime.streams`) are both thin protocol drivers on
top of this kernel.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.config import EvEdgeConfig
from ..core.nmp.candidate import MappingCandidate
from ..frames.sparse import SparseFrameBatch
from ..hw.energy import EnergyModel
from ..hw.latency import LatencyModel
from ..hw.pe import Platform, ProcessingElement
from ..nn.graph import LayerGraph
from ..nn.layers import LayerSpec
from ..nn.occupancy import OccupancyProfile
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
@dataclass(frozen=True)
class InferenceRecord:
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

    def merge(self, other: "PipelineReport") -> "PipelineReport":
        """Combine two reports into a new one (shard-report composition).

        Frame counters and streaming accumulators are summed, the completion
        time is the max of the two, and the retained records are
        concatenated under the smaller of the two record limits (a lean
        report anywhere in the merge keeps the result lean — the
        accumulators are the part that composes at fleet scale).  Neither
        input is mutated.
        """
        limits = [
            part.record_limit
            for part in (self, other)
            if part.record_limit is not None
        ]
        merged = PipelineReport(record_limit=min(limits) if limits else None)
        merged.cost_mode = (
            self.cost_mode if self.cost_mode == other.cost_mode else "mixed"
        )
        merged.frames_generated = self.frames_generated + other.frames_generated
        merged.frames_merged = self.frames_merged + other.frames_merged
        merged.frames_dropped = self.frames_dropped + other.frames_dropped
        for part in (self, other):
            merged._num_records += part._num_records
            merged._latency_sum += part._latency_sum
            merged._energy_sum += part._energy_sum
            merged._occupancy_sum += part._occupancy_sum
            if part._max_end_time > merged._max_end_time:
                merged._max_end_time = part._max_end_time
        limit = merged.record_limit
        if limit != 0:
            merged.records = self.records + other.records
            if limit is not None and len(merged.records) > limit:
                del merged.records[: len(merged.records) - limit]
        return merged

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
    """Frames were evicted from a bounded queue (backlog or staleness)."""

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
    :class:`~repro.frames.stack.FrameStack`, so no per-frame object exists
    on the event path.
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
class SimulationKernel:
    """Priority-queue event loop with per-resource busy tracking.

    Handler delivery is O(1) in the number of registered handlers: the
    kernel keeps a routing table keyed on ``(event_type, stream)`` plus a
    wildcard bucket per type (handlers registered with ``stream=None``).
    The first event of a given ``(type, stream)`` builds that key's route —
    the exact and wildcard handler lists merged by registration order — and
    later registrations patch every built route they belong to, so handlers
    registered mid-run are delivered exactly as the pre-routing linear scan
    would have: FIFO by registration order within an event's priority class.

    Parameters
    ----------
    trace:
        Optional event sink (e.g. :class:`repro.runtime.tracer.KernelTrace`);
        every processed event is passed to ``trace.record(event)``.
    """

    def __init__(self, trace: Optional[object] = None) -> None:
        self._heap: List[Tuple[float, int, int, SimEvent]] = []
        # Plain int rather than itertools.count: lazy schedulers reserve
        # contiguous sequence blocks up front (reserve_sequences), which an
        # opaque counter cannot hand out.
        self._seq = 0
        self._heap_high_water = 0
        # Registration tokens order handlers globally; routes merge the
        # exact and wildcard lists by token.
        self._reg = itertools.count()
        self._exact: Dict[Tuple[type, str], List[Tuple[int, Callable[[SimEvent], None]]]] = {}
        self._wild: Dict[type, List[Tuple[int, Callable[[SimEvent], None]]]] = {}
        self._routes: Dict[Tuple[type, str], List[Callable[[SimEvent], None]]] = {}
        self._routed_streams: Dict[type, set] = {}
        self._busy: Dict[str, float] = {}
        self.now = 0.0
        self.events_processed = 0
        self.trace = trace

    # -- scheduling ----------------------------------------------------
    def schedule(self, event: SimEvent, seq: Optional[int] = None) -> None:
        """Enqueue ``event``; scheduling into the past is a client bug.

        ``seq`` is the event's FIFO tie-break within its ``(time, priority)``
        class.  Left as ``None`` (the normal case) it is drawn from the
        kernel's monotone counter at call time.  Lazy arrival schedulers pass
        a sequence number pre-reserved via :meth:`reserve_sequences` so that
        events scheduled *during* the run occupy exactly the heap slots the
        horizon-wide prime would have assigned — same-timestamp ordering,
        and therefore every downstream report, is independent of when the
        event was scheduled.
        """
        if event.time < self.now - 1e-12:
            raise ValueError(
                f"cannot schedule {type(event).__name__} at t={event.time} "
                f"before kernel time t={self.now}"
            )
        if seq is None:
            seq = self._seq
            self._seq = seq + 1
        heap = self._heap
        heapq.heappush(heap, (event.time, event.PRIORITY, seq, event))
        if len(heap) > self._heap_high_water:
            self._heap_high_water = len(heap)

    def reserve_sequences(self, count: int) -> int:
        """Reserve ``count`` consecutive sequence numbers; return the first.

        The caller owns ``[base, base + count)`` and stamps them onto events
        via ``schedule(event, seq=base + i)``.  Reserving advances the
        counter exactly as ``count`` immediate ``schedule`` calls would, so
        every later auto-assigned sequence number is unchanged versus
        enqueueing the whole block up front.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        base = self._seq
        self._seq = base + count
        return base

    def on(
        self,
        event_type: type,
        handler: Callable[[SimEvent], None],
        stream: Optional[str] = None,
    ) -> None:
        """Register ``handler`` for events of ``event_type``.

        With ``stream`` given, only events carrying that stream name are
        delivered; handlers registered with ``stream=None`` see every event
        of the type.
        """
        token = next(self._reg)
        if stream is None:
            self._wild.setdefault(event_type, []).append((token, handler))
            # A wildcard handler belongs to every stream's route of this
            # type; the new token is the largest so far, so appending keeps
            # each built route sorted by registration order.
            for routed in self._routed_streams.get(event_type, ()):
                self._routes[(event_type, routed)].append(handler)
        else:
            self._exact.setdefault((event_type, stream), []).append((token, handler))
            if stream in self._routed_streams.get(event_type, ()):
                self._routes[(event_type, stream)].append(handler)

    def _build_route(
        self, event_type: type, stream: str
    ) -> List[Callable[[SimEvent], None]]:
        """Merge exact and wildcard handlers of one key by registration order."""
        entries = list(self._exact.get((event_type, stream), ()))
        entries += self._wild.get(event_type, ())
        entries.sort(key=lambda entry: entry[0])
        route = [handler for _, handler in entries]
        self._routes[(event_type, stream)] = route
        self._routed_streams.setdefault(event_type, set()).add(stream)
        return route

    def run(self, until: Optional[float] = None) -> float:
        """Process events in time/priority order; return the final time."""
        heap = self._heap
        routes = self._routes
        while heap:
            if until is not None and heap[0][0] > until:
                break
            time, _, _, event = heapq.heappop(heap)
            self.now = time
            self.events_processed += 1
            if self.trace is not None:
                self.trace.record(event)
            route = routes.get((event.__class__, event.stream))
            if route is None:
                route = self._build_route(event.__class__, event.stream)
            for handler in route:
                handler(event)
        return self.now

    @property
    def pending_events(self) -> int:
        """Number of events still queued."""
        return len(self._heap)

    @property
    def heap_high_water(self) -> int:
        """Largest number of events ever queued at once.

        The memory-plane health metric of the scheduling discipline: the
        per-stream arrival cursors keep it at O(active streams) plus
        in-flight dispatch/completion events — independent of horizon
        length, where heaping every arrival up front would make it
        O(total frames in the fleet).
        """
        return self._heap_high_water

    # -- resources -----------------------------------------------------
    def busy_until(self, *resources: str) -> float:
        """Latest time any of ``resources`` is occupied (0 when never used)."""
        if len(resources) == 1:  # single-PE mappings dominate the hot path
            return self._busy.get(resources[0], 0.0)
        if not resources:
            return 0.0
        return max(self._busy.get(r, 0.0) for r in resources)

    def acquire(
        self, resources: Tuple[str, ...], ready_time: float, duration: float
    ) -> Tuple[float, float]:
        """Reserve ``resources`` for ``duration`` starting when all are free.

        Returns ``(start, end)`` with ``start = max(ready_time, busy)``; the
        caller is queued behind earlier reservations, which is how the
        kernel models serial accelerator occupancy.
        """
        start = max(ready_time, self.busy_until(*resources))
        end = start + duration
        for r in resources:
            self._busy[r] = end
        return start, end

    def resource_busy_times(self) -> Dict[str, float]:
        """Snapshot of each resource's busy-until time."""
        return dict(self._busy)


# ----------------------------------------------------------------------
# memoized cost models
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LayerCost:
    """Memoized latency/energy of one layer execution."""

    latency: float
    energy: float


class LayerCostTable:
    """Memo table for per-layer latency and energy.

    Entries are keyed on ``(layer, pe, precision, sparse, occupancy-bucket,
    batch)``.  With ``occupancy_resolution=None`` (the default) the bucket is
    the exact occupancy value — results are bit-for-bit identical to calling
    the latency/energy models directly, and repeated occupancies (the dense
    path always passes 1.0) still hit the cache.  A positive resolution
    quantizes the occupancy to that grid before *both* keying and computing,
    trading a bounded modelling error for a much higher hit rate under heavy
    multi-stream traffic.
    """

    def __init__(
        self,
        latency_model: Optional[LatencyModel] = None,
        energy_model: Optional[EnergyModel] = None,
        occupancy_resolution: Optional[float] = None,
    ) -> None:
        if occupancy_resolution is not None and not 0 < occupancy_resolution <= 1:
            raise ValueError("occupancy_resolution must be in (0, 1] or None")
        self.latency_model = latency_model or LatencyModel()
        self.energy_model = energy_model or EnergyModel(self.latency_model)
        self.occupancy_resolution = occupancy_resolution
        self._cache: Dict[tuple, LayerCost] = {}
        self.hits = 0
        self.misses = 0

    def bucket(self, occupancy: Optional[float]) -> Optional[float]:
        """Quantize an occupancy to its bucket representative (clamped [0, 1]).

        Nonzero occupancies round *up* to at least the first bucket: a small
        positive density (e.g. ``1e-4`` with the default 1/64 resolution)
        must not quantize to ``0.0``, which would zero the dense
        memory-traffic term in the latency model and clamp sparse costs down
        to the ``min_sparse_fraction`` floor regardless of the actual input.
        """
        if occupancy is None:
            return None
        occupancy = min(max(float(occupancy), 0.0), 1.0)
        if not self.occupancy_resolution:
            return occupancy
        steps = round(occupancy / self.occupancy_resolution)
        if steps == 0 and occupancy > 0.0:
            steps = 1
        return min(steps * self.occupancy_resolution, 1.0)

    def layer_cost(
        self,
        layer: LayerSpec,
        pe: ProcessingElement,
        precision: Precision,
        sparse: bool = False,
        occupancy: Optional[float] = None,
        batch: int = 1,
        quantize: bool = True,
    ) -> LayerCost:
        """Memoized ``(latency, energy)`` of one layer execution.

        With ``quantize=False`` the occupancy is used (and keyed) exactly as
        given instead of being snapped to its bucket.  The scalar-keyed
        oracle of the test suite (``tests/oracles``) uses this to model the
        pre-profile stack, whose cells had no per-layer quantization —
        production callers leave it enabled.
        """
        if quantize:
            occ = self.bucket(occupancy)
        elif occupancy is None:
            occ = None
        else:
            occ = min(max(float(occupancy), 0.0), 1.0)
        key = (layer, pe.name, precision, sparse, occ, batch)
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        latency = self.latency_model.layer_latency(
            layer, pe, precision, sparse=sparse, occupancy=occ, batch=batch
        ).total
        energy = self.energy_model.layer_energy(
            layer, pe, precision, sparse=sparse, occupancy=occ, batch=batch
        ).total
        cost = LayerCost(latency, energy)
        self._cache[key] = cost
        return cost

    def cache_info(self) -> Dict[str, float]:
        """Hit/miss counters, hit-rate and current table size."""
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._cache),
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }


# Supported cost-stack semantics: "flat" reproduces the pre-profile scalar
# path bit for bit (measured occupancy on the first layer, static modelled
# sparsity deeper); "profile" propagates the input density layer by layer and
# buckets it per layer after propagation.
COST_MODES = ("flat", "profile")


class NetworkCostModel:
    """Whole-network inference cost under one fixed mapping and config.

    The layer→(PE, precision) assignment is resolved once at construction
    (the same rules the seed pipeline applied per call: NMP mapping when
    enabled, GPU + baseline precision otherwise, GPU fallback for layers the
    assigned device cannot run).

    The model is a *layered cost stack*: every inference is costed from an
    :class:`~repro.nn.occupancy.OccupancyProfile` (one occupancy per
    resolved layer) whose per-layer entries index the shared
    :class:`LayerCostTable` cells; the composed whole-network result is
    memoized on ``(profile, batch)``.  ``cost_mode`` selects how profiles
    are built:

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
        self.mapping = mapping
        self.table = table or LayerCostTable()
        self.cost_mode = cost_mode
        self._specs = [spec for spec in network.layers() if spec.kind.is_compute]
        self._cache: Dict[tuple, Tuple[float, float]] = {}
        # Input bucket -> built profile.  Profiles depend only on the layer
        # structure (never on the mapping), so rebind() leaves this intact.
        self._profiles: Dict[Optional[float], OccupancyProfile] = {}
        self._resolve()

    def _resolve(self) -> None:
        """Resolve the layer→(PE, precision) assignment under the active mapping."""
        self._assignments: List[Tuple[LayerSpec, ProcessingElement, Precision]] = []
        for spec in self._specs:
            pe, precision = self._assignment_for(spec.name)
            if not pe.supports_layer(spec):
                pe = self.platform.gpu()
            self._assignments.append((spec, pe, precision))
        seen: List[str] = []
        for _, pe, _ in self._assignments:
            if pe.name not in seen:
                seen.append(pe.name)
        self._pes_used = tuple(seen)

    def rebind(self, mapping: Optional[MappingCandidate]) -> None:
        """Swap the NMP mapping and invalidate every memoized inference cost.

        Used by online traffic-adaptive remapping: the per-layer costs in the
        shared :class:`LayerCostTable` stay valid (they are keyed on the
        layer/PE/precision, not on the mapping), but the resolved assignment
        list, the occupied-PE set and the whole-network cost memo are all
        mapping-dependent and must be rebuilt.  Note that an execution
        server's *grouping* of streams (its :meth:`signature` at construction
        time) is intentionally not revisited — streams that shared a cost
        surface before a remap still share the rebound one.
        """
        self.mapping = mapping
        self._resolve()
        self._cache.clear()

    # ------------------------------------------------------------------
    def _assignment_for(self, node_name: str) -> Tuple[ProcessingElement, Precision]:
        """(pe, precision) of one layer under the active mapping."""
        gpu = self.platform.gpu()
        if self.mapping is None or not self.config.optimization.uses_nmp:
            return gpu, self.config.baseline_precision
        full_node = f"{self.network.name}.{node_name}"
        if full_node in self.mapping:
            assignment = self.mapping[full_node]
        elif node_name in self.mapping:
            assignment = self.mapping[node_name]
        else:
            return gpu, self.config.baseline_precision
        return self.platform.pe(assignment.pe), assignment.precision

    @property
    def pes_used(self) -> Tuple[str, ...]:
        """Names of the processing elements this network's mapping occupies."""
        return self._pes_used

    @property
    def uses_sparse(self) -> bool:
        """True when the configured optimization level executes sparse kernels."""
        return self.config.optimization.uses_sparse

    @staticmethod
    def signature_for(
        network: LayerGraph,
        config: Optional[EvEdgeConfig] = None,
        mapping: Optional[MappingCandidate] = None,
    ) -> tuple:
        """Signature of the cost surface *without* constructing a model.

        The traffic simulator uses this to decide whether a stream joins an
        existing :class:`NetworkCostModel` (and execution server) before
        paying for a full assignment resolution — constructing a model per
        source just to discard it when the signature already had a server
        was a measurable share of fleet start-up time.
        """
        config = config or EvEdgeConfig()
        mapping_key = None if mapping is None else mapping.key()
        return (
            network.name,
            tuple(spec for spec in network.layers() if spec.kind.is_compute),
            mapping_key,
            config.optimization,
            config.baseline_precision,
        )

    def signature(self) -> tuple:
        """Identity of the (network, mapping, config) cost surface.

        Streams with equal signatures run the same computation and may be
        batched together by the traffic simulator.  The layer specs are part
        of the identity: two networks that share a name but differ
        structurally (e.g. the same zoo model built at two resolutions) must
        not share a cost model or an execution server.

        Delegates to :meth:`signature_for` so the model-free and model-bound
        identity definitions cannot drift apart.
        """
        return NetworkCostModel.signature_for(self.network, self.config, self.mapping)

    # ------------------------------------------------------------------
    # occupancy profiles
    # ------------------------------------------------------------------
    def _build_profile(self, occ_key: Optional[float]) -> OccupancyProfile:
        """Profile for one *bucketed* input occupancy (subclass hook).

        Propagation follows the network *graph*: multi-input layers see the
        combined support of all their predecessors rather than whichever
        spec happened to precede them in topological order.  The entries
        come back in the same topo order the assignments were resolved in
        (``network.layers()`` filtered to compute specs), so memoization
        keys and per-layer bucketing are unchanged — and for purely serial
        networks the result is bit-identical to the chain walk.
        """
        num_layers = len(self._assignments)
        if self.cost_mode == "flat" or occ_key is None or num_layers <= 1:
            return OccupancyProfile.flat(occ_key, num_layers)
        raw = OccupancyProfile.from_graph(self.network, occ_key)
        return raw.bucketed(self.table.bucket)

    def occupancy_profile(self, occupancy: Optional[float]) -> OccupancyProfile:
        """The (cached) per-layer profile for one measured input occupancy."""
        occ_key = self.table.bucket(occupancy)
        profile = self._profiles.get(occ_key)
        if profile is None:
            profile = self._build_profile(occ_key)
            self._profiles[occ_key] = profile
        return profile

    def batch_profile(
        self,
        batch: SparseFrameBatch,
        occupancy: Optional[float] = None,
    ) -> OccupancyProfile:
        """Input profile of one (possibly merged) dispatched batch.

        ``occupancy`` is the caller's already-computed mean input density
        (the scalar stamped on the inference record); when omitted it is
        derived from the batch.  In ``"flat"`` mode the batch is costed at
        that single density — exactly the scalar path.  In ``"profile"``
        mode each frame of the batch is propagated independently and the
        member profiles are combined entry-wise (merge-time profile
        combination): a batched inference runs every member through the
        same layers, so the batch's per-layer occupancy is the mean of the
        members' per-layer occupancies — not the propagation of their mean,
        which differs because propagation is nonlinear.
        """
        if occupancy is None:
            occupancy = batch.mean_density if self.uses_sparse else 1.0
        if (
            self.cost_mode == "flat"
            or not self.uses_sparse
            or len(batch) <= 1
        ):
            return self.occupancy_profile(max(float(occupancy), 1e-4))
        return self.densities_profile(batch.frame_densities(), occupancy)

    def densities_profile(
        self, densities: Sequence[float], occupancy: float
    ) -> OccupancyProfile:
        """Input profile from an explicit per-frame density sequence.

        The density-column form of :meth:`batch_profile`: cross-stream
        merges hand the member batches' density columns straight to the
        cost stack, so no concatenated batch (and no per-frame view) is
        ever materialised for costing.
        """
        occupancy = max(float(occupancy), 1e-4)
        if self.cost_mode == "flat" or not self.uses_sparse or len(densities) <= 1:
            return self.occupancy_profile(occupancy)
        members = [
            self.occupancy_profile(max(density, 1e-4)) for density in densities
        ]
        return self._bucket_profile(OccupancyProfile.combine(members))

    def _bucket_profile(self, profile: OccupancyProfile) -> OccupancyProfile:
        """Per-layer quantization of a freshly combined profile.

        Subclass hook: the layered stack snaps every entry to its table
        bucket; the scalar-keyed oracle keeps combined entries raw, matching
        its no-per-layer-bucketing architecture.
        """
        return profile.bucketed(self.table.bucket)

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
        transfers are summed).  The composed result is memoized on
        ``(profile, batch)`` — profiles that converge onto the same
        per-layer buckets share one entry.
        """
        key = (profile.key(), batch)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if len(profile) != len(self._assignments):
            raise ValueError(
                "profile length does not match the resolved layer count "
                f"({len(profile)} != {len(self._assignments)})"
            )
        sparse = self.uses_sparse
        quantize = self._quantize_layers
        total_latency = 0.0
        total_energy = 0.0
        previous_pe = None
        previous_spec = None
        previous_precision = None
        for (spec, pe, precision), occ in zip(self._assignments, profile):
            layer_sparse = sparse and pe.supports_sparse
            cost = self.table.layer_cost(
                spec,
                pe,
                precision,
                sparse=layer_sparse,
                occupancy=occ,
                batch=batch,
                quantize=quantize,
            )
            total_latency += cost.latency
            total_energy += cost.energy
            if previous_pe is not None and previous_pe.name != pe.name:
                transfer_bytes = previous_spec.output_bytes(previous_precision) * batch
                total_latency += self.platform.transfer_time(
                    transfer_bytes, previous_pe.name, pe.name
                )
                total_energy += self.table.energy_model.transfer_energy(transfer_bytes)
            previous_pe, previous_spec, previous_precision = pe, spec, precision
        result = (total_latency, total_energy)
        self._cache[key] = result
        return result

    # Whether profile entries are snapped to table buckets when costing a
    # layer.  The layered stack always quantizes (entries are bucket
    # representatives already, so this mirrors the pre-profile double
    # bucketing bit for bit); the scalar-keyed oracle overrides it.
    _quantize_layers = True

    def inference_cost(self, occupancy: float, batch: int) -> Tuple[float, float]:
        """Memoized latency and energy of one network invocation.

        Convenience wrapper: builds the occupancy profile for the measured
        input density and composes it through :meth:`profile_cost`.
        """
        return self.profile_cost(self.occupancy_profile(occupancy), batch)
