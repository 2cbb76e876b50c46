"""Traffic streams and the multi-stream traffic simulator.

A :class:`StreamSource` wraps one traffic source — an
:class:`~repro.events.datasets.EventSequence`, the network that consumes it,
and its :class:`~repro.core.config.EvEdgeConfig` (plus an optional NMP
mapping and a start offset) — into something the simulation kernel can
schedule.  :class:`StreamClient` is the per-stream protocol driver: it turns
``FrameReady`` events into DSFA pushes (or the bounded-queue drop logic of
the no-DSFA path), emits ``DispatchBatch`` events and accounts the resulting
``InferenceDone`` records into a per-stream
:class:`~repro.runtime.sim.PipelineReport`.

Two executors give dispatches their hardware semantics (both live in
:mod:`repro.runtime.executor` and are re-exported here):

* :class:`SerialExecutor` — the whole platform is one serial accelerator
  (the seed pipeline's scalar ``busy_until``); dispatches queue behind each
  other.  ``EvEdgePipeline.run`` uses this to stay report-for-report
  identical with the seed.
* :class:`SignatureServer` — used by :class:`MultiStreamSimulator`; one
  server per distinct (network, mapping, config) signature, occupying the
  PEs its mapping touches.  Dispatches arriving while those PEs are busy
  wait in a bounded per-stream pending queue (oldest entries are evicted
  with ``QueueEvict`` once a stream exceeds its ``inference_queue_depth``)
  and are merged — cross-stream batching over at most ``max_merge_streams``
  *distinct* streams — into one batched inference when the devices free up.
  Pending work is indexed (per-client deques + an aggregate FIFO heap) so
  dispatch, eviction and merge selection stay O(1) amortized at fleet
  scale.

:class:`MultiStreamSimulator` multiplexes N heterogeneous streams onto one
:class:`~repro.hw.pe.Platform` with per-PE busy tracking, sharing a single
:class:`~repro.runtime.sim.LayerCostTable` across all streams.

**Online traffic-adaptive remapping.**  With a :class:`RemapPolicy` the
simulator reacts to traffic-mix changes: at every stream join (its
``start_offset``) and leave (its last frame) a :class:`RemapTriggered` event
fires, the :class:`AdaptiveMappingClient` re-runs a *budgeted* NMP search
(:class:`~repro.core.nmp.search.MapperEngine`) over the networks of the
streams that are active at that instant, and every affected
:class:`~repro.runtime.sim.NetworkCostModel` is rebound to the new mapping —
invalidating its memoized whole-network costs while keeping the shared
per-layer cost table warm.  Only streams whose optimization level uses NMP
(:attr:`~repro.core.config.OptimizationLevel.FULL`) participate; the search
itself is treated as instantaneous in simulated time (it runs on a host core
concurrently with inference in a real deployment).  Churning fleets bring the
same network set back with the same deployed mapping again and again, so the
client profiles each network once and memoizes whole searches on (network
set, warm starts); a hit returns exactly what a re-run would.  Everything is
keyed by network name, so a name must denote one :class:`LayerGraph` per
client.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import EvEdgeConfig
from ..core.dsfa import DynamicSparseFrameAggregator
from ..core.e2sf import Event2SparseFrameConverter
from ..core.nmp.candidate import Assignment, MappingCandidate
from ..core.nmp.search import (
    EvolutionaryStrategy,
    MapperEngine,
    NMPConfig,
    NMPResult,
)
from ..events.datasets import EventSequence
from ..frames.sparse import SparseFrameBatch
from ..frames.stack import FrameStack
from ..hw.pe import Platform
from ..hw.profiler import PlatformProfiler, ProfileTable
from ..nn.graph import LayerGraph, MultiTaskGraph, TaskSpec
from ..nn.quantization import Precision
from .executor import SerialExecutor, SignatureServer
from .sim import (
    COST_MODES,
    DispatchBatch,
    FrameReady,
    InferenceDone,
    LayerCostTable,
    NetworkCostModel,
    PipelineReport,
    QueueEvict,
    RemapTriggered,
    SimulationKernel,
    StreamEnd,
)
from .tracer import KernelTrace

__all__ = [
    "StreamSource",
    "StreamClient",
    "SerialExecutor",
    "SignatureServer",
    "RemapPolicy",
    "RemapRecord",
    "AdaptiveMappingClient",
    "MultiStreamReport",
    "MultiStreamSimulator",
    "SHARD_MODES",
]

@dataclass
class StreamSource:
    """One traffic source: an event sequence feeding one network.

    Attributes
    ----------
    name:
        Unique stream name within a simulation (e.g. ``"cam0:spikeflownet"``).
    sequence:
        The recorded/generated event sequence driving the stream.
    network:
        The network that consumes the stream's sparse frames.
    config:
        Pipeline configuration (optimization level, E2SF bins, DSFA knobs).
    mapping:
        Optional NMP mapping used when the config enables NMP.
    start_offset:
        Shift (seconds) applied to the stream's arrival times, so traffic
        from many sensors can be phase-staggered on one platform.
    stop_time:
        Optional kernel time at which the stream leaves the platform (stream
        churn): frames that would arrive after it are never generated and the
        stream's ``end_time`` is clamped to it.  Scenario specs with
        scheduled joins/leaves compile to ``(start_offset, stop_time)``
        windows.
    """

    name: str
    sequence: EventSequence
    network: LayerGraph
    config: EvEdgeConfig = field(default_factory=EvEdgeConfig)
    mapping: Optional[MappingCandidate] = None
    start_offset: float = 0.0
    stop_time: Optional[float] = None
    _stack: Optional[Tuple[Optional[FrameStack], np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _arrival_times: Optional[List[float]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def generate_stack(self) -> Tuple[Optional[FrameStack], np.ndarray]:
        """Render the stream as a ``(stack, arrivals)`` column pair.

        The whole recording renders through the one-pass columnar converter
        (:meth:`~repro.core.e2sf.Event2SparseFrameConverter.convert_stack`)
        into one :class:`~repro.frames.stack.FrameStack`; the arrivals
        column is the stack's ``t_ends`` shifted by ``start_offset`` (a
        frame becomes available when its event bin closes).  Arrivals are
        non-decreasing by construction — the E2SF bin boundaries of a
        validated, strictly increasing timestamp grid — so a ``stop_time``
        churn window is a prefix cut: one ``searchsorted`` plus a zero-copy
        :meth:`~repro.frames.stack.FrameStack.slice`, matching the
        per-frame filter ``arrival <= stop_time`` exactly.

        An empty sequence yields ``(None, empty)``.  Rendering is a pure
        function of the (immutable) sequence and config, so the result is
        computed once and cached on the source; callers must not mutate
        the returned arrays.
        """
        if self._stack is not None:
            return self._stack
        if self.sequence.num_intervals > 0:
            converter = Event2SparseFrameConverter(self.config.num_bins)
            stack = converter.convert_stack(
                self.sequence.events, self.sequence.frame_timestamps
            )
            arrivals = stack.t_ends + self.start_offset
            if self.stop_time is not None:
                keep = int(np.searchsorted(arrivals, self.stop_time, side="right"))
                if keep < len(stack):
                    stack = stack.slice(0, keep)
                    arrivals = arrivals[:keep]
            # The flat key and density columns are part of the rendered
            # product: DSFA placement probes read both on the very first
            # push, so warming them here keeps the simulation loop free of
            # render work.
            stack.flat_buffer()
            stack.densities()
            stack.t_starts_list()
            stack.t_ends_list()
            stack.densities_list()
            # tolist() round-trips float64 exactly; the scheduling loop
            # reads python floats without a numpy scalar extraction per
            # frame, and the boxed floats are part of the rendered cache
            # rather than per-run allocations.
            self._arrival_times = arrivals.tolist()
            self._stack = (stack, arrivals)
        else:
            self._arrival_times = []
            self._stack = (None, np.zeros(0))
        return self._stack

    def arrival_times(self) -> List[float]:
        """Arrival times of :meth:`generate_stack` as cached python floats."""
        if self._arrival_times is None:
            self.generate_stack()
        return self._arrival_times

    @property
    def end_time(self) -> float:
        """Kernel time at which the stream leaves the platform.

        The last grayscale frame anchor shifted by ``start_offset``, clamped
        to ``stop_time`` when a churn schedule ends the stream early (and
        never before the stream's own join time).
        """
        timestamps = self.sequence.frame_timestamps
        if timestamps.size == 0:
            end = self.start_offset
        else:
            end = float(timestamps[-1]) + self.start_offset
        if self.stop_time is not None:
            end = min(end, self.stop_time)
        return max(end, self.start_offset)


class StreamClient:
    """Per-stream protocol driver on the simulation kernel.

    Replays the exact frame-handling protocol of the seed pipeline: DSFA
    buffering with hardware-availability dispatch when enabled, otherwise
    per-frame execution with the bounded-backlog drop rule.

    Frames travel as ``(stack, index)`` references into the stream's
    rendered :class:`~repro.frames.stack.FrameStack`: DSFA buffers index
    ranges and dispatches carry stack-backed batches, so no per-frame object
    is built on the hot path.  Arrivals are walked by a per-stream cursor:
    the kernel heap holds at most one of this stream's ``FrameReady`` events
    at any time, and each successor lands on a pre-reserved sequence number
    (:meth:`~repro.runtime.sim.SimulationKernel.reserve_sequences`), so the
    heap order is exactly that of scheduling the whole horizon up front.
    """

    def __init__(
        self,
        source: StreamSource,
        kernel: SimulationKernel,
        executor,
        cost_model: NetworkCostModel,
        record_limit: Optional[int] = None,
    ) -> None:
        self.source = source
        self.name = source.name
        self.kernel = kernel
        self.executor = executor
        self.cost_model = cost_model
        self.config = source.config
        self.queue_depth = source.config.dsfa.inference_queue_depth
        self.report = PipelineReport(record_limit=record_limit)
        self.report.cost_mode = cost_model.cost_mode
        # Arrival-cursor state, populated by prime(): the rendered stack and
        # arrivals (held on the client rather than closed over by queued
        # events), the scheduled-prefix length, the next index to heap and
        # the stream's reserved sequence-number base.
        self._stack: Optional[FrameStack] = None
        self._arrivals: List[float] = []
        self._num_frames = 0
        self._cursor = 0
        self._seq_base = 0
        self.aggregator = (
            DynamicSparseFrameAggregator(source.config.dsfa)
            if source.config.optimization.uses_dsfa
            else None
        )
        self._last_duration = 0.0

    # ------------------------------------------------------------------
    def _frame_event(self, index: int) -> FrameReady:
        """The ``FrameReady`` of rendered frame ``index``."""
        return FrameReady(
            time=self._arrivals[index],
            stream=self.name,
            stack=self._stack,
            index=index,
        )

    def prime(self) -> None:
        """Schedule the stream's first frame arrival and end-of-stream flush.

        Reserves the stream's contiguous sequence-number block and heaps
        only arrival 0; the frame handler self-reschedules each successor.
        ``StreamEnd`` is scheduled even for a stream that generates no
        frames (an empty sequence, or a churn window that closes before the
        first arrival): leave-side consumers — remap triggers, traces,
        per-stream accounting — rely on every stream announcing its end.
        """
        stack, _ = self.source.generate_stack()
        self._stack = stack
        self._arrivals = self.source.arrival_times()
        count = 0 if stack is None else len(stack)
        stop = self.source.stop_time
        if stop is not None:
            # Churn guard: the cursor must never advance past the stop
            # window.  Rendered arrivals are already prefix-cut against
            # stop_time (a searchsorted on the non-decreasing column), so
            # this normally trims nothing — but a render cache seeded out of
            # band keeps the invariant that no frame is scheduled after the
            # stream left the platform.
            while count and self._arrivals[count - 1] > stop:
                count -= 1
        self._num_frames = count
        self.report.frames_generated += count
        last_arrival = self._arrivals[count - 1] if count else self.source.start_offset
        # Reserve the whole block even though only arrival 0 is heaped: the
        # successors stamped with base + i land on exactly the
        # (time, priority, seq) slots a horizon-wide prime would have used.
        self._seq_base = self.kernel.reserve_sequences(count)
        self._cursor = 1 if count else 0
        if count:
            self.kernel.schedule(
                self._frame_event(0), self._on_frame, seq=self._seq_base
            )
        # The last bin's computed t_end can differ from the final grayscale
        # timestamp by a few ulps; the flush must still come after every
        # frame arrival.
        self.kernel.schedule(
            StreamEnd(
                time=max(self.source.end_time, last_arrival), stream=self.name
            ),
            self._on_stream_end,
        )

    def note_dispatch(self, duration: float) -> None:
        """Record the duration of the stream's most recently started inference."""
        self._last_duration = duration

    @property
    def last_duration(self) -> float:
        """The stream's most recent per-dispatch service-time estimate.

        Executors stamp this onto enqueued dispatches so the server-side
        backlog estimate can include queued work without re-deriving costs.
        """
        return self._last_duration

    # ------------------------------------------------------------------
    def _on_frame(self, event: FrameReady) -> None:
        cursor = self._cursor
        if cursor < self._num_frames:
            # Heap the successor *before* processing, so a kernel paused with
            # ``run(until=...)`` mid-stream always finds the next arrival
            # already queued.
            self._cursor = cursor + 1
            self.kernel.schedule(
                self._frame_event(cursor), self._on_frame, seq=self._seq_base + cursor
            )
        arrival = event.time
        if self.aggregator is not None:
            hardware_available = arrival >= self.executor.busy_until(self)
            batch = self.aggregator.push_index(
                event.stack, event.index, hardware_available=hardware_available
            )
            if batch is not None:
                self.report.frames_merged += len(batch)
                self.kernel.schedule(
                    DispatchBatch(time=arrival, stream=self.name, batch=batch),
                    self._on_dispatch,
                )
            return
        # Without DSFA every frame is processed individually.  A real
        # deployment bounds its input queue, so when the backlog exceeds
        # ``inference_queue_depth`` inferences the oldest frame is dropped
        # instead of queued forever.  The executor's estimate covers both
        # the busy frontier and any work already sitting in a pending queue
        # — ``busy_until`` alone under-drops when many streams contend for
        # one server.
        backlog = self.executor.backlog_estimate(self, arrival)
        if backlog > self.queue_depth * max(self._last_duration, 1e-9):
            self.report.frames_dropped += 1
            self.kernel.schedule(
                QueueEvict(time=arrival, stream=self.name, num_frames=1, reason="backlog")
            )
            return
        batch = SparseFrameBatch.from_stack(event.stack, event.index, event.index + 1)
        self.kernel.schedule(
            DispatchBatch(time=arrival, stream=self.name, batch=batch),
            self._on_dispatch,
        )

    def _on_stream_end(self, event: StreamEnd) -> None:
        if self.aggregator is None:
            return
        batch = self.aggregator.flush()
        if batch is not None:
            self.report.frames_merged += len(batch)
            # The flush is anchored to the final grayscale timestamp (the
            # seed's behaviour), not to the possibly ulp-later flush event.
            self.kernel.schedule(
                DispatchBatch(
                    time=self.source.end_time, stream=self.name, batch=batch
                ),
                self._on_dispatch,
            )

    def _on_dispatch(self, event: DispatchBatch) -> None:
        self.executor.dispatch(self, event.batch, event.time)

    def _on_done(self, event: InferenceDone) -> None:
        self.report.add_records(event.records)


# ----------------------------------------------------------------------
# online traffic-adaptive remapping
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RemapPolicy:
    """How hard to re-run the NMP search as the traffic mix changes.

    Attributes
    ----------
    nmp_config:
        The *budgeted* search configuration.  Online remaps run between
        inference batches, so the default budget is far smaller than the
        offline searches of Figures 9/10.
    """

    nmp_config: NMPConfig = field(
        default_factory=lambda: NMPConfig(population_size=12, generations=8, seed=0)
    )


@dataclass(frozen=True)
class RemapRecord:
    """One executed remap: what triggered it and what the search found."""

    time: float
    reason: str
    active_streams: Tuple[str, ...]
    networks: Tuple[str, ...]
    best_latency: float
    evaluations: int
    strategy: str


class AdaptiveMappingClient:
    """Online remapping driver: budgeted NMP searches over the active mix.

    The client never redoes work it has already done:

    * each network is profiled once, as a one-network
      :class:`~repro.nn.graph.MultiTaskGraph`, and a network set's profile is
      the :meth:`~repro.hw.profiler.ProfileTable.union` of its networks'
      tables;
    * one :class:`~repro.core.nmp.search.MapperEngine` (and therefore one
      fitness cache and flattened schedule) is kept per distinct network set;
    * whole searches are memoized on (network set, warm starts).  Every
      search runs the evolutionary strategy under the policy's
      :class:`~repro.core.nmp.search.NMPConfig` and reseeds its RNG, so a
      repeated search would propose the same candidates and hit the fitness
      cache for each of them: a memo hit returns exactly that re-run's
      result (see :class:`~repro.core.nmp.search.NMPResult`).

    Networks, engines, profiles and searches are all keyed by network name,
    so a name must always denote the same :class:`LayerGraph` object within
    one client; :meth:`engine_for` raises ``ValueError`` otherwise.  The
    client is simulator-agnostic — it can also be used standalone to compute
    a mapping for an arbitrary set of networks.
    """

    def __init__(self, platform: Platform, policy: Optional[RemapPolicy] = None) -> None:
        self.platform = platform
        self.policy = policy or RemapPolicy()
        self._networks: Dict[str, LayerGraph] = {}
        self._profiles: Dict[str, ProfileTable] = {}
        self._engines: Dict[Tuple[str, ...], MapperEngine] = {}
        self._searches: Dict[tuple, NMPResult] = {}
        self.records: List[RemapRecord] = []

    # ------------------------------------------------------------------
    def _distinct(self, networks: Sequence[LayerGraph]) -> List[LayerGraph]:
        """``networks`` without repeated names, in first-seen order.

        Raises ``ValueError`` when a name denotes another graph than the
        first one this client saw under that name.
        """
        unique: Dict[str, LayerGraph] = {}
        for net in networks:
            known = self._networks.setdefault(net.name, net)
            if known is not net:
                raise ValueError(
                    f"network name '{net.name}' already denotes a different "
                    "LayerGraph in this client; give each graph its own name "
                    "or use a new AdaptiveMappingClient"
                )
            unique.setdefault(net.name, net)
        return list(unique.values())

    def _profile(self, network: LayerGraph) -> ProfileTable:
        """The (cached) profile table of one network."""
        table = self._profiles.get(network.name)
        if table is None:
            table = PlatformProfiler(self.platform).profile(
                MultiTaskGraph([TaskSpec(network)])
            )
            self._profiles[network.name] = table
        return table

    def engine_for(self, networks: Sequence[LayerGraph]) -> MapperEngine:
        """The (cached) search engine for one set of networks."""
        unique = self._distinct(networks)
        key = tuple(sorted(net.name for net in unique))
        engine = self._engines.get(key)
        if engine is None:
            graph = MultiTaskGraph([TaskSpec(net) for net in unique])
            profile = ProfileTable.union([self._profile(net) for net in unique])
            engine = MapperEngine(
                graph, self.platform, profile, config=self.policy.nmp_config
            )
            self._engines[key] = engine
        return engine

    def _fallback_mapping(self, graph: MultiTaskGraph) -> Dict[str, Assignment]:
        gpu = self.platform.gpu()
        precision = (
            Precision.FP16
            if gpu.supports_precision(Precision.FP16)
            else gpu.highest_supported_precision()
        )
        return {
            node: Assignment(gpu.name, precision) for node in graph.compute_nodes()
        }

    def remap(
        self,
        networks: Sequence[LayerGraph],
        time: float = 0.0,
        reason: str = "join",
        current_assignments: Optional[Dict[str, object]] = None,
        stream_names: Tuple[str, ...] = (),
    ) -> Optional[NMPResult]:
        """Search a new mapping for ``networks`` and record the remap.

        The search always warm-starts: an all-GPU fallback mapping seeds
        it, and so does ``current_assignments`` — the union of the deployed
        per-node assignments — when given (missing nodes, e.g. of a newly
        joined network, fall back to the GPU), so a remap can only improve
        on the status quo.  Returns ``None`` when ``networks`` is empty.  A
        repeat of an earlier search returns its memoized result with a
        fresh copy of the best candidate.
        """
        unique = self._distinct(networks)
        if not unique:
            return None
        engine = self.engine_for(unique)
        graph = engine.graph
        fallback = self._fallback_mapping(graph)
        seeds = [MappingCandidate(fallback)]
        if current_assignments:
            warm = dict(fallback)
            for node, assignment in current_assignments.items():
                if node in warm:
                    warm[node] = assignment
            seeds.insert(0, MappingCandidate(warm))
        key = (
            tuple(sorted(net.name for net in unique)),
            tuple(seed.key() for seed in seeds),
        )
        # Callers keep the candidates handed out (rebind() stores them), so
        # the memo holds its own copy and every hit returns a fresh one.
        memo = self._searches.get(key)
        if memo is None:
            result = engine.run(EvolutionaryStrategy(), initial_candidates=seeds)
            self._searches[key] = replace(
                result, best_candidate=result.best_candidate.copy()
            )
        else:
            result = replace(
                memo,
                best_candidate=memo.best_candidate.copy(),
                history=list(memo.history),
                evaluations=0,
                cache_hits=memo.requested_evaluations,
            )
        self.records.append(
            RemapRecord(
                time=time,
                reason=reason,
                active_streams=tuple(stream_names),
                networks=tuple(net.name for net in unique),
                best_latency=result.best_latency,
                evaluations=result.requested_evaluations,
                strategy=result.strategy,
            )
        )
        return result


# ----------------------------------------------------------------------
# multi-stream traffic simulation
# ----------------------------------------------------------------------
@dataclass
class MultiStreamReport:
    """Per-stream and aggregate statistics of one traffic simulation.

    ``shards`` counts the kernels that produced the report (1 for the
    single-process path); ``epochs`` carries one closing
    :class:`~repro.runtime.shard.ShardSummary` per shard of a sharded run
    (``None`` on the single-process path).
    """

    reports: Dict[str, PipelineReport]
    end_time: float
    trace: Optional[KernelTrace] = None
    cache_info: Optional[Dict[str, float]] = None
    remaps: List[RemapRecord] = field(default_factory=list)
    start_time: float = 0.0
    events_processed: int = 0
    cost_mode: str = "flat"
    shards: int = 1
    # One closing ShardSummary per shard.  perfbench/run.py reads ``.shard``
    # and ``.events_processed`` from it for ``shard.events_imbalance``, so
    # the field keeps this name until that benchmark changes.
    epochs: Optional[list] = None
    # Largest simultaneous kernel-heap population of the run (the max over
    # shards for a sharded run): the observable the per-stream arrival
    # cursors bound at O(active streams).
    heap_high_water: int = 0

    @property
    def num_streams(self) -> int:
        """Number of simulated streams."""
        return len(self.reports)

    @property
    def total_inferences(self) -> int:
        """Network invocations across all streams (merged runs count once per stream)."""
        return sum(r.num_inferences for r in self.reports.values())

    @property
    def frames_generated(self) -> int:
        """Sparse frames produced across all streams."""
        return sum(r.frames_generated for r in self.reports.values())

    @property
    def frames_dropped(self) -> int:
        """Frames dropped by backlog bounds across all streams."""
        return sum(r.frames_dropped for r in self.reports.values())

    @property
    def total_energy(self) -> float:
        """Total energy in joules across all streams."""
        return float(sum(r.total_energy for r in self.reports.values()))

    @property
    def makespan(self) -> float:
        """Completion time of the last inference across all streams."""
        return max((r.total_time for r in self.reports.values()), default=0.0)

    @property
    def active_window(self) -> float:
        """Duration between the earliest stream join and the last completion.

        Using the absolute makespan instead would make a fleet that joins at
        ``t=100 s`` report near-zero throughput even though it is fully
        loaded for its whole life.
        """
        return max(self.makespan - self.start_time, 0.0)

    @property
    def throughput(self) -> float:
        """Processed (non-dropped) frames per second of *active* simulated time."""
        processed = self.frames_generated - self.frames_dropped
        window = self.active_window
        if window <= 0:
            return 0.0
        return processed / window

    @property
    def mean_latency(self) -> float:
        """Mean dispatch-to-completion latency across every inference.

        Computed from the per-stream streaming accumulators, so it works
        (and costs O(streams), not O(records)) even when the fleet ran with
        ``record_limit=0``.
        """
        count = 0
        latency_sum = 0.0
        for report in self.reports.values():
            count += report._num_records
            latency_sum += report._latency_sum
        if count == 0:
            return 0.0
        return latency_sum / count

    def merge(self, other: "MultiStreamReport") -> "MultiStreamReport":
        """Combine two reports over *disjoint* stream sets into a new one.

        This is the shard-composition operation: per-stream reports are
        unioned, the active window spans both inputs (``start_time`` min /
        ``end_time`` max), event and cache counters are summed, remap
        records are concatenated in time order and ``shards`` adds up.
        Traces do not compose across kernels, so the merged report carries
        none.  Inputs that share a stream name, or that were produced under
        different cost semantics, raise ``ValueError``: either would
        silently mix numbers that do not add up.
        """
        if self.cost_mode != other.cost_mode:
            raise ValueError(
                f"cannot merge reports with different cost modes "
                f"({self.cost_mode!r} != {other.cost_mode!r})"
            )
        shared = self.reports.keys() & other.reports.keys()
        if shared:
            raise ValueError(
                "cannot merge reports over overlapping stream sets "
                f"(shared: {sorted(shared)})"
            )
        reports = {**self.reports, **other.reports}
        cache_info = None
        if self.cache_info is not None or other.cache_info is not None:
            cache_info = {"hits": 0.0, "misses": 0.0, "entries": 0.0}
            for info in (self.cache_info, other.cache_info):
                for key in ("hits", "misses", "entries"):
                    cache_info[key] += (info or {}).get(key, 0.0)
            lookups = cache_info["hits"] + cache_info["misses"]
            cache_info["hit_rate"] = cache_info["hits"] / lookups if lookups else 0.0
        epochs = None
        if self.epochs is not None or other.epochs is not None:
            epochs = list(self.epochs or []) + list(other.epochs or [])
        # A report with no streams is an identity element for the window
        # bounds: its (start, end) must not drag the merged window to 0.
        windows = [r for r in (self, other) if r.reports]
        return MultiStreamReport(
            reports=reports,
            end_time=max((r.end_time for r in windows), default=0.0),
            trace=None,
            cache_info=cache_info,
            remaps=sorted(
                list(self.remaps) + list(other.remaps), key=lambda r: r.time
            ),
            start_time=min((r.start_time for r in windows), default=0.0),
            events_processed=self.events_processed + other.events_processed,
            cost_mode=self.cost_mode,
            shards=self.shards + other.shards,
            epochs=epochs,
            heap_high_water=max(self.heap_high_water, other.heap_high_water),
        )

    @classmethod
    def merged(cls, reports: Sequence["MultiStreamReport"]) -> "MultiStreamReport":
        """Fold :meth:`merge` over a non-empty sequence of shard reports."""
        if not reports:
            raise ValueError("at least one report is required to merge")
        result = reports[0]
        for report in reports[1:]:
            result = result.merge(report)
        return result

    def per_stream_rows(self) -> List[Dict[str, object]]:
        """Table rows (one per stream) for the experiment harnesses."""
        return [
            {
                "stream": name,
                "inferences": report.num_inferences,
                "mean_latency_ms": report.mean_latency * 1e3,
                "frames_generated": report.frames_generated,
                "frames_dropped": report.frames_dropped,
                "energy_j": report.total_energy,
            }
            for name, report in self.reports.items()
        ]


# How a sharded run executes its shards: worker processes or in-process.
SHARD_MODES = ("process", "inline")


class MultiStreamSimulator:
    """Multiplex N heterogeneous traffic streams onto one platform.

    Parameters
    ----------
    platform:
        The shared heterogeneous platform.
    sources:
        The traffic streams.  Stream names must be unique.  Each source's
        ``(start_offset, stop_time)`` window is its churn schedule: the
        stream joins at its offset and leaves at its (possibly truncated)
        end time, so scenario specs with scheduled joins/leaves need no
        extra plumbing here — joins/leaves also drive the remap triggers
        below.
    occupancy_resolution:
        Occupancy bucket width of the shared :class:`LayerCostTable`, which
        builds the default latency and energy models itself.  The
        default (1/64) keeps the modelling error well below the run-to-run
        variation of real hardware while making the per-layer cache hit on
        virtually every inference under heavy traffic.
    max_merge_streams:
        Upper bound on cross-stream batching (1 disables merging).
    remap_policy:
        Optional online traffic-adaptive remapping policy.  When set, a
        :class:`RemapTriggered` event fires at every stream join/leave; the
        :class:`AdaptiveMappingClient` (exposed as :attr:`remap_client`)
        re-runs a budgeted NMP search over the networks active at that
        instant and rebinds the affected cost models.  Only streams whose
        optimization level uses NMP participate.
    record_limit:
        How many of its most recent :class:`~repro.runtime.sim.
        InferenceRecord` entries every stream report retains: ``None``
        (default) keeps the full list, ``0`` keeps none — the memory-lean
        mode for very large fleets; traces still work, but per-record
        analyses need retained records — and ``N`` keeps the newest N.  The
        streaming aggregates keep accounting every record, so report-level
        statistics are unchanged.
    shards:
        Number of platform replicas the fleet runs on (default 1 = the
        in-process path on one platform).  With ``shards = N > 1`` the
        sources are partitioned into at most N groups of whole signatures,
        each group runs to completion on its own platform replica — its
        own :class:`SimulationKernel`, :class:`SignatureServer` set and
        cost tables — and the per-shard reports are merged with
        :meth:`MultiStreamReport.merged`.  Signatures on different shards
        never contend for a PE, so the merged report describes N platforms;
        see :mod:`repro.runtime.shard`.
    shard_mode:
        One of :data:`SHARD_MODES`.  ``"process"`` (default) runs the
        shards in worker processes — falling back to inline execution where
        children are unavailable (daemonic workers); ``"inline"`` runs them
        one after another in-process (deterministic tests, 1-core
        machines) with identical results.
    cost_mode:
        Cost-stack semantics shared by every stream
        (:data:`~repro.runtime.sim.COST_MODES`).  ``"flat"`` (default) is
        the pre-profile scalar path: measured input occupancy on the first
        layer, static modelled sparsity deeper.  ``"profile"`` propagates
        each input's density through the layers and buckets it per layer —
        the recommended mode for mixed-density fleets, where converging
        deep-layer profiles share cost-cache entries across streams and
        DSFA merges (see ``benchmarks/bench_cost_model.py``).

    The execution servers, cost models and stream clients are built from
    the :attr:`server_class`, :attr:`cost_model_class` and
    :attr:`client_class` class attributes, so a subclass can run a fleet on
    alternative implementations of any of them with the construction
    sequence — and therefore the event ordering — of this class.  Sharded
    runs (``shards > 1``) build every shard from this base class.
    """

    server_class = SignatureServer
    cost_model_class = NetworkCostModel
    client_class = StreamClient

    def __init__(
        self,
        platform: Platform,
        sources: Sequence[StreamSource],
        occupancy_resolution: Optional[float] = 1.0 / 64.0,
        max_merge_streams: int = 4,
        remap_policy: Optional[RemapPolicy] = None,
        record_limit: Optional[int] = None,
        cost_mode: str = "flat",
        shards: int = 1,
        shard_mode: str = "process",
    ) -> None:
        if not sources:
            raise ValueError("at least one stream source is required")
        names = [s.name for s in sources]
        if len(set(names)) != len(names):
            raise ValueError("stream names must be unique")
        if cost_mode not in COST_MODES:
            raise ValueError(
                f"unknown cost_mode {cost_mode!r}; expected one of {COST_MODES}"
            )
        if max_merge_streams < 1:
            raise ValueError("max_merge_streams must be >= 1")
        if record_limit is not None and record_limit < 0:
            raise ValueError("record_limit must be >= 0 or None")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if shard_mode not in SHARD_MODES:
            raise ValueError(
                f"unknown shard_mode {shard_mode!r}; expected one of {SHARD_MODES}"
            )
        self.shards = shards
        self.shard_mode = shard_mode
        # The raw per-shard simulator configuration, forwarded verbatim to
        # every shard's MultiStreamSimulator by the sharded runner.
        self._shard_sim_kwargs = dict(
            occupancy_resolution=occupancy_resolution,
            max_merge_streams=max_merge_streams,
            remap_policy=remap_policy,
            record_limit=record_limit,
            cost_mode=cost_mode,
        )
        self.platform = platform
        self.sources = list(sources)
        self.table = LayerCostTable(occupancy_resolution=occupancy_resolution)
        self.max_merge_streams = max_merge_streams
        self.remap_policy = remap_policy
        self.record_limit = record_limit
        self.cost_mode = cost_mode
        self.remap_client = (
            AdaptiveMappingClient(platform, remap_policy)
            if remap_policy is not None
            else None
        )

    # ------------------------------------------------------------------
    def _schedule_remap_triggers(
        self, kernel: SimulationKernel, clients: List[StreamClient]
    ) -> None:
        """One remap trigger per distinct join/leave instant."""
        triggers = {(source.start_offset, "join") for source in self.sources}
        triggers |= {(source.end_time, "leave") for source in self.sources}
        for time, reason in sorted(triggers):
            kernel.schedule(
                RemapTriggered(time=time, reason=reason),
                lambda event: self._on_remap(event, clients),
            )

    def _active_clients(
        self, clients: List[StreamClient], time: float
    ) -> List[StreamClient]:
        """NMP-enabled streams whose [start_offset, end_time) covers ``time``."""
        eps = 1e-12
        return [
            c
            for c in clients
            if c.config.optimization.uses_nmp
            and c.source.start_offset <= time + eps
            and c.source.end_time > time + eps
        ]

    def _on_remap(self, event: RemapTriggered, clients: List[StreamClient]) -> None:
        assert self.remap_client is not None
        active = self._active_clients(clients, event.time)
        if not active:
            return
        current: Dict[str, Assignment] = {}
        for client in active:
            deployed = client.cost_model.mapping
            if deployed is not None:
                current.update(deployed.assignments)
        result = self.remap_client.remap(
            [c.source.network for c in active],
            time=event.time,
            reason=event.reason,
            current_assignments=current,
            stream_names=tuple(c.name for c in active),
        )
        if result is None:
            return
        rebound = set()
        for client in active:
            model = client.cost_model
            if id(model) in rebound:
                continue
            model.rebind(result.best_candidate)
            rebound.add(id(model))

    def run(self, trace: Optional[KernelTrace] = None) -> MultiStreamReport:
        """Simulate all streams to completion and return the traffic report.

        With ``shards > 1`` the fleet is partitioned and each shard runs to
        completion on its own platform replica (:mod:`repro.runtime.shard`);
        the single-shard path below is untouched, so ``shards=1`` is
        bit-identical to the pre-sharding kernel.
        """
        if self.shards > 1:
            if trace is not None:
                raise ValueError(
                    "tracing is not supported with shards > 1: each shard "
                    "runs its own kernel and traces do not compose; run "
                    "shards=1 (or trace a shard's fleet separately) instead"
                )
            from .shard import ShardedSimulator  # local: shard imports streams

            return ShardedSimulator(
                self.platform,
                self.sources,
                shards=self.shards,
                mode=self.shard_mode,
                **self._shard_sim_kwargs,
            ).run()
        kernel, clients, remaps_before = self._setup(trace)
        end_time = kernel.run()
        return self._finalize(kernel, clients, remaps_before, trace, end_time)

    def _setup(
        self, trace: Optional[KernelTrace] = None
    ) -> Tuple[SimulationKernel, List[StreamClient], int]:
        """Build the kernel, servers and clients and prime every stream.

        :meth:`run` is ``_setup``, ``kernel.run()``, :meth:`_finalize`; the
        split lets a caller inspect or step the primed kernel
        (``kernel.run(until=...)``) with exactly the construction sequence —
        and therefore exactly the event ordering — of :meth:`run`.
        """
        kernel = SimulationKernel(trace=trace)
        cost_models: Dict[tuple, NetworkCostModel] = {}
        servers: Dict[tuple, SignatureServer] = {}
        clients: List[StreamClient] = []
        for source in self.sources:
            # Resolve the signature first: constructing (and resolving) a
            # full cost model per source just to discard it when the
            # signature already had a server wastes fleet start-up time.
            signature = NetworkCostModel.signature_for(
                source.network, source.config, source.mapping
            )
            if signature not in servers:
                cost_models[signature] = self.cost_model_class(
                    source.network,
                    self.platform,
                    config=source.config,
                    mapping=source.mapping,
                    table=self.table,
                    cost_mode=self.cost_mode,
                )
                servers[signature] = self.server_class(
                    kernel,
                    cost_models[signature],
                    name=f"server:{source.network.name}:{len(servers)}",
                    max_merge_streams=self.max_merge_streams,
                )
            clients.append(
                self.client_class(
                    source,
                    kernel,
                    executor=servers[signature],
                    cost_model=cost_models[signature],
                    record_limit=self.record_limit,
                )
            )
        remaps_before = 0
        if self.remap_client is not None:
            remaps_before = len(self.remap_client.records)
            self._schedule_remap_triggers(kernel, clients)
        for client in clients:
            client.prime()
        return kernel, clients, remaps_before

    def _finalize(
        self,
        kernel: SimulationKernel,
        clients: List[StreamClient],
        remaps_before: int,
        trace: Optional[KernelTrace],
        end_time: float,
    ) -> MultiStreamReport:
        """Assemble the traffic report of a fully drained kernel."""
        remaps = (
            list(self.remap_client.records[remaps_before:])
            if self.remap_client is not None
            else []
        )
        return MultiStreamReport(
            reports={c.name: c.report for c in clients},
            end_time=end_time,
            trace=trace,
            cache_info=self.table.cache_info(),
            remaps=remaps,
            start_time=min(s.start_offset for s in self.sources),
            events_processed=kernel.events_processed,
            cost_mode=self.cost_mode,
            heap_high_water=kernel.heap_high_water,
        )
