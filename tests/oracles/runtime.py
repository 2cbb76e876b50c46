"""Reference implementations of the runtime, kept as equivalence oracles.

Every refactor of the runtime hot path was required to be
*report-identical*: the same fleet and seed must produce bit-identical
:class:`~repro.runtime.streams.MultiStreamReport` aggregates before and
after.  This module keeps the pre-refactor implementations alive so those
claims stay machine-checked:

* :class:`LegacyListServer` — one flat pending list per server with
  O(queue) scans for enqueue bounding and distinct-stream merge selection,
  plus one scheduled wake-up per enqueued dispatch (the event storm the
  refactor coalesces).
* :class:`ReferenceCostModel` (on :class:`ReferenceLayerCostTable`) — the
  object-walking cost stack the compiled
  :class:`~repro.runtime.sim.NetworkCostModel` replaced: one profile per
  member frame combined with :meth:`OccupancyProfile.combine`, layer cells
  hashed on ``(LayerSpec, pe, precision, sparse, bucket, batch)`` and
  re-bucketed per lookup, two roofline evaluations per miss.  The compiled
  stack must match it bit for bit; the next two oracles build on it.
* :class:`ScalarCostModel` — the pre-profile *scalar-keyed* cost stack.  In
  ``cost_mode="flat"`` it is the pre-profile path itself (measured input
  occupancy on the first layer, static modelled sparsity deeper) and must
  produce bit-identical ``MultiStreamReport`` aggregates to the layered
  stack running a uniform (flat) profile — the equivalence mode of the
  per-layer occupancy refactor.  In ``cost_mode="profile"`` it applies the
  *same* propagated semantics but keeps the old caching architecture:
  per-layer occupancies derive from the single quantized input bucket and
  are keyed **raw** (no per-layer bucketing), so every distinct input
  bucket mints its own copy of every layer cell — the memo-thrashing
  behaviour the layered stack's cache hit-rate is tested against.
* :class:`ChainCostModel` — the pre-graph *chain-propagated* cost stack
  on the layered caching architecture: profiles come from the serial topo
  chain walk instead of graph propagation.  The divergence tests use it
  to pin that graph propagation is bit-identical on serial networks and
  diverges exactly at DAG join nodes.
* :func:`generate_frames_reference` — the per-interval render loop the
  columnar :meth:`~repro.runtime.streams.StreamSource.generate_stack`
  replaced.
* :class:`PerFrameReferenceClient` — the per-frame transport: frames from
  :func:`generate_frames_reference`, one frame object per ``FrameReady``,
  pushed into the per-frame DSFA
  (:class:`~oracles.frames.ReferenceAggregator`).
* :class:`EagerPrimeClient` on :class:`AllHeapKernel` — the all-heap
  discipline that arrival columns and inline delivery replaced: every
  ``FrameReady`` of the stream is heaped at prime time, and every
  dispatch production delivers inline and every eviction it counts is
  heaped and popped.
* :class:`RerunMappingClient` — the remap client before search memoization
  and its shared cost table: every remap runs the search, on an engine
  that prices layers from a fresh table of its own.

The server and cost-model oracles implement the *current*
accounting semantics (per-member latency shares, the queued-service
backlog estimate) on the *old* data structures — they isolate the
performance refactor, not the accounting bugfixes, so the equivalence tests
compare like with like.

Oracle fleets run on :class:`~repro.runtime.streams.MultiStreamSimulator`
subclasses that swap one component each (:class:`LegacySimulator`,
:class:`ReferenceCostSimulator`, :class:`ScalarCostSimulator`,
:class:`EagerSimulator`, :class:`PerFrameReferenceSimulator`,
:class:`RerunRemapSimulator`).  Like
:func:`~oracles.nmp.schedule_reference` for the NMP fast path, this is
deliberately unoptimized verification code.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Optional, Tuple

from repro.core.e2sf import Event2SparseFrameConverter
from repro.core.nmp.candidate import Assignment, MappingCandidate
from repro.core.nmp.search import EvolutionaryStrategy, MapperEngine, NMPResult
from repro.frames.sparse import SparseFrame
from repro.hw.energy import EnergyModel
from repro.hw.latency import LatencyModel
from repro.hw.pe import Platform, ProcessingElement
from repro.nn.graph import MultiTaskGraph, TaskSpec
from repro.nn.layers import LayerSpec
from repro.nn.occupancy import OccupancyProfile
from repro.nn.quantization import Precision
from repro.runtime.executor import SignatureServer, _PendingDispatch, execute
from repro.runtime.sim import (
    BASELINE_PRECISION,
    DispatchBatch,
    FrameReady,
    InferenceDone,
    LayerCost,
    LayerCostTable,
    NetworkCostModel,
    QueueEvict,
    SimulationKernel,
    StreamEnd,
)
from repro.runtime.streams import (
    MultiStreamSimulator,
    RemapPolicy,
    RemapRecord,
    StreamClient,
    StreamSource,
)

from .frames import ReferenceAggregator, convert_sequence, frame_batch
from .hw import layer_energy_reference
from .occupancy import propagate_occupancy_chain, propagate_occupancy_nodes

__all__ = [
    "LegacyListServer",
    "ReferenceLayerCostTable",
    "ReferenceCostModel",
    "bucketed",
    "ScalarCostModel",
    "ChainCostModel",
    "generate_frames_reference",
    "PerFrameReferenceClient",
    "AllHeapKernel",
    "EagerPrimeClient",
    "RerunMappingClient",
    "LegacySimulator",
    "ReferenceCostSimulator",
    "ScalarCostSimulator",
    "EagerSimulator",
    "PerFrameReferenceSimulator",
    "RerunRemapSimulator",
]


class LegacyListServer(SignatureServer):
    """Flat-list pending queue with per-dispatch wake-ups.

    The accounting operations (eviction order, service-estimate running
    sum, merge member order) are performed in exactly the same order as the
    indexed implementation, so the two produce bit-identical reports; only
    the data-structure costs differ.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._pending_list: List[_PendingDispatch] = []
        self._legacy_seq = itertools.count()

    def pending_entries(self) -> List[_PendingDispatch]:
        return list(self._pending_list)

    def dispatch(self, client, batch, time: float) -> None:
        busy = self.busy_until(client)
        if not self._pending_list and busy <= time:
            self._run([_PendingDispatch(client, batch, time)], time)
            return
        mine = [p for p in self._pending_list if p.client is client]
        if len(mine) >= client.queue_depth:
            oldest = mine[0]
            self._pending_list.remove(oldest)
            self._pending_service -= oldest.service_estimate
            client.report.frames_dropped += len(oldest.batch)
            self.kernel.schedule(
                QueueEvict(
                    time=time,
                    stream=client.name,
                    num_frames=len(oldest.batch),
                    reason="queue-full",
                )
            )
        entry = _PendingDispatch(
            client, batch, time, next(self._legacy_seq), max(client.last_duration, 0.0)
        )
        self._pending_list.append(entry)
        self._pending_service += entry.service_estimate
        # One wake-up per enqueued dispatch: the pre-refactor event storm.
        self.kernel.schedule_completions(max(busy, time), [self._drain])

    def _on_done(self, time: float, records: tuple) -> None:
        if not self._pending_list:
            return
        busy = self.busy_until()
        if busy > time:
            self.kernel.schedule_completions(busy, [self._drain])
            return
        members: List[_PendingDispatch] = []
        remaining: List[_PendingDispatch] = []
        taken = set()
        for entry in self._pending_list:
            client_id = id(entry.client)
            if client_id not in taken and len(taken) < self.max_merge_streams:
                taken.add(client_id)
                members.append(entry)
            else:
                remaining.append(entry)
        self._pending_list = remaining
        for member in members:
            self._pending_service -= member.service_estimate
        self._run(members, time)

    def _run(self, members: List[_PendingDispatch], time: float) -> None:
        pes = self.cost_model.pes_used
        execute(self.kernel, self.cost_model, pes, members, time, self._drain)


class ReferenceLayerCostTable(LayerCostTable):
    """The layer-cost memo keyed on objects, as it was before cell interning.

    :meth:`layer_cost` hashes the full ``(layer, pe name, precision, sparse,
    occupancy-bucket, batch)`` key on every lookup, re-buckets the
    occupancy each time (``quantize=True``) or keys it raw
    (``quantize=False``, for the scalar-keyed stack), and evaluates the
    roofline twice per miss (latency, then the pre-estimate energy
    formula).  Hit/miss counting and table size follow the same rules as
    the compiled table, so ``cache_info()`` must agree.
    """

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
        energy = layer_energy_reference(
            self.latency_model,
            layer,
            pe,
            precision,
            sparse=sparse,
            occupancy=occ,
            batch=batch,
        ).total
        cost = LayerCost(latency, energy)
        self._cache[key] = cost
        return cost


def bucketed(profile: OccupancyProfile, bucket) -> OccupancyProfile:
    """Quantize every entry of ``profile`` with ``bucket``."""
    return OccupancyProfile(bucket(e) for e in profile.entries)


class ReferenceCostModel(NetworkCostModel):
    """The object-walking cost stack, kept alive as the compiled stack's oracle.

    Resolves a list of ``(spec, pe, precision)`` assignments instead of
    table cells, by per-layer name lookups on every rebind (no memo of
    compiled resolutions), and keeps one whole-network cost memo per
    mapping key, the ``(pe, precision value)`` each layer is assigned
    before the GPU fallback; propagates input buckets with the per-node graph walk
    (:func:`~oracles.occupancy.propagate_occupancy_nodes`); builds one
    :class:`OccupancyProfile` per member frame of a merged dispatch and
    combines them with :meth:`OccupancyProfile.combine` before bucketing;
    and costs a profile by walking the assignments through
    :meth:`ReferenceLayerCostTable.layer_cost`, which re-buckets each
    entry.  Reports, profiles, latency and energy floats and
    ``cache_info()`` must equal the compiled
    :class:`~repro.runtime.sim.NetworkCostModel` bit for bit.

    Three hooks let the other oracles vary one aspect each:
    :meth:`_build_profile` (how an input bucket's profile is built),
    :meth:`_bucket_profile` (how a combined profile is quantized) and
    :attr:`_quantize_layers` (whether layer cells re-bucket entries).
    """

    def __init__(
        self,
        network,
        platform,
        config=None,
        mapping=None,
        table=None,
        cost_mode="flat",
    ) -> None:
        if table is not None and not isinstance(table, ReferenceLayerCostTable):
            raise TypeError("the object-walking stack needs a ReferenceLayerCostTable")
        self._memos: Dict[tuple, Dict[tuple, Tuple[float, float]]] = {}
        super().__init__(
            network,
            platform,
            config=config,
            mapping=mapping,
            table=table if table is not None else ReferenceLayerCostTable(),
            cost_mode=cost_mode,
        )

    def _assignment_for(self, node_name: str) -> Tuple[ProcessingElement, Precision]:
        """(pe, precision) of one layer under the active mapping."""
        gpu = self.platform.gpu()
        if self.mapping is None or not self.config.optimization.uses_nmp:
            return gpu, BASELINE_PRECISION
        full_node = f"{self.network.name}.{node_name}"
        if full_node in self.mapping:
            assignment = self.mapping[full_node]
        elif node_name in self.mapping:
            assignment = self.mapping[node_name]
        else:
            return gpu, BASELINE_PRECISION
        return self.platform.pe(assignment.pe), assignment.precision

    def _resolve(self) -> None:
        self._assignments: List[Tuple[LayerSpec, ProcessingElement, Precision]] = []
        mapping_key = []
        for spec in self._specs:
            pe, precision = self._assignment_for(spec.name)
            mapping_key.append((pe.name, precision.value))
            if not pe.supports_layer(spec):
                pe = self.platform.gpu()
            self._assignments.append((spec, pe, precision))
        self._cache = self._memos.setdefault(tuple(mapping_key), {})
        seen: List[str] = []
        for _, pe, _ in self._assignments:
            if pe.name not in seen:
                seen.append(pe.name)
        self.pes_used = tuple(seen)

    def _build_profile(self, occ_key: Optional[float]) -> OccupancyProfile:
        num_layers = len(self._assignments)
        if self.cost_mode == "flat" or occ_key is None or num_layers <= 1:
            return OccupancyProfile.flat(occ_key, num_layers)
        raw = OccupancyProfile(propagate_occupancy_nodes(self.network, occ_key))
        return bucketed(raw, self.table.bucket)

    def occupancy_profile(self, occupancy: Optional[float]) -> OccupancyProfile:
        occ_key = self.table.bucket(occupancy)
        profile = self._profiles.get(occ_key)
        if profile is None:
            profile = self._build_profile(occ_key)
            self._profiles[occ_key] = profile
        return profile

    def densities_profile(self, densities, occupancy: float) -> OccupancyProfile:
        occupancy = max(float(occupancy), 1e-4)
        if self.cost_mode == "flat" or not self.uses_sparse or len(densities) <= 1:
            return self.occupancy_profile(occupancy)
        members = [
            self.occupancy_profile(max(density, 1e-4)) for density in densities
        ]
        return self._bucket_profile(OccupancyProfile.combine(members))

    def _bucket_profile(self, profile: OccupancyProfile) -> OccupancyProfile:
        return bucketed(profile, self.table.bucket)

    # Whether profile entries are snapped to table buckets when costing a
    # layer (entries are bucket representatives already, so this re-buckets
    # them); the scalar-keyed oracle overrides it.
    _quantize_layers = True

    def profile_cost(self, profile: OccupancyProfile, batch: int) -> Tuple[float, float]:
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


class ScalarCostModel(ReferenceCostModel):
    """The pre-profile scalar-keyed cost stack, kept alive as an oracle.

    Two roles:

    * **Equivalence oracle** (``cost_mode="flat"``, the default) — identical
      semantics to the layered stack running a uniform (flat) profile: the
      measured input occupancy drives the first layer and deeper layers use
      their static modelled sparsity, with the whole-network memo keyed on
      the single input bucket.  The report-equivalence tests assert
      bit-identical ``MultiStreamReport`` aggregates between this model and
      the default stack on seeded contended fleets.
    * **Thrash baseline** (``cost_mode="profile"``) — the propagated
      per-layer semantics implemented on the scalar-keyed architecture:
      profiles derive from the quantized input bucket but their entries are
      kept (and keyed) *raw*, with no per-layer bucketing.  Deep-layer
      occupancies of different input buckets are then distinct floats even
      when they have converged to well under a bucket width apart, so every
      input bucket mints its own copy of every layer cell.
      The cost-profile tests gate the cache hit-rate gap between this stack
      and the layered one on mixed-density and DAG fleets.

    """

    def _build_profile(self, occ_key):
        if self.cost_mode != "profile" or occ_key is None:
            return super()._build_profile(occ_key)
        if len(self._assignments) <= 1:
            return super()._build_profile(occ_key)
        # Same graph-propagated semantics as the layered stack — the two
        # models differ *only* in caching architecture — but raw entries:
        # no per-layer bucketing.
        return OccupancyProfile(propagate_occupancy_nodes(self.network, occ_key))

    def _bucket_profile(self, profile):
        # Merge-time combinations stay raw too: the scalar-keyed stack has
        # no per-layer quantization anywhere, including merged dispatches.
        if self.cost_mode == "profile":
            return profile
        return super()._bucket_profile(profile)

    @property
    def _quantize_layers(self) -> bool:
        # Flat mode keys layer cells bucketed, as the scalar path did;
        # profile mode keys the raw propagated occupancies.
        return self.cost_mode != "profile"


class ChainCostModel(ReferenceCostModel):
    """The pre-graph *chain-propagated* cost stack, kept alive as an oracle.

    Identical to :class:`ReferenceCostModel` (and so to
    :class:`~repro.runtime.sim.NetworkCostModel`) in every architectural
    respect (per-layer bucketing, layered memoization) but builds its
    profiles with the serial chain walk
    (:func:`~oracles.occupancy.propagate_occupancy_chain`) instead of
    graph propagation.  The divergence tests pin the graph refactor's
    semantics against it:

    * **serial networks** — graph propagation must be bit-identical to
      this model (every node has at most one predecessor, so the walks
      run the same float ops);
    * **DAG networks** — the models *must* diverge exactly at the join
      nodes, where the chain walk dilates whichever spec happened to
      precede the join in topological order and ignores the other
      branches.
    """

    def _build_profile(self, occ_key):
        num_layers = len(self._assignments)
        if self.cost_mode == "flat" or occ_key is None or num_layers <= 1:
            return OccupancyProfile.flat(occ_key, num_layers)
        specs = [spec for spec, _, _ in self._assignments]
        raw = OccupancyProfile(propagate_occupancy_chain(specs, occ_key))
        return bucketed(raw, self.table.bucket)


def generate_frames_reference(source: StreamSource) -> List[Tuple[float, SparseFrame]]:
    """Render ``source`` with the pre-columnar per-interval loop.

    Frames come from the per-bin loop :func:`~oracles.frames.convert_sequence`
    (one frame object per bin), arrival ``t_end + start_offset``, frames
    arriving after ``stop_time`` dropped — uncached and deliberately
    unoptimized.  The columnar
    :meth:`~repro.runtime.streams.StreamSource.generate_stack` render must
    be bit-identical to it.
    """
    converter = Event2SparseFrameConverter(source.config.num_bins)
    out: List[Tuple[float, SparseFrame]] = []
    for frames in convert_sequence(
        converter, source.sequence.events, source.sequence.frame_timestamps
    ):
        for frame in frames:
            arrival = frame.t_end + source.start_offset
            if source.stop_time is not None and arrival > source.stop_time:
                continue
            out.append((arrival, frame))
    return out


class AllHeapKernel(SimulationKernel):
    """The kernel that heaps every event it processes, traced or not.

    An event scheduled before the first run is heaped (production merges
    it into the arrival column).  :meth:`deliver` heaps the event;
    :meth:`evict` and :meth:`dispatch` heap a ``QueueEvict`` and a
    ``DispatchBatch`` (production counts them in place); and each
    completion of a group is heaped as its own ``InferenceDone``, with
    consecutive sequence numbers (production heaps the group as one
    entry).  An event processed in place is one the heap would pop next,
    and a group's events could have nothing between them, so heaping them
    instead must change nothing: not the order, the counts or a trace
    entry.
    """

    def _enqueue(self, time, priority, event, handler) -> None:
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, priority, seq, event, handler))
        self._heap_high_water = max(self._heap_high_water, len(self._heap))

    def schedule_completions(self, time, completions) -> None:
        for stream, records, profile, handler in completions:
            self.schedule(
                InferenceDone(time, stream, records, profile),
                lambda event, handler=handler: handler(event.time, event.records),
            )

    def deliver(self, event, handler=None) -> None:
        self.schedule(event, handler)

    def evict(self, time, stream, num_frames, reason) -> None:
        self.schedule(QueueEvict(time, stream, num_frames, reason))

    def dispatch(self, time, stream, batch, handler) -> None:
        self.schedule(
            DispatchBatch(time, stream, batch),
            lambda event: handler(event.batch, event.time),
        )


class EagerPrimeClient(StreamClient):
    """The all-heap discipline: every arrival heaped at prime, every
    dispatch and eviction heaped when it happens.

    Each ``FrameReady`` takes its sequence number from the kernel's counter
    at prime time and is popped like any other event; the production
    client registers the same arrivals as a column that the kernel merges
    once.  The client turns the kernel it is given (which the signature
    servers share) into an :class:`AllHeapKernel`, so what production
    delivers inline or only counts is heaped too.  Reports, event counts and traces must
    be identical to production, while this kernel's heap grows with the
    horizon instead of the stream count.
    """

    def __init__(self, source, kernel, *args, **kwargs) -> None:
        kernel.__class__ = AllHeapKernel
        super().__init__(source, kernel, *args, **kwargs)

    def prime(self) -> None:
        stack, arrivals = self.source.generate_stack()
        self._stack = stack
        count = len(arrivals)
        self.report.frames_generated += count
        for i, arrival in enumerate(arrivals.tolist()):
            self.kernel.schedule(
                FrameReady(time=arrival, stream=self.name, stack=stack, index=i),
                self._on_frame,
            )
        last_arrival = float(arrivals[-1]) if count else self.source.start_offset
        self.kernel.schedule(
            StreamEnd(time=max(self.source.end_time, last_arrival), stream=self.name),
            self._on_stream_end,
        )

    def _on_frame(self, event: FrameReady) -> None:
        """Adapter: a popped ``FrameReady`` reaches the production handler."""
        self._on_arrival(event.index, event.time)


class PerFrameReferenceClient(StreamClient):
    """The fully per-frame transport: reference render, frames, reference DSFA.

    Frames come from :func:`generate_frames_reference` (not the columnar
    render) and are primed horizon-wide; each ``FrameReady`` carries the
    frame's position in that list, and the handler pushes the frame object
    itself into a :class:`~oracles.frames.ReferenceAggregator` (or
    dispatches it as a one-frame batch without DSFA); dispatches and
    evictions are delivered inline, as production delivers them.  Reports
    must be bit-identical to the production stack transport.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.aggregator is not None:
            self.aggregator = ReferenceAggregator(self.config.dsfa)
        self._frames: List[SparseFrame] = []

    def prime(self) -> None:
        rendered = generate_frames_reference(self.source)
        self._frames = [frame for _, frame in rendered]
        self.report.frames_generated += len(rendered)
        for i, (arrival, _) in enumerate(rendered):
            self.kernel.schedule(
                FrameReady(time=arrival, stream=self.name, index=i), self._on_frame
            )
        last_arrival = rendered[-1][0] if rendered else self.source.start_offset
        self.kernel.schedule(
            StreamEnd(time=max(self.source.end_time, last_arrival), stream=self.name),
            self._on_stream_end,
        )

    def _on_frame(self, event: FrameReady) -> None:
        frame = self._frames[event.index]
        arrival = event.time
        if self.aggregator is not None:
            batch = self.aggregator.push(
                frame, hardware_available=arrival >= self.executor.busy_until(self)
            )
            if batch is not None:
                self.report.frames_merged += len(batch)
                self.kernel.dispatch(arrival, self.name, batch, self._on_dispatch)
            return
        backlog = self.executor.backlog_estimate(self, arrival)
        if backlog > self.queue_depth * max(self._last_duration, 1e-9):
            self.report.frames_dropped += 1
            self.kernel.deliver(
                QueueEvict(time=arrival, stream=self.name, num_frames=1, reason="backlog")
            )
            return
        self.kernel.dispatch(
            arrival, self.name, frame_batch([frame]), self._on_dispatch
        )


class RerunMappingClient:
    """A remap client that runs the NMP search on every remap.

    One :class:`MapperEngine` per network set, each on a fresh
    :class:`LayerCostTable`, and no memo of whole searches.
    :class:`~repro.runtime.streams.AdaptiveMappingClient`, with its search
    memo and one table shared by all its engines, must return the same
    results bit for bit.
    """

    def __init__(self, platform: Platform, policy: RemapPolicy) -> None:
        self.platform = platform
        self.policy = policy
        self._engines: Dict[Tuple[str, ...], MapperEngine] = {}
        self.records: List[RemapRecord] = []

    def remap(
        self,
        networks,
        time: float = 0.0,
        reason: str = "join",
        current_assignments=None,
        stream_names: Tuple[str, ...] = (),
    ) -> Optional[NMPResult]:
        unique = {}
        for net in networks:
            unique.setdefault(net.name, net)
        if not unique:
            return None
        key = tuple(sorted(unique))
        if key not in self._engines:
            graph = MultiTaskGraph([TaskSpec(net) for net in unique.values()])
            self._engines[key] = MapperEngine(
                graph,
                self.platform,
                LayerCostTable(),
                config=self.policy.nmp_config,
            )
        engine = self._engines[key]
        gpu = self.platform.gpu()
        precision = (
            Precision.FP16
            if gpu.supports_precision(Precision.FP16)
            else gpu.highest_supported_precision()
        )
        fallback = {
            node: Assignment(gpu.name, precision)
            for node in engine.graph.compute_nodes()
        }
        seeds = [MappingCandidate(fallback)]
        if current_assignments:
            warm = dict(fallback)
            warm.update(
                (node, a) for node, a in current_assignments.items() if node in warm
            )
            seeds.insert(0, MappingCandidate(warm))
        result = engine.run(EvolutionaryStrategy(), initial_candidates=seeds)
        self.records.append(
            RemapRecord(
                time=time,
                reason=reason,
                active_streams=tuple(stream_names),
                networks=tuple(unique),
                best_latency=result.best_latency,
                evaluations=result.requested_evaluations,
                strategy="evolutionary",
            )
        )
        return result


class LegacySimulator(MultiStreamSimulator):
    """A fleet on the flat-list server."""

    server_class = LegacyListServer


class ReferenceCostSimulator(MultiStreamSimulator):
    """A fleet costed by the object-walking cost stack."""

    cost_model_class = ReferenceCostModel

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.table = ReferenceLayerCostTable(self.table.occupancy_resolution)


class ScalarCostSimulator(ReferenceCostSimulator):
    """A fleet costed by the scalar-keyed cost stack."""

    cost_model_class = ScalarCostModel


class EagerSimulator(MultiStreamSimulator):
    """A fleet on the all-heap discipline (:class:`EagerPrimeClient`)."""

    client_class = EagerPrimeClient


class PerFrameReferenceSimulator(MultiStreamSimulator):
    """A fleet on the per-frame transport with the reference DSFA."""

    client_class = PerFrameReferenceClient


class RerunRemapSimulator(MultiStreamSimulator):
    """A fleet whose remaps all run the search (:class:`RerunMappingClient`)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.remap_policy is not None:
            self.remap_client = RerunMappingClient(self.platform, self.remap_policy)
