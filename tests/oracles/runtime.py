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
* :class:`EagerPrimeClient` — the horizon-wide arrival discipline the
  per-stream arrival cursors replaced: every ``FrameReady`` of the stream
  is heaped at prime time.
* :class:`RerunMappingClient` — the remap client before search memoization
  and per-network profiles: every remap runs the search, on an engine whose
  profile comes from the joint multi-task graph.

The server and cost-model oracles implement the *current*
accounting semantics (per-member latency shares, the queued-service
backlog estimate) on the *old* data structures — they isolate the
performance refactor, not the accounting bugfixes, so the equivalence tests
compare like with like.

Oracle fleets run on :class:`~repro.runtime.streams.MultiStreamSimulator`
subclasses that swap one component each (:class:`LegacySimulator`,
:class:`ScalarCostSimulator`, :class:`EagerSimulator`,
:class:`PerFrameReferenceSimulator`, :class:`RerunRemapSimulator`).  Like
:func:`~oracles.nmp.schedule_reference` for the NMP fast path, this is
deliberately unoptimized verification code.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.core.e2sf import Event2SparseFrameConverter
from repro.core.nmp.candidate import Assignment, MappingCandidate
from repro.core.nmp.search import EvolutionaryStrategy, MapperEngine, NMPResult
from repro.frames.sparse import SparseFrame
from repro.hw.energy import EnergyModel
from repro.hw.latency import LatencyModel
from repro.hw.pe import Platform
from repro.hw.profiler import ProfileEntry, ProfileTable
from repro.nn.graph import MultiTaskGraph, TaskSpec
from repro.nn.occupancy import OccupancyProfile
from repro.nn.quantization import Precision
from repro.runtime.executor import SignatureServer, _PendingDispatch
from repro.runtime.sim import (
    DispatchBatch,
    FrameReady,
    InferenceDone,
    NetworkCostModel,
    QueueEvict,
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
from .occupancy import propagate_occupancy_chain

__all__ = [
    "LegacyListServer",
    "ScalarCostModel",
    "ChainCostModel",
    "generate_frames_reference",
    "PerFrameReferenceClient",
    "EagerPrimeClient",
    "RerunMappingClient",
    "LegacySimulator",
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

    @property
    def pending_count(self) -> int:
        return len(self._pending_list)

    def pending_entries(self) -> List[_PendingDispatch]:
        return list(self._pending_list)

    def dispatch(self, client, batch, time: float) -> None:
        busy = self.busy_until(client)
        if not self._pending_list and busy <= time:
            self._execute([_PendingDispatch(client, batch, time)], time)
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
        self.kernel.schedule(
            InferenceDone(time=max(busy, time), stream=self.name, records=()),
            self._on_done,
        )

    def _on_done(self, event: InferenceDone) -> None:
        if not self._pending_list:
            return
        busy = self.busy_until()
        if busy > event.time:
            self.kernel.schedule(
                InferenceDone(time=busy, stream=self.name, records=()),
                self._on_done,
            )
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
        self._execute(members, event.time)


class ScalarCostModel(NetworkCostModel):
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
        return OccupancyProfile.from_graph(self.network, occ_key)

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


class ChainCostModel(NetworkCostModel):
    """The pre-graph *chain-propagated* cost stack, kept alive as an oracle.

    Identical to :class:`~repro.runtime.sim.NetworkCostModel` in every
    architectural respect (per-layer bucketing, layered memoization) but
    builds its profiles with the serial chain walk
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
        return raw.bucketed(self.table.bucket)


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


class EagerPrimeClient(StreamClient):
    """The horizon-wide arrival discipline: every arrival heaped at prime.

    Each ``FrameReady`` takes its sequence number from the kernel's counter
    at prime time, with no reservation and no churn clamp.  The production
    client's cursor reserves the same block and reschedules successors
    lazily; both must produce bit-identical reports, while this client's
    kernel heap grows with the horizon instead of the stream count.
    """

    def prime(self) -> None:
        stack, _ = self.source.generate_stack()
        arrivals = self.source.arrival_times()
        count = 0 if stack is None else len(stack)
        self._stack = stack
        self._arrivals = arrivals
        # A cursor at the end: the inherited frame handler never reschedules.
        self._num_frames = self._cursor = count
        self.report.frames_generated += count
        for i in range(count):
            self.kernel.schedule(
                FrameReady(time=arrivals[i], stream=self.name, stack=stack, index=i),
                self._on_frame,
            )
        last_arrival = arrivals[count - 1] if count else self.source.start_offset
        self.kernel.schedule(
            StreamEnd(time=max(self.source.end_time, last_arrival), stream=self.name),
            self._on_stream_end,
        )


class PerFrameReferenceClient(StreamClient):
    """The fully per-frame transport: reference render, frames, reference DSFA.

    Frames come from :func:`generate_frames_reference` (not the columnar
    render) and are primed horizon-wide; each ``FrameReady`` carries the
    frame's position in that list, and the handler pushes the frame object
    itself into a :class:`~oracles.frames.ReferenceAggregator` (or
    dispatches it as a one-frame batch without DSFA).  Reports must be bit-identical to the
    production stack transport.
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
                self.kernel.schedule(
                    DispatchBatch(time=arrival, stream=self.name, batch=batch),
                    self._on_dispatch,
                )
            return
        backlog = self.executor.backlog_estimate(self, arrival)
        if backlog > self.queue_depth * max(self._last_duration, 1e-9):
            self.report.frames_dropped += 1
            self.kernel.schedule(
                QueueEvict(time=arrival, stream=self.name, num_frames=1, reason="backlog")
            )
            return
        self.kernel.schedule(
            DispatchBatch(time=arrival, stream=self.name, batch=frame_batch([frame])),
            self._on_dispatch,
        )


def _profile_joint(graph: MultiTaskGraph, platform: Platform) -> ProfileTable:
    """The profile table of ``graph``, every sparse entry at occupancy 0.1."""
    latency_model = LatencyModel()
    energy_model = EnergyModel(latency_model)
    table = ProfileTable(platform)
    for node in graph.compute_nodes():
        spec = graph.spec(node)
        for pe in [pe for pe in platform if pe.supports_layer(spec)]:
            modes = (False, True) if pe.supports_sparse else (False,)
            for precision, sparse in itertools.product(pe.supported_precisions, modes):
                latency = latency_model.layer_latency(
                    spec, pe, precision, sparse=sparse, occupancy=0.1
                ).total
                energy = energy_model.layer_energy(
                    spec, pe, precision, sparse=sparse, occupancy=0.1
                ).total
                table.record(
                    node, pe.name, precision, sparse, ProfileEntry(latency, energy)
                )
    return table


class RerunMappingClient:
    """A remap client that runs the NMP search on every remap.

    One :class:`MapperEngine` per network set, profiled from the set's joint
    :class:`MultiTaskGraph` at activation occupancy 0.1, and no memo of
    whole searches.  :class:`~repro.runtime.streams.AdaptiveMappingClient`,
    with its search memo and per-network profile union, must return the
    same results bit for bit.
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
                _profile_joint(graph, self.platform),
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


class ScalarCostSimulator(MultiStreamSimulator):
    """A fleet costed by the scalar-keyed cost stack."""

    cost_model_class = ScalarCostModel


class EagerSimulator(MultiStreamSimulator):
    """A fleet primed horizon-wide instead of through arrival cursors."""

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
