"""Full-trace identity of the production kernel and the all-heap oracle.

Production heaps only the work that waits during a run: frame arrivals
are registered as columns, and the kernel merges them once with every
event scheduled before the run; same-time dispatches and evictions are
processed in place; and an execution's completions share one heap entry.
The all-heap oracle (``EagerSimulator`` in ``tests/oracles``) heaps every
arrival at prime, every event scheduled before the run, every dispatch and
eviction, and each completion on its own.  Both must process the same
events in the same order, so every
:class:`~repro.runtime.tracer.KernelTrace` entry — time, kind, stream,
detail and profile — must match entry for entry, along with the event
count and the report.  Only the heap high-water mark differs.
"""

from __future__ import annotations

import pytest

import repro.core.pipeline as pipeline_module
from repro.core import EvEdgeConfig, EvEdgePipeline, OptimizationLevel
from repro.core.nmp.search import NMPConfig
from repro.events import generate_sequence
from repro.hw import jetson_xavier_agx
from repro.models import build_network
from repro.runtime import (
    KernelTrace,
    MultiStreamSimulator,
    RemapPolicy,
    SimulationKernel,
    StreamSource,
)
from repro.scenarios import default_registry

from oracles.runtime import EagerPrimeClient, EagerSimulator
from test_kernel_equivalence import assert_reports_identical
from test_sim_kernel import _contended_fleet

FLEET = dict(num_streams=16, duration=0.3, scale=0.1, num_bins=4)
LEVELS = (None, "e2sf", "e2sf+dsfa+nmp")
REMAP = RemapPolicy(nmp_config=NMPConfig(population_size=4, generations=2, seed=0))


@pytest.fixture(scope="module")
def platform():
    return jetson_xavier_agx()


def _traced(simulator_class, platform, sources, **kwargs):
    trace = KernelTrace()
    report = simulator_class(platform, sources, **kwargs).run(trace=trace)
    return report, trace


def assert_same_trace(platform, sources, **kwargs):
    """Production and the all-heap oracle agree entry for entry; returns
    the production trace's event counts."""
    report, trace = _traced(MultiStreamSimulator, platform, sources, **kwargs)
    oracle, oracle_trace = _traced(EagerSimulator, platform, sources, **kwargs)
    assert trace.entries == oracle_trace.entries
    assert report.events_processed == oracle.events_processed == len(trace)
    assert_reports_identical(report, oracle)
    assert report.heap_high_water < oracle.heap_high_water
    return trace.counts()


@pytest.mark.parametrize("level", LEVELS, ids=["default", "e2sf", "full+remap"])
def test_every_family_traces_identically(platform, level):
    registry = default_registry()
    params = {} if level is None else {"optimization": level}
    policy = REMAP if level == "e2sf+dsfa+nmp" else None
    seen = {}
    for family in registry.families():
        sources = registry.compile(family, **FLEET, params=params)
        counts = assert_same_trace(
            platform, sources, max_merge_streams=2, remap_policy=policy
        )
        for kind, count in counts.items():
            seen[kind] = seen.get(kind, 0) + count
    # Every inline kind was exercised, and the remap fleets fired remaps.
    assert seen["FrameReady"] and seen["DispatchBatch"]
    if level == "e2sf":
        assert seen["QueueEvict"]
    if policy is not None:
        assert seen["RemapTriggered"]


@pytest.mark.parametrize("max_merge_streams", [1, 2, 4])
def test_contended_fleet_traces_identically(platform, max_merge_streams):
    """Backlog drops, queue-full evictions, merges and server wake-ups."""
    sources, _ = _contended_fleet()
    report, trace = _traced(
        MultiStreamSimulator, platform, sources, max_merge_streams=max_merge_streams
    )
    reasons = {
        entry.detail.split("reason=")[1]
        for entry in trace.entries
        if entry.kind == "QueueEvict"
    }
    assert reasons == {"backlog", "queue-full"}
    assert_same_trace(platform, sources, max_merge_streams=max_merge_streams)


def test_wakeups_on_an_execution_end_trace_identically(platform, monkeypatch):
    """The contended fleet's two servers share the GPU, so one server's
    wake-up lands on the other's execution end: a wake-up and a completion
    group tie on time and priority.  Sequence numbers order them as when
    each completion was heaped, traced and untraced."""
    sources, _ = _contended_fleet()
    groups = []
    schedule_completions = SimulationKernel.schedule_completions

    def recording(kernel, time, completions):
        groups.append((time, len(completions), id(completions[-1][3].__self__)))
        schedule_completions(kernel, time, completions)

    with monkeypatch.context() as patch:
        patch.setattr(SimulationKernel, "schedule_completions", recording)
        untraced = MultiStreamSimulator(platform, sources, max_merge_streams=4).run()
    # An execution's group holds its members and the drain; a wake-up is
    # the drain alone.
    ends = {}
    for time, count, server in groups:
        if count > 1:
            ends.setdefault(time, set()).add(server)
    wakeups = [(time, server) for time, count, server in groups if count == 1]
    assert any(ends.get(time, set()) - {server} for time, server in wakeups)
    assert any(count > 2 for _, count, _ in groups)  # merged executions too
    assert_same_trace(platform, sources, max_merge_streams=4)
    oracle = EagerSimulator(platform, sources, max_merge_streams=4).run()
    assert untraced.events_processed == oracle.events_processed
    assert_reports_identical(untraced, oracle)


@pytest.mark.parametrize(
    "level", [OptimizationLevel.E2SF, OptimizationLevel.E2SF_DSFA]
)
def test_streams_sharing_timestamps_trace_identically(platform, level):
    """Streams replaying one recording at one offset tie on every arrival;
    the merged column breaks each tie in registration order, as the heap
    breaks it by sequence number."""
    sequence = generate_sequence("indoor_flying1", scale=0.12, duration=0.3, seed=0)
    network = build_network("adaptive_spikenet", 128, 128)
    config = EvEdgeConfig(num_bins=4, optimization=level)
    sources = [
        StreamSource(f"twin{i}", sequence, network, config, start_offset=0.002)
        for i in range(3)
    ]
    report, trace = _traced(MultiStreamSimulator, platform, sources)
    arrivals = [e for e in trace.entries if e.kind == "FrameReady"]
    assert [e.stream for e in arrivals[:3]] == ["twin0", "twin1", "twin2"]
    assert arrivals[0].time == arrivals[1].time == arrivals[2].time
    assert_same_trace(platform, sources)


def test_pipeline_traces_identically(monkeypatch):
    """``EvEdgePipeline.run`` on the all-heap oracle client and kernel."""
    sequence = generate_sequence("indoor_flying1", scale=0.12, duration=0.4, seed=0)
    network = build_network("spikeflownet", 64, 64)
    platform = jetson_xavier_agx()
    for level in OptimizationLevel:
        pipeline = EvEdgePipeline(network, platform, EvEdgeConfig(optimization=level))
        trace = KernelTrace()
        report = pipeline.run(sequence, trace=trace)
        with monkeypatch.context() as patch:
            patch.setattr(pipeline_module, "StreamClient", EagerPrimeClient)
            oracle_trace = KernelTrace()
            oracle = pipeline.run(sequence, trace=oracle_trace)
        assert trace.entries == oracle_trace.entries, level
        assert report.records == oracle.records, level
        assert report.frames_dropped == oracle.frames_dropped, level
        assert len(trace) > report.frames_generated, level


def test_oracle_heaps_what_production_delivers(platform):
    """The oracle is not vacuous: its heap holds every arrival at prime."""
    sources = default_registry().compile("steady", **FLEET)
    production = MultiStreamSimulator(platform, sources).run()
    oracle = EagerSimulator(platform, sources).run()
    assert oracle.heap_high_water >= oracle.frames_generated
    # Production heaps only in-flight work: each signature server's
    # pending execution and wake-up, never a StreamEnd or an arrival.
    assert production.heap_high_water <= 2 * len(sources)
    simulator = MultiStreamSimulator(platform, sources)
    _, clients, _ = simulator._setup(None)
    servers = {id(client.executor) for client in clients}
    assert 0 < production.heap_high_water <= 2 * len(servers) + 1 < len(sources)
