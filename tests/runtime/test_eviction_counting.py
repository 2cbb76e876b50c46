"""Evictions are counted, and built only for a trace; busy frontiers are
read from the kernel's busy map.

:meth:`~repro.runtime.sim.SimulationKernel.evict` counts an untraced
eviction without building a ``QueueEvict``, and builds and delivers one
when a trace is attached.  Either way the kernel processes the same
events, so a traced and an untraced run of one fleet must count the same
events and report identically.  A signature server reads a single-PE
frontier straight from ``SimulationKernel.busy`` and falls back to
``busy_until`` over several PEs; both must follow every remap.
"""

from __future__ import annotations

import pytest

from repro.hw import jetson_xavier_agx
from repro.runtime import (
    FrameReady,
    KernelTrace,
    MultiStreamSimulator,
    QueueEvict,
    RemapPolicy,
    SimulationKernel,
)
from repro.runtime.tracer import TraceEntry
from repro.scenarios import default_registry

from test_kernel_equivalence import assert_reports_identical
from test_sim_kernel import _contended_fleet
from test_trace_identity import FLEET


@pytest.fixture(scope="module")
def platform():
    return jetson_xavier_agx()


@pytest.fixture
def built_evictions(monkeypatch):
    """A list that grows by one for every ``QueueEvict`` constructed."""
    built = []
    init = QueueEvict.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(QueueEvict, "__init__", counting_init)
    return built


def assert_trace_changes_nothing(platform, sources, trace, **kwargs):
    """An untraced run and a run into ``trace`` count the same events and
    report identically; returns the traced report."""
    untraced = MultiStreamSimulator(platform, sources, **kwargs).run()
    traced = MultiStreamSimulator(platform, sources, **kwargs).run(trace=trace)
    assert untraced.events_processed == traced.events_processed
    assert traced.events_processed == trace.entries_dropped + len(trace.entries)
    assert untraced.heap_high_water == traced.heap_high_water
    assert_reports_identical(untraced, traced)
    return traced


class TestKernelEvict:
    def test_untraced_eviction_is_only_counted(self, built_evictions):
        kernel = SimulationKernel()
        kernel.evict(0.0, "s", 2, "backlog")
        assert kernel.events_processed == 1
        assert kernel.pending_events == 0
        assert built_evictions == []

    def test_traced_eviction_is_delivered_and_recorded(self, built_evictions):
        trace = KernelTrace()
        kernel = SimulationKernel(trace=trace)
        kernel.schedule(FrameReady(time=1.0, stream="s"))
        kernel.run()
        kernel.evict(1.0, "s", 3, "queue-full")
        assert kernel.events_processed == 2
        assert len(built_evictions) == 1
        assert trace.entries[-1] == TraceEntry(
            1.0, "QueueEvict", "s", "frames=3 reason=queue-full"
        )
        # Traced, an eviction goes through deliver and its time check.
        with pytest.raises(ValueError, match="cannot deliver"):
            kernel.evict(2.0, "s", 1, "backlog")


@pytest.mark.parametrize("family", default_registry().families())
def test_family_counts_the_same_events_traced_or_not(platform, family):
    sources = default_registry().compile(
        family, **FLEET, params={"optimization": "e2sf"}
    )
    trace = KernelTrace()
    report = assert_trace_changes_nothing(
        platform, sources, trace, max_merge_streams=2
    )
    # Every dropped frame is in exactly one traced eviction.
    evicted = [e.detail for e in trace.entries if e.kind == "QueueEvict"]
    assert sum(int(d.split()[0].split("=")[1]) for d in evicted) == report.frames_dropped
    assert report.frames_dropped > 0


@pytest.mark.parametrize("max_merge_streams", [1, 2, 4])
def test_contended_fleet_counts_the_same_events_traced_or_not(
    platform, max_merge_streams
):
    sources, _ = _contended_fleet()
    # A one-entry ring: nearly every event is counted as dropped.
    trace = KernelTrace(max_events=1)
    report = assert_trace_changes_nothing(
        platform, sources, trace, max_merge_streams=max_merge_streams
    )
    assert report.frames_dropped > 0
    assert trace.entries_dropped > 0


def test_only_a_traced_run_builds_evictions(platform, built_evictions):
    sources, _ = _contended_fleet()
    untraced = MultiStreamSimulator(platform, sources).run()
    assert untraced.frames_dropped > 0
    assert built_evictions == []
    trace = KernelTrace()
    MultiStreamSimulator(platform, sources).run(trace=trace)
    reasons = {e.detail.split("reason=")[1] for e in trace.entries if e.kind == "QueueEvict"}
    assert reasons == {"backlog", "queue-full"}
    assert len(built_evictions) == trace.counts()["QueueEvict"]


def test_server_frontier_follows_every_remap(platform, monkeypatch):
    """After each remap every server's frontier is the kernel's over the
    PEs its cost model now uses, for single- and multi-PE mappings."""
    sources = default_registry().compile(
        "churn",
        num_streams=8,
        duration=0.3,
        scale=0.1,
        num_bins=4,
        params={"optimization": "e2sf+dsfa+nmp"},
    )
    simulator = MultiStreamSimulator(platform, sources, remap_policy=RemapPolicy())
    kernel, clients, _ = simulator._setup(None)
    servers = list({id(c.executor): c.executor for c in clients}.values())
    pe_sets = {server.name: {server.cost_model.pes_used} for server in servers}
    split_frontiers = []
    on_remap = MultiStreamSimulator._on_remap

    def checked(self, event, windows):
        on_remap(self, event, windows)
        for server in servers:
            pes = server.cost_model.pes_used
            assert server.busy_until() == kernel.busy_until(*pes)
            pe_sets[server.name].add(pes)
            if len({kernel.busy.get(pe, 0.0) for pe in pes}) > 1:
                split_frontiers.append(pes)

    monkeypatch.setattr(MultiStreamSimulator, "_on_remap", checked)
    kernel.run()
    assert simulator.remap_client.records
    # A rebind moved some server onto another PE set, and some check read
    # a mapping whose PEs free up at different times.
    assert any(len(sets) > 1 for sets in pe_sets.values())
    assert split_frontiers and all(len(pes) > 1 for pes in split_frontiers)
