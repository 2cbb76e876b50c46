"""Evictions, dispatches and completions are counted, and built only for a
trace; busy frontiers are read from the kernel's busy map.

:meth:`~repro.runtime.sim.SimulationKernel.evict` and
:meth:`~repro.runtime.sim.SimulationKernel.dispatch` count an untraced
eviction or dispatch without building a ``QueueEvict`` or a
``DispatchBatch``, and build and deliver one when a trace is attached.  The
completions of a group
(:meth:`~repro.runtime.sim.SimulationKernel.schedule_completions`) share
one heap entry, and each is built as an ``InferenceDone`` only for a
trace.  Either way the kernel processes the same events, so a traced and
an untraced run of one fleet must count the same events and report
identically.  A signature server reads a single-PE frontier straight from
``SimulationKernel.busy`` and falls back to ``busy_until`` over several
PEs; both must follow every remap.
"""

from __future__ import annotations

import pytest

from repro.frames import FrameStack, SparseFrame, SparseFrameBatch
from repro.hw import jetson_xavier_agx
from repro.runtime import (
    DispatchBatch,
    FrameReady,
    InferenceDone,
    InferenceRecord,
    KernelTrace,
    MultiStreamSimulator,
    QueueEvict,
    RemapPolicy,
    SimulationKernel,
    StreamEnd,
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
def built_events(monkeypatch):
    """Per kind, a list that grows by one for every ``QueueEvict``,
    ``DispatchBatch`` or ``InferenceDone`` constructed."""
    built = {kind: [] for kind in (QueueEvict, DispatchBatch, InferenceDone)}
    for kind, seen in built.items():
        init = kind.__init__

        def counting_init(self, *args, init=init, seen=seen, **kwargs):
            seen.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(kind, "__init__", counting_init)
    return built


@pytest.fixture
def built_evictions(built_events):
    """A list that grows by one for every ``QueueEvict`` constructed."""
    return built_events[QueueEvict]


def _batch() -> SparseFrameBatch:
    stack = FrameStack.from_frames(
        [SparseFrame.from_events([1, 2], [0, 3], [1, -1], 4, 4, 0.0, 0.1)]
    )
    return SparseFrameBatch.from_stack(stack, 0, 1)


def _record(frames: int) -> InferenceRecord:
    return InferenceRecord(0.5, 0.5, 1.0, frames, 0.1, 1.0)


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


class TestKernelDispatch:
    def test_untraced_dispatch_is_counted_and_handed_over(self, built_events):
        kernel = SimulationKernel()
        batch = _batch()
        seen = []

        def handler(dispatched, time):
            seen.append((dispatched, time, kernel.now, kernel.events_processed))

        kernel.dispatch(0.0, "s", batch, handler)
        assert seen == [(batch, 0.0, 0.0, 1)]
        assert kernel.pending_events == 0
        assert built_events[DispatchBatch] == []

    def test_untraced_flush_dispatch_stamps_its_time(self):
        # The end-of-stream flush sits a few ulps before its StreamEnd.
        kernel = SimulationKernel()
        stamps = []

        def on_end(event):
            kernel.dispatch(0.3, "s", _batch(), lambda b, t: stamps.append(kernel.now))

        kernel.schedule(StreamEnd(time=0.30000000000000004, stream="s"), on_end)
        kernel.run()
        assert stamps == [0.3] and kernel.now == 0.3
        assert kernel.events_processed == 2

    def test_traced_dispatch_is_delivered_and_recorded(self, built_events):
        trace = KernelTrace()
        kernel = SimulationKernel(trace=trace)
        seen = []
        kernel.dispatch(0.0, "s", _batch(), lambda b, t: seen.append(len(trace)))
        # The trace records the dispatch before the handler runs.
        assert seen == [1] and kernel.events_processed == 1
        assert len(built_events[DispatchBatch]) == 1
        assert trace.entries == [TraceEntry(0.0, "DispatchBatch", "s", "frames=1")]
        with pytest.raises(ValueError, match="cannot deliver"):
            kernel.dispatch(1.0, "s", _batch(), lambda b, t: seen.append(t))
        assert seen == [1]


class TestKernelCompletions:
    @staticmethod
    def _drive(kernel, calls):
        """An arrival at 0.5 schedules a group of two completions at 1.0
        and a StreamEnd at 1.0 is scheduled before the run."""

        def completion(name):
            return lambda time, records: calls.append(
                (name, time, records, kernel.events_processed)
            )

        def on_arrival(index, time):
            kernel.schedule_completions(
                1.0,
                [
                    ("a", (_record(2),), None, completion("a")),
                    ("srv", (), None, completion("srv")),
                ],
            )
            assert kernel.pending_events == 3

        kernel.add_arrivals([0.5], on_arrival, "a")
        kernel.schedule(StreamEnd(time=1.0, stream="a"))
        assert kernel.pending_events == 2
        return kernel.run()

    def test_a_group_is_one_heap_entry_of_counted_completions(self, built_events):
        kernel = SimulationKernel()
        calls = []
        assert self._drive(kernel, calls) == 1.0
        # Each completion is counted before its handler runs, in order,
        # and both come before the StreamEnd of the same time.
        assert calls == [("a", 1.0, (_record(2),), 2), ("srv", 1.0, (), 3)]
        assert kernel.events_processed == 4
        assert kernel.heap_high_water == 1
        assert built_events[InferenceDone] == []

    def test_traced_group_records_each_completion(self, built_events):
        trace = KernelTrace()
        kernel = SimulationKernel(trace=trace)
        calls = []
        self._drive(kernel, calls)
        assert len(built_events[InferenceDone]) == 2
        assert [(e.kind, e.stream, e.detail) for e in trace.entries] == [
            ("FrameReady", "a", ""),
            ("InferenceDone", "a", "records=1 frames=2"),
            ("InferenceDone", "srv", "records=0 frames=0"),
            ("StreamEnd", "a", ""),
        ]
        assert [events for *_, events in calls] == [2, 3]

    def test_scheduling_a_group_into_the_past_raises(self):
        kernel = SimulationKernel()
        kernel.schedule(StreamEnd(time=1.0, stream="s"))
        kernel.run()
        with pytest.raises(ValueError, match="cannot schedule InferenceDone"):
            kernel.schedule_completions(0.5, [("s", (), None, lambda t, r: None)])


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


def test_only_a_traced_run_builds_dispatches_and_completions(platform, built_events):
    sources, _ = _contended_fleet()
    untraced = MultiStreamSimulator(platform, sources).run()
    assert untraced.total_inferences > 0
    assert built_events[DispatchBatch] == built_events[InferenceDone] == []
    trace = KernelTrace()
    traced = MultiStreamSimulator(platform, sources).run(trace=trace)
    counts = trace.counts()
    assert len(built_events[DispatchBatch]) == counts["DispatchBatch"] > 0
    assert len(built_events[InferenceDone]) == counts["InferenceDone"] > 0
    assert traced.events_processed == untraced.events_processed == len(trace)
    assert traced.heap_high_water == untraced.heap_high_water


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
