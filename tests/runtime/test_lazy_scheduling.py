"""Arrival columns: equivalence, churn cuts and heap bounds.

Each stream registers its rendered arrivals with the kernel as one column;
the first ``run()`` merges the columns and every event scheduled before it
once, and the run loop takes the column's next entry unless the heap's top
entry comes first.  The resulting ``MultiStreamReport`` must be
bit-identical to the all-heap oracle (``EagerSimulator`` in
``tests/oracles``) across every scenario family, and
``tests/runtime/test_trace_identity.py`` pins the full traces.  The payoff
the suite pins alongside the equivalence: in production the kernel heap
holds only in-flight work, a few entries per signature server whatever the
number of streams or the horizon, while the oracle's heap holds every
frame.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.core  # noqa: F401  (import order: runtime pulls core.nmp lazily)
from repro.hw import jetson_xavier_agx
from repro.runtime import KernelTrace, MultiStreamSimulator, SimulationKernel
from repro.runtime.sim import (
    DispatchBatch,
    FrameReady,
    InferenceDone,
    PipelineReport,
    QueueEvict,
    RemapTriggered,
    StreamEnd,
)
from repro.scenarios import default_registry

from oracles.runtime import AllHeapKernel, EagerSimulator, PerFrameReferenceSimulator
from test_kernel_equivalence import assert_reports_identical

SMALL = dict(num_streams=3, duration=0.3, scale=0.1, num_bins=4)

# A loose heap budget per stream, which the all-heap oracle exceeds.
HEAP_FACTOR = 4


def heap_bound(simulator: MultiStreamSimulator) -> int:
    """In-flight budget of a fleet's kernel heap: each signature server has
    at most one execution's completions and one wake-up waiting, plus one
    spare entry."""
    kernel, clients, _ = simulator._setup(None)
    return 2 * len({id(client.executor) for client in clients}) + 1


def _register(kernel, columns: bool, times, handler, stream: str) -> None:
    """Register ``times`` as a column, or schedule one ``FrameReady`` per
    arrival whose handler calls ``handler(index, time)``."""
    if columns:
        kernel.add_arrivals(times, handler, stream)
        return
    for i, t in enumerate(times):
        kernel.schedule(
            FrameReady(time=t, stream=stream, index=i),
            lambda e: handler(e.index, e.time),
        )


@pytest.fixture(scope="module")
def registry():
    return default_registry()


@pytest.fixture(scope="module")
def platform():
    return jetson_xavier_agx()


def _run(platform, sources, **kwargs):
    return MultiStreamSimulator(platform, sources, **kwargs).run()


class TestLazyEagerEquivalence:
    def test_all_families_all_dataplanes_bit_identical(self, registry, platform):
        """Arrival columns reproduce the all-heap discipline on every
        family, and so does the fully per-frame reference transport."""
        assert len(registry.families()) >= 6
        for family in registry.families():
            sources = registry.compile(family, **SMALL)
            lazy = _run(platform, sources)
            eager = EagerSimulator(platform, sources).run()
            assert lazy.events_processed == eager.events_processed, family
            assert_reports_identical(lazy, eager)
            # The equivalence is not vacuous: lazy runs kept strictly fewer
            # events queued than the horizon-wide prime.
            assert lazy.heap_high_water < eager.heap_high_water, family
            reference = PerFrameReferenceSimulator(platform, sources).run()
            assert_reports_identical(lazy, reference)


class TestArrivalColumns:
    """Kernel-level: columns and the events scheduled before the run merge
    into one column, which interleaves with heaped entries in the exact
    ``(time, priority, seq)`` order of heaping every arrival and event
    (the all-heap oracle kernel)."""

    TIMES = {"s": [0.0, 0.1, 0.1, 0.2], "u": [0.1, 0.2]}

    @staticmethod
    def _drive(columns: bool, until=None):
        """Columns ``s`` and ``u`` around events of all five priorities
        scheduled before the run at the same times (one FrameReady before
        the columns and one after); returns the order in which handlers
        ran.  Without columns, every arrival is a ``FrameReady`` on the
        all-heap kernel."""
        kernel = SimulationKernel() if columns else AllHeapKernel()
        seen = []

        def record(event):
            seen.append((type(event).__name__, event.stream, event.time))

        def arrival(stream):
            return lambda index, time: seen.append(("FrameReady", stream, time, index))

        kernel.schedule(FrameReady(time=0.1, stream="early"), record)
        for stream, times in TestArrivalColumns.TIMES.items():
            _register(kernel, columns, times, arrival(stream), stream)
        kernel.schedule(FrameReady(time=0.1, stream="late"), record)
        kinds = (InferenceDone, QueueEvict, RemapTriggered, DispatchBatch, StreamEnd)
        for kind in kinds:
            for t in (0.1, 0.2):
                kernel.schedule(kind(time=t, stream=kind.__name__), record)
        if until is not None:
            kernel.run(until=until)
            paused = (list(seen), kernel.pending_events)
            kernel.run()
            return seen, paused, kernel
        kernel.run()
        return seen, None, kernel

    def test_columns_and_heaped_events_follow_eager_order(self):
        merged, _, kernel = self._drive(columns=True)
        eager, _, oracle = self._drive(columns=False)
        assert merged == eager
        at_01 = [entry[:2] for entry in merged if entry[2] == 0.1]
        assert at_01 == [
            ("InferenceDone", "InferenceDone"),
            ("QueueEvict", "QueueEvict"),
            ("RemapTriggered", "RemapTriggered"),
            ("DispatchBatch", "DispatchBatch"),
            ("FrameReady", "early"),
            ("FrameReady", "s"),
            ("FrameReady", "s"),
            ("FrameReady", "u"),
            ("FrameReady", "late"),
            ("StreamEnd", "StreamEnd"),
        ]
        # Column arrivals reach their handlers with their own indices.
        assert [e[3] for e in merged if e[0] == "FrameReady" and e[1] == "s"] == [
            0, 1, 2, 3
        ]
        assert kernel.events_processed == oracle.events_processed == len(merged) == 18
        # Everything was scheduled before the run, so production merged it
        # all into the column and heaped nothing; the oracle heaped it all.
        assert kernel.heap_high_water == 0
        assert oracle.heap_high_water == 18

    def test_run_until_mid_column_then_run_gives_the_same_order(self):
        full = self._drive(columns=True)[0]
        for until in (0.0, 0.05, 0.1, 0.15, 0.2):
            resumed, (paused, pending), kernel = self._drive(columns=True, until=until)
            eager = self._drive(columns=False, until=until)
            eager_paused, eager_pending = eager[1]
            assert resumed == full, until
            assert paused == eager_paused == [e for e in full if e[2] <= until], until
            # Pre-run events still in the column count as pending.
            assert pending == eager_pending == len(full) - len(paused), until
            assert kernel.pending_events == 0
            assert kernel.heap_high_water == 0

    def test_events_scheduled_in_the_run_tie_with_merged_entries(self):
        """What a handler schedules is heaped and ties with pre-run events,
        arrivals and a completion group on ``(priority, seq)``, as on the
        all-heap kernel."""

        def drive(columns: bool):
            kernel = SimulationKernel() if columns else AllHeapKernel()
            seen = []

            def record(event):
                seen.append((type(event).__name__, event.stream))

            def complete(time, records):
                seen.append(("InferenceDone", records or "drain", time))

            def on_arrival(index, time):
                seen.append(("FrameReady", f"col{index}"))
                if index == 0:
                    for kind in (StreamEnd, FrameReady, QueueEvict):
                        event = kind(time=0.2, stream=f"run-{kind.__name__}")
                        kernel.schedule(event, record)
                    kernel.schedule_completions(
                        0.2, [("g", ("r",), None, complete), ("g", (), None, complete)]
                    )

            for kind in (StreamEnd, FrameReady, InferenceDone, RemapTriggered):
                kernel.schedule(kind(time=0.2, stream=f"pre-{kind.__name__}"), record)
            _register(kernel, columns, [0.1, 0.2], on_arrival, "col")
            paused = (kernel.run(until=0.1), kernel.pending_events)
            kernel.run()
            return seen, paused, kernel

        merged, paused, kernel = drive(columns=True)
        eager, eager_paused, oracle = drive(columns=False)
        assert merged == eager
        assert merged == [
            ("FrameReady", "col0"),
            ("InferenceDone", "pre-InferenceDone"),
            ("InferenceDone", ("r",), 0.2),
            ("InferenceDone", "drain", 0.2),
            ("RemapTriggered", "pre-RemapTriggered"),
            ("QueueEvict", "run-QueueEvict"),
            ("FrameReady", "pre-FrameReady"),
            ("FrameReady", "col1"),
            ("FrameReady", "run-FrameReady"),
            ("StreamEnd", "pre-StreamEnd"),
            ("StreamEnd", "run-StreamEnd"),
        ]
        # At 0.1: four pre-run events, one arrival, three heaped events and
        # a group of two are pending.
        assert paused == eager_paused == (0.1, 10)
        assert kernel.events_processed == oracle.events_processed == 11
        # Only the arrival handler's three events and one group were heaped;
        # the oracle heaped all ten pending events at once.
        assert kernel.heap_high_water == 4
        assert oracle.heap_high_water == 10

    def test_registering_after_run_raises(self):
        kernel = SimulationKernel()
        kernel.add_arrivals([0.5], lambda index, time: None)
        kernel.run(until=0.1)
        assert kernel.pending_events == 1
        with pytest.raises(RuntimeError, match="before the first run"):
            kernel.add_arrivals([1.0], lambda index, time: None)
        kernel.run()
        assert kernel.events_processed == 1

    def test_empty_columns(self):
        kernel = SimulationKernel()
        seen = []
        kernel.add_arrivals([], lambda index, time: seen.append(("a", index)))
        kernel.add_arrivals(
            np.array([0.2, 0.4]), lambda index, time: seen.append(("b", index))
        )
        kernel.add_arrivals([], lambda index, time: seen.append(("c", index)))
        assert kernel.pending_events == 2
        assert kernel.run() == 0.4
        assert seen == [("b", 0), ("b", 1)]
        # A kernel whose only column is empty runs its heap alone.
        kernel = SimulationKernel()
        kernel.add_arrivals([], lambda index, time: None)
        kernel.schedule(StreamEnd(time=0.3, stream="s"), lambda e: seen.append("end"))
        assert kernel.run() == 0.3
        assert kernel.events_processed == 1

    def test_traced_arrival_equals_the_heaped_event_entry(self):
        from repro.frames import FrameStack, SparseFrame

        stack = FrameStack.from_frames(
            [
                SparseFrame.from_events([1, 2], [0, 3], [1, -1], 4, 4, 0.0, 0.1),
                SparseFrame.from_events([3], [3], [1], 4, 4, 0.1, 0.2),
            ]
        )
        column, heaped = KernelTrace(), KernelTrace()
        kernel = SimulationKernel(trace=column)
        kernel.add_arrivals(stack.t_ends, lambda index, time: None, "cam", stack)
        kernel.run()
        kernel = SimulationKernel(trace=heaped)
        for i, t in enumerate(stack.t_ends.tolist()):
            kernel.schedule(FrameReady(time=t, stream="cam", stack=stack, index=i))
        kernel.run()
        assert column.entries == heaped.entries
        assert column.entries[1].detail.startswith("density=")


class TestChurnCursorCut:
    def test_churn_frame_counts_match_searchsorted_prefix_cut(
        self, registry, platform
    ):
        """A stop_time that closes before later arrivals must cut the
        stream's arrival column exactly at the searchsorted prefix."""
        sources = registry.compile("churn", **{**SMALL, "num_streams": 6})
        churned = [s for s in sources if s.stop_time is not None]
        assert churned, "churn family must produce stop_time windows"
        lazy = _run(platform, sources)
        eager = EagerSimulator(platform, sources).run()
        for source in sources:
            if source.stop_time is None:
                continue
            # The oracle cut, computed on the *uncut* arrivals column
            # (dataclasses.replace re-inits the render caches, so the
            # replacement renders the open window from scratch).
            open_source = dataclasses.replace(source, stop_time=None)
            _, arrivals = open_source.generate_stack()
            expected = int(
                np.searchsorted(arrivals, source.stop_time, side="right")
            )
            assert lazy.reports[source.name].frames_generated == expected, (
                source.name
            )
            assert eager.reports[source.name].frames_generated == expected, (
                source.name
            )
        assert_reports_identical(lazy, eager)


class TestHeapHighWater:
    @pytest.mark.parametrize("optimization", ["e2sf", "e2sf+dsfa"])
    def test_heap_holds_in_flight_work_whatever_the_fleet_size(
        self, registry, platform, optimization
    ):
        """Arrivals, ``StreamEnd`` events and same-time dispatches and
        evictions never wait on the heap, and an execution's completions
        share one entry: a fleet of 1,024 streams heaps no more than the
        in-flight budget of its signature servers."""
        marks = {}
        for streams in (64, 1024):
            sources = registry.compile(
                "steady",
                num_streams=streams,
                duration=0.2,
                scale=0.06,
                num_bins=4,
                params={"optimization": optimization},
            )
            simulator = MultiStreamSimulator(platform, sources)
            report = simulator.run()
            assert report.frames_generated > streams
            assert 0 < report.heap_high_water <= heap_bound(simulator), streams
            marks[streams] = report.heap_high_water
        assert marks[1024] <= heap_bound(simulator) < 16

    def test_steady_fleet_heap_scales_with_streams_not_frames(self, registry):
        streams = 256
        sources = registry.compile(
            "steady",
            num_streams=streams,
            duration=0.2,
            scale=0.06,
            num_bins=4,
        )
        platform = jetson_xavier_agx()
        lazy = _run(platform, sources)
        eager = EagerSimulator(platform, sources).run()
        assert lazy.frames_generated == eager.frames_generated
        assert lazy.frames_generated > HEAP_FACTOR * streams
        # Production: O(streams).  All-heap oracle: the whole horizon.
        assert lazy.heap_high_water <= HEAP_FACTOR * streams
        assert eager.heap_high_water >= eager.frames_generated
        assert lazy.heap_high_water < eager.heap_high_water

    def test_lazy_heap_is_horizon_independent(self, registry):
        platform = jetson_xavier_agx()
        marks = {}
        for duration in (0.2, 0.4):
            sources = registry.compile(
                "steady", num_streams=32, duration=duration, scale=0.06, num_bins=4
            )
            marks[duration] = {
                "lazy": _run(platform, sources).heap_high_water,
                "eager": EagerSimulator(platform, sources).run().heap_high_water,
            }
        # Doubling the horizon leaves the production heap within the
        # in-flight budget of the fleet's servers, while the oracle's heap
        # tracks the frame count.
        bound = heap_bound(MultiStreamSimulator(platform, sources))
        assert marks[0.2]["lazy"] <= bound and marks[0.4]["lazy"] <= bound
        assert marks[0.4]["eager"] >= marks[0.2]["eager"] * 1.5


class TestBoundedRetention:
    def test_trace_ring_buffer_keeps_exactly_the_last_n(self, registry):
        sources = registry.compile("steady", **SMALL)
        platform = jetson_xavier_agx()
        full = KernelTrace()
        MultiStreamSimulator(platform, sources).run(trace=full)
        assert len(full) > 32
        ring = KernelTrace(max_events=32)
        MultiStreamSimulator(platform, sources).run(trace=ring)
        assert len(ring) == 32
        assert list(ring.entries) == full.entries[-32:]
        assert ring.entries_dropped == len(full) - 32
        assert f"... {ring.entries_dropped} more events" in ring.format_log(
            max_rows=32
        )

    def test_record_limit_keeps_aggregates_and_trims_to_tail(self, registry):
        sources = registry.compile("steady", **SMALL)
        platform = jetson_xavier_agx()
        full = _run(platform, sources)
        capped = _run(platform, sources, record_limit=2)
        for name, report in full.reports.items():
            trimmed = capped.reports[name]
            # Streaming aggregates are unperturbed by the cap...
            assert trimmed.num_inferences == report.num_inferences
            assert trimmed.mean_latency == report.mean_latency
            assert trimmed.total_energy == report.total_energy
            assert trimmed.total_time == report.total_time
            # ...while the retained list is the most recent tail.
            assert trimmed.records == report.records[-2:]
        assert capped.mean_latency == full.mean_latency

    def test_record_limit_validation(self, registry):
        with pytest.raises(ValueError, match="record_limit"):
            PipelineReport(record_limit=-1)
        with pytest.raises(ValueError, match="record_limit"):
            MultiStreamSimulator(
                jetson_xavier_agx(),
                registry.compile("steady", **SMALL),
                record_limit=-1,
            )


class TestFramesPlaneColumns:
    def test_frames_plane_holds_sequence_on_client_not_in_events(
        self, registry, platform
    ):
        """The rendered stack lives on the client and the arrivals in the
        kernel's column: after prime nothing is heaped, and one StreamEnd
        per stream (and no FrameReady) waits to be merged into the column."""
        sources = registry.compile("steady", **SMALL)
        simulator = MultiStreamSimulator(platform, sources)
        kernel, clients, _ = simulator._setup(None)
        for client in clients:
            assert client._stack is not None
        assert kernel._heap == []
        queued = [entry[3] for entry in kernel._prerun]
        assert sorted(e.stream for e in queued) == sorted(c.name for c in clients)
        assert all(isinstance(e, StreamEnd) for e in queued)
        total_frames = sum(c.report.frames_generated for c in clients)
        assert total_frames > 2 * len(clients)
        assert kernel.pending_events == total_frames + len(clients)
        end_time = kernel.run()
        report = simulator._finalize(kernel, clients, 0, None, end_time)
        assert_reports_identical(report, EagerSimulator(platform, sources).run())
