"""Lazy arrival-cursor scheduling: equivalence, churn cuts and heap bounds.

The scheduling refactor must be *provably report-identical*: each stream
keeps at most one queued ``FrameReady`` — the handler self-reschedules the
successor onto a pre-reserved kernel sequence number — and the resulting
``MultiStreamReport`` must be bit-identical to the eager horizon-wide
oracle (``EagerSimulator`` in ``tests/oracles``) across every scenario
family.  The payoff the suite pins alongside the equivalence: the kernel
heap's high-water mark scales with *active streams* under lazy scheduling
and with *total frames* under eager.  Lazy cursors across epoch barriers
are covered by the sharded suite (platform-group bit-identity, process ==
inline, epoch-length invariance).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.core  # noqa: F401  (import order: runtime pulls core.nmp lazily)
from repro.hw import jetson_xavier_agx
from repro.runtime import KernelTrace, MultiStreamSimulator, SimulationKernel
from repro.runtime.sim import FrameReady, PipelineReport
from repro.scenarios import default_registry

from oracles.runtime import EagerSimulator, PerFrameReferenceSimulator
from test_kernel_equivalence import assert_reports_identical

SMALL = dict(num_streams=3, duration=0.3, scale=0.1, num_bins=4)

# Lazy heap budget per active stream: one queued FrameReady + one StreamEnd
# per live stream, plus in-flight dispatch / completion / eviction events.
HEAP_FACTOR = 4


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
        """Arrival cursors reproduce the horizon-wide prime on every family,
        and so does the fully per-frame reference transport."""
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

    def test_reserved_sequences_match_eager_delivery(self):
        """Successors scheduled mid-run on reserved sequence numbers reach
        their handlers in exactly the eager prime's order, including
        against a same-time event of another stream heaped before them."""
        times = [0.0, 0.1, 0.1, 0.2]

        def drive(lazy: bool):
            kernel = SimulationKernel()
            seen = []
            state = {"cursor": 0, "base": 0}

            def on_frame(event):
                cursor = state["cursor"]
                if lazy and cursor < len(times):
                    state["cursor"] = cursor + 1
                    kernel.schedule(
                        FrameReady(time=times[cursor], stream="s"),
                        on_frame,
                        seq=state["base"] + cursor,
                    )
                seen.append((event.stream, event.time))

            if lazy:
                state["base"] = kernel.reserve_sequences(len(times))
                state["cursor"] = 1
                kernel.schedule(
                    FrameReady(time=times[0], stream="s"), on_frame, seq=state["base"]
                )
            else:
                for t in times:
                    kernel.schedule(FrameReady(time=t, stream="s"), on_frame)
            for t in (0.1, 0.2):
                kernel.schedule(
                    FrameReady(time=t, stream="t"),
                    lambda e: seen.append((e.stream, e.time)),
                )
            kernel.run()
            return seen

        lazy = drive(lazy=True)
        assert lazy == drive(lazy=False)
        assert lazy == [
            ("s", 0.0), ("s", 0.1), ("s", 0.1), ("t", 0.1), ("s", 0.2), ("t", 0.2)
        ]


class TestChurnCursorCut:
    def test_churn_frame_counts_match_searchsorted_prefix_cut(
        self, registry, platform
    ):
        """Satellite fix: a stop_time that closes before later arrivals must
        stop the cursor exactly at the eager path's searchsorted cut."""
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

    def test_doctored_cache_never_schedules_past_stop_window(self, registry):
        """A transport whose cached arrivals extend past a (later-imposed)
        stop_time must not advance the cursor into the closed window."""
        source = registry.compile("steady", **SMALL)[0]
        _, arrivals = source.generate_stack()  # render with no stop window
        assert len(arrivals) >= 4
        stop = float(arrivals[len(arrivals) // 2])
        keep = int(np.searchsorted(arrivals, stop, side="right"))
        # Impose the window *after* the render: the cached stack and
        # arrivals column still carry the post-stop tail.
        source.stop_time = stop

        platform = jetson_xavier_agx()
        trace = KernelTrace()
        simulator = MultiStreamSimulator(platform, [source])
        report = simulator.run(trace=trace)
        assert report.reports[source.name].frames_generated == keep
        frame_times = [
            e.time for e in trace.entries if e.kind == "FrameReady"
        ]
        assert len(frame_times) == keep
        assert all(t <= stop for t in frame_times)


class TestHeapHighWater:
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
        # Lazy: O(active streams).  Eager: the whole horizon is queued.
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
        # Doubling the horizon must not grow the lazy heap (beyond event
        # jitter), while the eager heap tracks the doubled frame count.
        assert marks[0.4]["lazy"] <= marks[0.2]["lazy"] * 1.25
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


class TestFramesPlaneCursor:
    def test_frames_plane_holds_sequence_on_client_not_in_events(
        self, registry, platform
    ):
        """The rendered stack and arrivals live on the client cursor; the
        heap never holds more than one of the stream's frames at a time."""
        sources = registry.compile("steady", **SMALL)
        simulator = MultiStreamSimulator(platform, sources)
        kernel, clients, _ = simulator._setup(None)
        for client in clients:
            assert client._stack is not None
            assert len(client._arrivals) == client._num_frames
        # At prime time the heap holds one FrameReady + one StreamEnd per
        # stream — not the horizon.
        total_frames = sum(c._num_frames for c in clients)
        assert total_frames > 2 * len(clients)
        assert kernel.pending_events == 2 * len(clients)
        end_time = kernel.run()
        report = simulator._finalize(kernel, clients, 0, None, end_time)
        assert_reports_identical(report, EagerSimulator(platform, sources).run())
