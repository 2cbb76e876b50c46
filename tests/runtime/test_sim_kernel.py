"""Tests for the event-driven simulation kernel and the memoized cost tables."""

from __future__ import annotations

import dataclasses
import weakref

import numpy as np
import pytest

from repro.core import EvEdgeConfig, OptimizationLevel
from repro.core.nmp.candidate import Assignment, MappingCandidate
from repro.events import generate_sequence
from repro.hw import jetson_xavier_agx
from repro.models import build_network
from repro.nn import Precision
from repro.runtime import (
    DispatchBatch,
    FrameReady,
    InferenceDone,
    KernelTrace,
    LayerCostTable,
    MultiStreamSimulator,
    NetworkCostModel,
    QueueEvict,
    RemapPolicy,
    RemapTriggered,
    SignatureServer,
    SimulationKernel,
    StreamClient,
    StreamEnd,
    StreamSource,
    signature_groups,
)
from repro.runtime.sim import BASELINE_PRECISION

from test_cost_compiled import RESOLUTIONS


@pytest.fixture(scope="module")
def platform():
    return jetson_xavier_agx()


@pytest.fixture(scope="module")
def network():
    return build_network("spikeflownet", 64, 64)


class TestKernelOrdering:
    def test_same_time_events_order_by_priority(self):
        kernel = SimulationKernel()
        seen = []
        for event_type in (FrameReady, DispatchBatch, InferenceDone, QueueEvict, StreamEnd):
            kernel.schedule(
                event_type(time=1.0, stream="s"),
                lambda e: seen.append(type(e).__name__),
            )
        kernel.run()
        assert seen == [
            "InferenceDone",
            "QueueEvict",
            "DispatchBatch",
            "FrameReady",
            "StreamEnd",
        ]

    def test_fifo_within_one_priority_class(self):
        kernel = SimulationKernel()
        seen = []
        for name in ("a", "b", "c"):
            kernel.schedule(FrameReady(time=2.0, stream=name), lambda e: seen.append(e.stream))
        kernel.run()
        assert seen == ["a", "b", "c"]

    def test_time_orders_before_priority(self):
        kernel = SimulationKernel()
        seen = []
        kernel.schedule(FrameReady(time=2.0, stream="s"), lambda e: seen.append("frame"))
        kernel.schedule(StreamEnd(time=1.0, stream="s"), lambda e: seen.append("end"))
        kernel.run()
        assert seen == ["end", "frame"]

    def test_scheduling_into_the_past_raises(self):
        kernel = SimulationKernel()
        kernel.schedule(FrameReady(time=1.0, stream="s"), lambda e: None)
        kernel.run()
        with pytest.raises(ValueError):
            kernel.schedule(FrameReady(time=0.5, stream="s"), lambda e: None)


class TestEventDelivery:
    """Each event is delivered to the one handler it was scheduled with."""

    def test_each_handler_is_called_once_at_pop_time_in_heap_order(self):
        kernel = SimulationKernel()
        calls = []

        def handler(tag):
            def on_event(event):
                calls.append((tag, event, kernel.now, kernel.events_processed))

            return on_event

        # Scheduled out of order: (time, priority, FIFO) decides delivery.
        events = {
            "frame-late": FrameReady(time=2.0, stream="s"),
            "frame-a": FrameReady(time=1.0, stream="s"),
            "frame-b": FrameReady(time=1.0, stream="t"),
            "done": InferenceDone(time=1.0, stream="s"),
        }
        for tag, event in events.items():
            kernel.schedule(event, handler(tag))
        assert calls == []  # nothing is delivered before run()
        kernel.run()
        assert calls == [
            ("done", events["done"], 1.0, 1),
            ("frame-a", events["frame-a"], 1.0, 2),
            ("frame-b", events["frame-b"], 1.0, 3),
            ("frame-late", events["frame-late"], 2.0, 4),
        ]
        kernel.run()  # a drained kernel delivers nothing twice
        assert len(calls) == 4

    def test_event_without_handler_is_counted_and_traced_only(self):
        trace = KernelTrace()
        kernel = SimulationKernel(trace=trace)
        seen = []
        kernel.schedule(QueueEvict(time=0.2, stream="s", num_frames=2, reason="queue-full"))
        kernel.schedule(FrameReady(time=0.3, stream="s"), lambda e: seen.append(e.time))
        assert kernel.run() == 0.3
        assert seen == [0.3]
        assert kernel.events_processed == 2
        assert trace.counts() == {"QueueEvict": 1, "FrameReady": 1}
        assert "queue-full" in trace.entries[0].detail

    def test_handler_can_schedule_a_same_time_followup(self):
        kernel = SimulationKernel()
        seen = []

        def on_frame(event):
            seen.append(("frame", event.stream))
            if event.stream == "a":
                kernel.schedule(
                    DispatchBatch(time=event.time, stream="a"),
                    lambda e: seen.append(("dispatch", e.stream)),
                )

        kernel.schedule(FrameReady(time=3.0, stream="a"), on_frame)
        kernel.schedule(FrameReady(time=3.0, stream="b"), on_frame)
        end = kernel.run()
        # The follow-up's priority puts it ahead of the frame still queued
        # at the same time.
        assert seen == [("frame", "a"), ("dispatch", "a"), ("frame", "b")]
        assert end == 3.0
        assert kernel.pending_events == 0
        assert kernel.events_processed == 3

    def test_delivered_event_is_counted_traced_in_place_and_stamps_now(self):
        trace = KernelTrace()
        kernel = SimulationKernel(trace=trace)
        seen = []

        def stamp(tag):
            seen.append((tag, kernel.now, kernel.events_processed))

        def on_frame(event):
            # A same-time follow-up, delivered inside the running handler:
            # it is processed before anything heaped, and before the rest
            # of this handler.
            kernel.deliver(
                DispatchBatch(time=event.time, stream=event.stream),
                lambda e: stamp("dispatch"),
            )
            stamp("frame")

        kernel.schedule(FrameReady(time=1.0, stream="a"), on_frame)
        kernel.schedule(FrameReady(time=1.0, stream="b"), lambda e: seen.append(("b",)))
        assert kernel.run() == 1.0
        assert seen == [("dispatch", 1.0, 2), ("frame", 1.0, 2), ("b",)]
        assert kernel.events_processed == 3
        assert [(e.kind, e.stream) for e in trace.entries] == [
            ("FrameReady", "a"),
            ("DispatchBatch", "a"),
            ("FrameReady", "b"),
        ]
        # Delivery never touches the heap, and both frames were scheduled
        # before the run, so they waited in the merged column.
        assert kernel.heap_high_water == 0

    def test_delivered_event_stamps_a_time_just_before_now(self):
        # The end-of-stream flush dispatch sits a few ulps before StreamEnd.
        kernel = SimulationKernel()
        end = 0.30000000000000004
        flush = 0.3
        stamps = []

        def on_end(event):
            kernel.deliver(
                DispatchBatch(time=flush, stream="s"),
                lambda e: stamps.append(kernel.now),
            )

        kernel.schedule(StreamEnd(time=end, stream="s"), on_end)
        kernel.run()
        assert stamps == [flush]
        assert kernel.now == flush

    def test_delivered_event_without_handler_is_counted_and_traced_only(self):
        trace = KernelTrace()
        kernel = SimulationKernel(trace=trace)
        kernel.deliver(QueueEvict(time=0.0, stream="s", num_frames=2, reason="backlog"))
        assert kernel.events_processed == 1
        assert trace.counts() == {"QueueEvict": 1}
        assert kernel.pending_events == 0

    def test_delivering_at_another_time_raises(self):
        kernel = SimulationKernel()
        kernel.schedule(FrameReady(time=1.0, stream="s"), lambda e: None)
        kernel.run()
        for time in (0.5, 1.5):
            with pytest.raises(ValueError, match="cannot deliver"):
                kernel.deliver(QueueEvict(time=time, stream="s"))
        assert kernel.events_processed == 1

    def test_drained_kernel_keeps_no_handler_alive(self):
        # Handlers live only in heap entries and arrival columns: once its
        # events are delivered, the kernel holds no reference to a handler's
        # owner (a stream client that holds the kernel would otherwise form
        # a cycle that outlives the run).
        class Owner:
            def on_event(self, event):
                pass

            def on_arrival(self, index, time):
                pass

        kernel = SimulationKernel()
        owner = Owner()
        kernel.schedule(FrameReady(time=0.0, stream="s"), owner.on_event)
        column_owner = Owner()
        kernel.add_arrivals([0.1, 0.2], column_owner.on_arrival, "t")
        refs = [weakref.ref(owner), weakref.ref(column_owner)]
        del owner, column_owner
        kernel.run(until=0.1)
        # The queued arrival still needs its handler.
        assert refs[0]() is None and refs[1]() is not None
        kernel.run()
        assert [ref() for ref in refs] == [None, None]


def _contended_fleet():
    """No-DSFA and DSFA streams on one heavy server with depth-1 queues:
    backlog drops, queue-full evictions, merges and wake-ups all fire."""
    from repro.core import DSFAConfig
    from repro.events import generate_sequence
    from repro.runtime import StreamSource

    sequence = generate_sequence("indoor_flying1", scale=0.12, duration=0.4, seed=0)
    heavy = build_network("adaptive_spikenet", 128, 128)
    depth = DSFAConfig(inference_queue_depth=1)
    configs = {
        "raw": EvEdgeConfig(num_bins=10, optimization=OptimizationLevel.E2SF, dsfa=depth),
        "agg": EvEdgeConfig(
            num_bins=10, optimization=OptimizationLevel.E2SF_DSFA, dsfa=depth
        ),
    }
    return [
        StreamSource(f"{kind}{i}", sequence, heavy, config, start_offset=0.001 * i)
        for kind, config in configs.items()
        for i in range(6)
    ], None


def _remapping_fleet():
    """A churning NMP fleet: joins and leaves fire remap triggers."""
    from repro.core.nmp.search import NMPConfig
    from repro.scenarios import default_registry

    full = OptimizationLevel.FULL
    sources = [
        dataclasses.replace(
            source, config=dataclasses.replace(source.config, optimization=full)
        )
        for source in default_registry().compile(
            "churn", num_streams=8, duration=0.3, scale=0.1, num_bins=4
        )
    ]
    policy = RemapPolicy(nmp_config=NMPConfig(population_size=4, generations=2, seed=0))
    return sources, policy


class TestProductionWiring:
    """Every scheduling, delivery, dispatch, completion, eviction and
    arrival-registration site hands the kernel the callee of its event.

    Each fleet builder returns ``(sources, remap_policy)``.
    """

    @pytest.mark.parametrize("fleet", [_contended_fleet, _remapping_fleet])
    def test_each_event_reaches_its_stream_callee(self, monkeypatch, fleet):
        sources, policy = fleet()
        heaped, delivered, evicted, columns = [], [], [], []
        dispatched, groups = [], []
        schedule = SimulationKernel.schedule
        deliver = SimulationKernel.deliver
        evict = SimulationKernel.evict
        dispatch = SimulationKernel.dispatch
        schedule_completions = SimulationKernel.schedule_completions
        add_arrivals = SimulationKernel.add_arrivals

        def recording_schedule(kernel, event, handler=None):
            heaped.append((event, handler))
            schedule(kernel, event, handler)

        def recording_deliver(kernel, event, handler=None):
            delivered.append((event, handler))
            deliver(kernel, event, handler)

        # ``evict`` takes no handler, so an eviction calls nothing.
        def recording_evict(kernel, time, stream, num_frames, reason):
            evicted.append((time, stream, num_frames, reason))
            evict(kernel, time, stream, num_frames, reason)

        def recording_dispatch(kernel, time, stream, batch, handler):
            dispatched.append((stream, batch, handler))
            dispatch(kernel, time, stream, batch, handler)

        def recording_completions(kernel, time, completions):
            groups.append(list(completions))
            schedule_completions(kernel, time, completions)

        def recording_add_arrivals(kernel, times, handler, stream="", stack=None):
            columns.append((len(times), handler, stream))
            add_arrivals(kernel, times, handler, stream, stack)

        monkeypatch.setattr(SimulationKernel, "schedule", recording_schedule)
        monkeypatch.setattr(SimulationKernel, "deliver", recording_deliver)
        monkeypatch.setattr(SimulationKernel, "evict", recording_evict)
        monkeypatch.setattr(SimulationKernel, "dispatch", recording_dispatch)
        monkeypatch.setattr(
            SimulationKernel, "schedule_completions", recording_completions
        )
        monkeypatch.setattr(SimulationKernel, "add_arrivals", recording_add_arrivals)
        simulator = MultiStreamSimulator(
            jetson_xavier_agx(), sources, remap_policy=policy
        )
        report = simulator.run()
        # One arrival column per stream, handled by that stream's client.
        assert [stream for _, _, stream in columns] == [s.name for s in sources]
        for count, handler, stream in columns:
            assert handler.__name__ == "_on_arrival"
            assert isinstance(handler.__self__, StreamClient)
            assert handler.__self__.name == stream
        arrivals = sum(count for count, _, _ in columns)
        assert arrivals == report.frames_generated > 0
        callees = {
            DispatchBatch: "_on_dispatch",
            StreamEnd: "_on_stream_end",
            InferenceDone: "_on_done",
        }
        evict_reasons = {reason for _, _, _, reason in evicted}
        assert {stream for _, stream, _, _ in evicted} <= {s.name for s in sources}
        assert all(num_frames >= 1 for _, _, num_frames, _ in evicted)
        # This run is untraced, so a dispatch and an eviction are only
        # counted: nothing is delivered, and the heap never sees a
        # DispatchBatch, a QueueEvict or a FrameReady.  Every completion
        # reaches the kernel in a group, so no InferenceDone is scheduled.
        assert {type(event) for event, _ in delivered} <= {DispatchBatch}
        assert not delivered
        assert not {type(event) for event, _ in heaped} & {
            DispatchBatch,
            QueueEvict,
            FrameReady,
            InferenceDone,
        }
        # Each site as (kind, stream, handler, records): events scheduled or
        # delivered, dispatches, and each completion of every group.
        sites = [
            (type(event), event.stream, handler, getattr(event, "records", None))
            for event, handler in heaped + delivered
        ]
        sites += [
            (DispatchBatch, stream, handler, None) for stream, _, handler in dispatched
        ]
        completions = [completion for group in groups for completion in group]
        sites += [
            (InferenceDone, stream, handler, records)
            for stream, records, _, handler in completions
        ]
        assert all(batch is not None and len(batch) for _, batch, _ in dispatched)
        for kind, stream, handler, records in sites:
            if kind is RemapTriggered:
                assert callable(handler)
            else:
                # Stream clients and signature servers each own one name.
                assert handler.__name__ == callees[kind]
                assert handler.__self__.name == stream
                is_client = isinstance(handler.__self__, StreamClient)
                # Only a server's wake-ups and own completions carry no records.
                assert is_client == (kind is not InferenceDone or bool(records))
                assert is_client or isinstance(handler.__self__, SignatureServer)
        # A group is one execution's members, in order, then the server's
        # drain, or a server's wake-up alone.
        for group in groups:
            *members, (_, drain_records, drain_profile, drain) = group
            assert isinstance(drain.__self__, SignatureServer)
            assert drain_records == () and drain_profile is None
            for _, records, profile, handler in members:
                assert isinstance(handler.__self__, StreamClient)
                assert len(records) == 1 and profile is not None
        kinds = {kind for kind, _, _, _ in sites}
        assert set(callees) <= kinds
        if policy is None:
            assert evict_reasons == {"backlog", "queue-full"}
            # Cross-stream merges put several members in one group.
            assert any(len(group) > 2 for group in groups)
        else:
            assert RemapTriggered in kinds
        assert report.events_processed == (
            len(heaped)
            + len(delivered)
            + len(evicted)
            + len(dispatched)
            + len(completions)
            + arrivals
        )
        # Everything scheduled before the run waited in the merged column:
        # only groups sat on the heap, within the servers' in-flight budget.
        servers = {id(group[-1][3].__self__) for group in groups}
        assert 0 < report.heap_high_water <= 2 * len(servers) + 1

    def test_every_enqueue_finds_its_server_busy(self, monkeypatch):
        """A dispatch that waits finds the server busy past its time.

        This is why a queue-full eviction may be delivered inline: the
        wake-up the enqueue schedules is strictly later, so no same-time
        completion can precede the eviction in the heap.
        """
        sources, _ = _contended_fleet()
        dispatch = SignatureServer.dispatch
        waits = []

        def checked(server, client, batch, time):
            busy = server.busy_until(client)
            if server._pending_count or busy > time:
                waits.append((busy, time, server._pending_count))
            dispatch(server, client, batch, time)

        monkeypatch.setattr(SignatureServer, "dispatch", checked)
        report = MultiStreamSimulator(jetson_xavier_agx(), sources).run()
        assert waits and report.frames_dropped > 0
        assert any(pending for _, _, pending in waits)
        assert all(busy > time for busy, time, _ in waits)


class TestKernelResources:
    def test_acquire_queues_behind_busy_resources(self):
        kernel = SimulationKernel()
        start, end = kernel.acquire(("gpu",), 1.0, 2.0)
        assert (start, end) == (1.0, 3.0)
        start, end = kernel.acquire(("gpu",), 2.0, 1.0)
        assert (start, end) == (3.0, 4.0)  # queued behind the first
        assert kernel.busy_until("gpu") == 4.0
        assert kernel.busy_until("dla0") == 0.0

    def test_acquire_waits_for_all_resources(self):
        kernel = SimulationKernel()
        kernel.acquire(("gpu",), 0.0, 5.0)
        start, end = kernel.acquire(("gpu", "dla0"), 1.0, 1.0)
        assert (start, end) == (5.0, 6.0)
        assert kernel.resource_busy_times() == {"gpu": 6.0, "dla0": 6.0}


class TestKernelTrace:
    def test_records_processed_events(self):
        trace = KernelTrace()
        kernel = SimulationKernel(trace=trace)
        kernel.schedule(FrameReady(time=0.5, stream="cam0"))
        kernel.schedule(QueueEvict(time=0.7, stream="cam0", num_frames=3, reason="stale"))
        kernel.run()
        assert len(trace) == 2
        assert trace.counts() == {"FrameReady": 1, "QueueEvict": 1}
        assert list(trace.by_stream()) == ["cam0"]
        assert "stale" in trace.entries[1].detail
        assert "QueueEvict" in trace.format_log()

    def test_max_events_bound(self):
        trace = KernelTrace(max_events=1)
        kernel = SimulationKernel(trace=trace)
        kernel.schedule(FrameReady(time=0.0, stream="s"))
        kernel.schedule(FrameReady(time=1.0, stream="s"))
        kernel.run()
        assert len(trace) == 1
        assert trace.entries_dropped == 1

    def test_frame_ready_detail_reads_the_referenced_frame(self):
        from repro.frames import FrameStack, SparseFrame

        frames = [
            SparseFrame.from_events([1, 2], [0, 3], [1, -1], 4, 4, 0.0, 0.1),
            SparseFrame.from_events([3], [3], [1], 4, 4, 0.1, 0.2),
        ]
        stack = FrameStack.from_frames(frames)
        event = FrameReady(time=0.2, stream="s", stack=stack, index=1)
        assert event.trace_detail() == f"density={frames[1].density:.4f}"
        assert frames[0].density != frames[1].density
        assert FrameReady(time=0.0, stream="s").trace_detail() == ""

    def test_inference_profiles_recorded_and_rendered(self):
        from repro.runtime.sim import InferenceDone

        trace = KernelTrace()
        kernel = SimulationKernel(trace=trace)
        propagated = (0.12, 0.05, 0.031, 0.031, 0.031)
        kernel.schedule(
            InferenceDone(time=0.001, stream="cam0", profile=propagated)
        )
        kernel.schedule(InferenceDone(time=0.002, stream="server"))  # wake-up
        kernel.schedule(
            InferenceDone(time=0.003, stream="cam1", profile=(0.25, None, None))
        )
        kernel.run()
        # profiles() keeps only completions that carried a profile.
        assert trace.profiles() == [propagated, (0.25, None, None)]
        log = trace.format_log()
        # Propagated profiles show the cascade head, the converged deep
        # value and the layer count; flat ones show the single occupancy.
        assert "occ[0.1200>0.0500>0.0310>..>0.0310 x5]" in log
        assert "occ[0.2500 flat x3]" in log

    def test_profile_column_absent_for_non_inference_events(self):
        trace = KernelTrace()
        kernel = SimulationKernel(trace=trace)
        kernel.schedule(FrameReady(time=0.5, stream="cam0"))
        kernel.run()
        assert trace.entries[0].profile is None
        assert trace.profiles() == []
        assert "occ[" not in trace.format_log()


class TestLayerCostTable:
    """Satellite: the memo table must agree with direct model calls."""

    def test_memoized_costs_match_direct_calls(self, platform, network):
        table = LayerCostTable(occupancy_resolution=1 / 32)
        latency_model = table.latency_model
        energy_model = table.energy_model
        gpu = platform.gpu()
        layers = [s for s in network.layers() if s.kind.is_compute]
        for precision in Precision.ordered():
            for occupancy in (0.0, 0.013, 0.26, 0.5, 0.777, 1.0):
                bucket = table.bucket(occupancy)
                for spec in layers:
                    cell = table.cell(spec, gpu, precision, True)
                    cost = table.cell_cost(cell, bucket, 2)
                    direct_latency = latency_model.layer_latency(
                        spec, gpu, precision, sparse=True, occupancy=bucket, batch=2
                    ).total
                    direct_energy = energy_model.layer_energy(
                        spec, gpu, precision, sparse=True, occupancy=bucket, batch=2
                    ).total
                    assert cost.latency == direct_latency
                    assert cost.energy == direct_energy

    def test_exact_mode_uses_raw_occupancy(self, platform, network):
        table = LayerCostTable()
        gpu = platform.gpu()
        spec = next(s for s in network.layers() if s.kind.is_compute)
        assert table.bucket(0.1234) == 0.1234
        cell = table.cell(spec, gpu, Precision.FP16, True)
        cost = table.cell_cost(cell, table.bucket(0.1234), 1)
        direct = table.latency_model.layer_latency(
            spec, gpu, Precision.FP16, sparse=True, occupancy=0.1234
        ).total
        assert cost.latency == direct

    def test_cache_hits_accumulate(self, platform, network):
        table = LayerCostTable(occupancy_resolution=1 / 16)
        gpu = platform.gpu()
        spec = next(s for s in network.layers() if s.kind.is_compute)
        cell = table.cell(spec, gpu, Precision.FP16, False)
        table.cell_cost(cell, table.bucket(0.50), 1)
        assert table.cache_info()["misses"] == 1
        # 0.47 and 0.50 land in the same 1/16 bucket.
        table.cell_cost(cell, table.bucket(0.47), 1)
        assert table.cache_info()["hits"] == 1
        assert table.cache_info()["entries"] == 1

    def test_cells_are_interned_on_layer_pe_precision_and_sparse(self, platform, network):
        table = LayerCostTable()
        gpu = platform.gpu()
        first, second = [s for s in network.layers() if s.kind.is_compute][:2]
        cell = table.cell(first, gpu, Precision.FP16, True)
        assert table.cell(first, gpu, Precision.FP16, True) == cell
        # An equal spec and a PE of the same name resolve to the same cell.
        twin_spec, twin_gpu = dataclasses.replace(first), dataclasses.replace(gpu)
        assert table.cell(twin_spec, twin_gpu, Precision.FP16, True) == cell
        others = {
            table.cell(first, gpu, Precision.FP16, False),
            table.cell(first, gpu, Precision.FP32, True),
            table.cell(first, platform.pe("dla0"), Precision.FP16, True),
            table.cell(second, gpu, Precision.FP16, True),
        }
        assert cell not in others and len(others) == 4
        # Interning computes nothing.
        assert table.cache_info()["entries"] == 0

    def test_bucket_clamps_and_quantizes(self):
        table = LayerCostTable(occupancy_resolution=0.25)
        assert table.bucket(None) is None
        assert table.bucket(-1.0) == 0.0
        assert table.bucket(2.0) == 1.0
        assert table.bucket(0.3) == 0.25
        exact = LayerCostTable()
        assert exact.bucket(0.3) == 0.3

    @pytest.mark.parametrize("resolution", [1 / 64, 1 / 16, 0.25, 0.3, 0.07, None])
    def test_bucket_is_idempotent(self, resolution):
        # Cost models key table cells on profile entries as they are, which
        # is sound only because an entry (already a bucket representative)
        # is its own bucket.
        table = LayerCostTable(occupancy_resolution=resolution)
        grid = []
        if resolution is not None:
            steps = int(round(1.0 / resolution)) + 1
            grid = [min(k * resolution, 1.0) for k in range(steps + 1)]
        rng = np.random.default_rng(0)
        samples = [0.0, 1e-5, 1.0] + rng.random(500).tolist()
        for x in grid + samples:
            once = table.bucket(x)
            assert table.bucket(once) == once, x
        for representative in grid:
            assert table.bucket(table.bucket(representative)) == table.bucket(
                representative
            )

    @pytest.mark.parametrize("resolution", RESOLUTIONS)
    def test_bucket_rule_holds_for_every_input(self, resolution):
        # The bucket rule written with min/max, as it stood before it was
        # rewritten with comparisons: every input must give the same
        # result, or the same error.
        def min_max_rule(occupancy):
            if occupancy is None:
                return None
            occupancy = min(max(float(occupancy), 0.0), 1.0)
            if not resolution:
                return occupancy
            steps = round(occupancy / resolution)
            if steps == 0 and occupancy > 0.0:
                steps = 1
            return min(steps * resolution, 1.0)

        table = LayerCostTable(occupancy_resolution=resolution)
        values = [0.0, -0.0, 1e-9, 1e-5, 1e-4, 0.3, 0.5, 1.0, -1.0, 2.0, 1.0 + 1e-12]
        values += np.random.default_rng(0).uniform(-0.5, 1.5, 200).tolist()
        inputs = [None, 1, 0, float("inf"), float("-inf")] + values
        inputs += [np.float64(v) for v in values + [float("inf"), float("-inf")]]
        for value in inputs:
            result, expected = table.bucket(value), min_max_rule(value)
            assert result == expected and type(result) is type(expected), value
            if expected == 0.0:
                assert str(result) == str(expected), value  # the sign of zero
        for nan in (float("nan"), np.float64("nan")):
            if resolution is None:
                assert np.isnan(table.bucket(nan)) and np.isnan(min_max_rule(nan))
                assert type(table.bucket(nan)) is float
            else:
                with pytest.raises(ValueError):
                    min_max_rule(nan)
                with pytest.raises(ValueError):
                    table.bucket(nan)

    def test_bucket_rounds_small_nonzero_occupancy_up(self, platform, network):
        # Regression: density 1e-4 with the default 1/64 resolution used to
        # round to bucket 0.0, zeroing the dense memory-traffic term and
        # clamping sparse costs to the min_sparse_fraction floor regardless
        # of the actual input.  Nonzero occupancies round *up* to the first
        # bucket; exact zero stays zero.
        table = LayerCostTable(occupancy_resolution=1.0 / 64.0)
        assert table.bucket(1e-4) == 1.0 / 64.0
        assert table.bucket(1e-9) == 1.0 / 64.0
        assert table.bucket(0.0) == 0.0
        gpu = platform.gpu()
        spec = next(s for s in network.layers() if s.kind.is_compute)
        cell = table.cell(spec, gpu, Precision.FP16, True)
        tiny = table.cell_cost(cell, table.bucket(1e-4), 1)
        first_bucket = table.cell_cost(cell, table.bucket(1.0 / 64.0), 1)
        zero = table.cell_cost(cell, table.bucket(0.0), 1)
        assert tiny == first_bucket
        # The zero bucket moves no activation bytes; a tiny-but-nonzero
        # occupancy must not be costed like it.
        assert tiny != zero

    def test_invalid_resolution_rejected(self):
        with pytest.raises(ValueError):
            LayerCostTable(occupancy_resolution=0.0)
        with pytest.raises(ValueError):
            LayerCostTable(occupancy_resolution=1.5)


class TestNetworkCostModel:
    def test_matches_seed_reference_walk(self, platform, network):
        """The memoized walk must equal the seed pipeline's per-call loop."""
        config = EvEdgeConfig(optimization=OptimizationLevel.E2SF)
        model = NetworkCostModel(network, platform, config=config)
        latency_model = model.table.latency_model
        energy_model = model.table.energy_model
        for occupancy, batch in [(0.01, 1), (0.2, 3), (1.0, 2)]:
            expected_latency = 0.0
            expected_energy = 0.0
            gpu = platform.gpu()
            first = True
            for spec in network.layers():
                if not spec.kind.is_compute:
                    continue
                occ = occupancy if first else None
                expected_latency += latency_model.layer_latency(
                    spec, gpu, BASELINE_PRECISION,
                    sparse=True, occupancy=occ, batch=batch,
                ).total
                expected_energy += energy_model.layer_energy(
                    spec, gpu, BASELINE_PRECISION,
                    sparse=True, occupancy=occ, batch=batch,
                ).total
                first = False
            latency, energy = model.profile_cost(
                model.occupancy_profile(occupancy), batch
            )
            assert latency == pytest.approx(expected_latency, rel=1e-12)
            assert energy == pytest.approx(expected_energy, rel=1e-12)

    def test_repeated_calls_are_cached(self, platform, network):
        model = NetworkCostModel(network, platform)
        first = model.profile_cost(model.occupancy_profile(0.1), 1)
        misses = model.table.cache_info()["misses"]
        second = model.profile_cost(model.occupancy_profile(0.1), 1)
        assert first == second
        assert model.table.cache_info()["misses"] == misses

    def test_pes_used_follows_mapping(self, platform, network):
        all_gpu = NetworkCostModel(network, platform)
        assert all_gpu.pes_used == ("gpu",)
        mapping = MappingCandidate(
            {
                f"{network.name}.{spec.name}": Assignment(
                    "dla0" if not spec.is_spiking else "gpu", Precision.FP16
                )
                for spec in network.layers()
                if spec.kind.is_compute
            }
        )
        config = EvEdgeConfig(optimization=OptimizationLevel.FULL)
        mapped = NetworkCostModel(network, platform, config=config, mapping=mapping)
        assert set(mapped.pes_used) >= {"gpu"}


class TestSignatureGroups:
    """Sources share a cost model and a server (and a shard) exactly when
    their network structure, mapping key and optimization level agree."""

    @pytest.fixture(scope="class")
    def sequence(self):
        return generate_sequence("indoor_flying1", scale=0.1, duration=0.1, seed=0)

    def test_same_name_different_structure_never_shares(self, sequence):
        # The same zoo model built at two resolutions shares a name.
        small = build_network("dotie", 64, 64)
        large = build_network("dotie", 192, 192)
        sources = [
            StreamSource(f"s{i}", sequence, net)
            for i, net in enumerate((small, large, small))
        ]
        assert signature_groups(sources) == [[0, 2], [1]]

    def test_equal_structure_distinct_objects_share(self, sequence):
        first = build_network("dotie", 64, 64)
        second = build_network("dotie", 64, 64)
        assert first is not second
        sources = [
            StreamSource(f"s{i}", sequence, net)
            for i, net in enumerate((first, second, first))
        ]
        assert signature_groups(sources) == [[0, 1, 2]]

    def test_optimization_levels_split_groups(self, sequence, network):
        levels = (
            OptimizationLevel.E2SF,
            OptimizationLevel.E2SF_DSFA,
            OptimizationLevel.E2SF,
            OptimizationLevel.BASELINE,
        )
        sources = [
            StreamSource(f"s{i}", sequence, network, EvEdgeConfig(optimization=level))
            for i, level in enumerate(levels)
        ]
        assert signature_groups(sources) == [[0, 2], [1], [3]]

    def test_structure_is_read_once_per_identity(self, sequence, monkeypatch):
        # Eight sources over two equal network objects, each with its own
        # config object at one level: two identities, one group, and each
        # network's layers read once.
        networks = [build_network("dotie", 64, 64) for _ in range(2)]
        reads = []
        for net in networks:
            layers = net.layers
            monkeypatch.setattr(
                net, "layers", lambda layers=layers: reads.append(1) or layers()
            )
        sources = [
            StreamSource(
                f"s{i}",
                sequence,
                networks[i % 2],
                EvEdgeConfig(optimization=OptimizationLevel.E2SF),
            )
            for i in range(8)
        ]
        assert signature_groups(sources) == [list(range(8))]
        assert len(reads) == 2
