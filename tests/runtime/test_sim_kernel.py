"""Tests for the event-driven simulation kernel and the memoized cost tables."""

from __future__ import annotations

import pytest

from repro.core import EvEdgeConfig, OptimizationLevel
from repro.core.nmp.candidate import Assignment, MappingCandidate
from repro.hw import EnergyModel, LatencyModel, jetson_xavier_agx
from repro.models import build_network
from repro.nn import Precision
from repro.runtime import (
    DispatchBatch,
    FrameReady,
    InferenceDone,
    KernelTrace,
    LayerCostTable,
    NetworkCostModel,
    QueueEvict,
    SimulationKernel,
    StreamEnd,
)


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
            kernel.on(event_type, lambda e: seen.append(type(e).__name__))
            kernel.schedule(event_type(time=1.0, stream="s"))
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
        kernel.on(FrameReady, lambda e: seen.append(e.stream))
        for name in ("a", "b", "c"):
            kernel.schedule(FrameReady(time=2.0, stream=name))
        kernel.run()
        assert seen == ["a", "b", "c"]

    def test_time_orders_before_priority(self):
        kernel = SimulationKernel()
        seen = []
        kernel.on(FrameReady, lambda e: seen.append("frame"))
        kernel.on(StreamEnd, lambda e: seen.append("end"))
        kernel.schedule(FrameReady(time=2.0, stream="s"))
        kernel.schedule(StreamEnd(time=1.0, stream="s"))
        kernel.run()
        assert seen == ["end", "frame"]

    def test_scheduling_into_the_past_raises(self):
        kernel = SimulationKernel()
        kernel.on(FrameReady, lambda e: None)
        kernel.schedule(FrameReady(time=1.0, stream="s"))
        kernel.run()
        with pytest.raises(ValueError):
            kernel.schedule(FrameReady(time=0.5, stream="s"))

    def test_stream_filtered_handlers(self):
        kernel = SimulationKernel()
        mine, everyone = [], []
        kernel.on(FrameReady, lambda e: mine.append(e.stream), stream="a")
        kernel.on(FrameReady, lambda e: everyone.append(e.stream))
        kernel.schedule(FrameReady(time=0.0, stream="a"))
        kernel.schedule(FrameReady(time=0.0, stream="b"))
        kernel.run()
        assert mine == ["a"]
        assert everyone == ["a", "b"]

    def test_handlers_can_schedule_followups(self):
        kernel = SimulationKernel()
        seen = []
        kernel.on(FrameReady, lambda e: kernel.schedule(DispatchBatch(time=e.time, stream=e.stream)))
        kernel.on(DispatchBatch, lambda e: seen.append(e.time))
        kernel.schedule(FrameReady(time=3.0, stream="s"))
        end = kernel.run()
        assert seen == [3.0]
        assert end == 3.0
        assert kernel.pending_events == 0


class TestRoutingTable:
    """The O(1) routing table must reproduce the linear scan's delivery
    semantics exactly: registration-order FIFO across per-stream and
    wildcard handlers, including handlers registered mid-run."""

    def test_interleaved_wildcard_and_stream_registration_order(self):
        kernel = SimulationKernel()
        seen = []
        kernel.on(FrameReady, lambda e: seen.append("wild0"))
        kernel.on(FrameReady, lambda e: seen.append("a0"), stream="a")
        kernel.on(FrameReady, lambda e: seen.append("wild1"))
        kernel.on(FrameReady, lambda e: seen.append("b0"), stream="b")
        kernel.on(FrameReady, lambda e: seen.append("a1"), stream="a")
        kernel.schedule(FrameReady(time=0.0, stream="a"))
        kernel.schedule(FrameReady(time=1.0, stream="b"))
        kernel.run()
        # Stream "a": registration order wild0, a0, wild1, a1.
        # Stream "b": wild0, wild1, b0.
        assert seen == ["wild0", "a0", "wild1", "a1", "wild0", "wild1", "b0"]

    def test_matches_legacy_scan_delivery_order(self):
        from oracles.runtime import LegacyScanKernel

        def drive(kernel):
            seen = []
            kernel.on(FrameReady, lambda e: seen.append(("w0", e.stream)))
            kernel.on(FrameReady, lambda e: seen.append(("s-a", e.stream)), stream="a")
            kernel.on(DispatchBatch, lambda e: seen.append(("d", e.stream)))
            kernel.on(FrameReady, lambda e: seen.append(("w1", e.stream)))
            kernel.on(FrameReady, lambda e: seen.append(("s-b", e.stream)), stream="b")
            for t, s in [(0.0, "a"), (0.0, "b"), (1.0, "c"), (1.0, "a")]:
                kernel.schedule(FrameReady(time=t, stream=s))
            kernel.schedule(DispatchBatch(time=0.5, stream="a"))
            kernel.run()
            return seen

        assert drive(SimulationKernel()) == drive(LegacyScanKernel())

    def test_handler_registered_mid_run_sees_later_events(self):
        kernel = SimulationKernel()
        seen = []

        def register_late(event):
            seen.append("first")
            kernel.on(FrameReady, lambda e: seen.append("late"), stream="s")

        kernel.on(FrameReady, register_late, stream="s")
        kernel.schedule(FrameReady(time=0.0, stream="s"))
        kernel.schedule(FrameReady(time=1.0, stream="s"))
        kernel.run()
        # The late handler appends to the already-built route: it is invoked
        # for the event that registered it (same semantics as the old list
        # scan, which saw appends during iteration) and for every later one.
        assert seen == ["first", "late", "first", "late", "late"]

    def test_wildcard_registered_after_route_built_is_patched_in(self):
        kernel = SimulationKernel()
        seen = []
        kernel.on(FrameReady, lambda e: seen.append("stream"), stream="s")
        kernel.schedule(FrameReady(time=0.0, stream="s"))
        kernel.run()  # builds the ("s", FrameReady) route
        kernel.on(FrameReady, lambda e: seen.append("wild"))
        kernel.schedule(FrameReady(time=2.0, stream="s"))
        kernel.schedule(FrameReady(time=2.0, stream="t"))  # fresh route
        kernel.run()
        assert seen == ["stream", "stream", "wild", "wild"]

    def test_stream_handler_registered_after_route_built_is_patched_in(self):
        kernel = SimulationKernel()
        seen = []
        kernel.on(FrameReady, lambda e: seen.append("wild"))
        kernel.schedule(FrameReady(time=0.0, stream="s"))
        kernel.run()
        kernel.on(FrameReady, lambda e: seen.append("stream"), stream="s")
        kernel.schedule(FrameReady(time=1.0, stream="s"))
        kernel.run()
        assert seen == ["wild", "wild", "stream"]


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

    def test_detail_free_mode_keeps_timeline(self):
        trace = KernelTrace(record_details=False)
        kernel = SimulationKernel(trace=trace)
        kernel.schedule(QueueEvict(time=0.5, stream="s", num_frames=3, reason="stale"))
        kernel.run()
        assert trace.counts() == {"QueueEvict": 1}
        assert trace.entries[0].detail == ""
        assert trace.entries[0].stream == "s"

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
        latency_model = LatencyModel()
        energy_model = EnergyModel(latency_model)
        table = LayerCostTable(latency_model, energy_model, occupancy_resolution=1 / 32)
        gpu = platform.gpu()
        layers = [s for s in network.layers() if s.kind.is_compute]
        for precision in Precision.ordered():
            for occupancy in (0.0, 0.013, 0.26, 0.5, 0.777, 1.0):
                for spec in layers:
                    cost = table.layer_cost(
                        spec, gpu, precision, sparse=True, occupancy=occupancy, batch=2
                    )
                    bucket = table.bucket(occupancy)
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
        cost = table.layer_cost(spec, gpu, Precision.FP16, sparse=True, occupancy=0.1234)
        direct = table.latency_model.layer_latency(
            spec, gpu, Precision.FP16, sparse=True, occupancy=0.1234
        ).total
        assert cost.latency == direct

    def test_cache_hits_accumulate(self, platform, network):
        table = LayerCostTable(occupancy_resolution=1 / 16)
        gpu = platform.gpu()
        spec = next(s for s in network.layers() if s.kind.is_compute)
        table.layer_cost(spec, gpu, Precision.FP16, occupancy=0.50)
        assert table.cache_info()["misses"] == 1
        # 0.47 and 0.50 land in the same 1/16 bucket.
        table.layer_cost(spec, gpu, Precision.FP16, occupancy=0.47)
        assert table.cache_info()["hits"] == 1
        assert table.cache_info()["entries"] == 1

    def test_bucket_clamps_and_quantizes(self):
        table = LayerCostTable(occupancy_resolution=0.25)
        assert table.bucket(None) is None
        assert table.bucket(-1.0) == 0.0
        assert table.bucket(2.0) == 1.0
        assert table.bucket(0.3) == 0.25
        exact = LayerCostTable()
        assert exact.bucket(0.3) == 0.3

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
        tiny = table.layer_cost(spec, gpu, Precision.FP16, sparse=True, occupancy=1e-4)
        first_bucket = table.layer_cost(
            spec, gpu, Precision.FP16, sparse=True, occupancy=1.0 / 64.0
        )
        zero = table.layer_cost(spec, gpu, Precision.FP16, sparse=True, occupancy=0.0)
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
                    spec, gpu, config.baseline_precision,
                    sparse=True, occupancy=occ, batch=batch,
                ).total
                expected_energy += energy_model.layer_energy(
                    spec, gpu, config.baseline_precision,
                    sparse=True, occupancy=occ, batch=batch,
                ).total
                first = False
            latency, energy = model.inference_cost(occupancy, batch)
            assert latency == pytest.approx(expected_latency, rel=1e-12)
            assert energy == pytest.approx(expected_energy, rel=1e-12)

    def test_repeated_calls_are_cached(self, platform, network):
        model = NetworkCostModel(network, platform)
        first = model.inference_cost(0.1, 1)
        misses = model.table.cache_info()["misses"]
        second = model.inference_cost(0.1, 1)
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

    def test_signature_distinguishes_configs(self, platform, network):
        a = NetworkCostModel(network, platform)
        b = NetworkCostModel(
            network, platform, config=EvEdgeConfig(optimization=OptimizationLevel.E2SF)
        )
        c = NetworkCostModel(network, platform)
        assert a.signature() != b.signature()
        assert a.signature() == c.signature()

    def test_signature_distinguishes_same_name_different_structure(self, platform):
        # The same zoo model built at two resolutions shares a name but must
        # not share a cost model / execution server.
        small = NetworkCostModel(build_network("dotie", 64, 64), platform)
        large = NetworkCostModel(build_network("dotie", 192, 192), platform)
        assert small.signature() != large.signature()
