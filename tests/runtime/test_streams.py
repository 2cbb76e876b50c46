"""Tests for traffic streams and the multi-stream traffic simulator."""

from __future__ import annotations

import pytest

from repro.core import DSFAConfig, EvEdgeConfig, OptimizationLevel
from repro.core.nmp.candidate import Assignment, MappingCandidate
from repro.events import generate_sequence
from repro.frames.sparse import SparseFrameBatch
from repro.hw import jetson_xavier_agx
from repro.models import build_network
from repro.nn import LayerGraph, LayerKind, LayerSpec, Precision
from repro.runtime import (
    KernelTrace,
    MultiStreamSimulator,
    NetworkCostModel,
    SignatureServer,
    SimulationKernel,
    StreamClient,
    StreamSource,
)


@pytest.fixture(scope="module")
def platform():
    return jetson_xavier_agx()


@pytest.fixture(scope="module")
def sequence():
    return generate_sequence("indoor_flying1", scale=0.12, duration=0.4, seed=0)


@pytest.fixture(scope="module")
def fast_sequence():
    return generate_sequence("high_speed_disk", scale=0.12, duration=0.4, seed=1)


@pytest.fixture(scope="module")
def network():
    return build_network("spikeflownet", 64, 64)


def make_sources(sequence, network, n, level=OptimizationLevel.E2SF_DSFA, **config_kwargs):
    config = EvEdgeConfig(num_bins=5, optimization=level, **config_kwargs)
    return [
        StreamSource(
            name=f"s{i}",
            sequence=sequence,
            network=network,
            config=config,
            start_offset=0.002 * i,
        )
        for i in range(n)
    ]


class TestStreamSource:
    def test_generates_all_bins(self, sequence, network):
        source = StreamSource("s", sequence, network, EvEdgeConfig(num_bins=5))
        stack, _ = source.generate_stack()
        assert len(stack) == 5 * sequence.num_intervals
        arrivals = source.arrival_times()
        assert arrivals == sorted(arrivals)

    def test_start_offset_shifts_arrivals(self, sequence, network):
        base = StreamSource("a", sequence, network, EvEdgeConfig(num_bins=5))
        shifted = StreamSource(
            "b", sequence, network, EvEdgeConfig(num_bins=5), start_offset=0.25
        )
        t0 = base.arrival_times()[0]
        t1 = shifted.arrival_times()[0]
        assert t1 == pytest.approx(t0 + 0.25)
        assert shifted.end_time == pytest.approx(base.end_time + 0.25)


class TestMultiStreamSimulator:
    def test_sixteen_streams_get_individual_reports(self, platform, sequence, fast_sequence):
        nets = [build_network(n, 64, 64) for n in ("spikeflownet", "dotie")]
        sources = []
        for i in range(16):
            sources.append(
                StreamSource(
                    name=f"s{i:02d}",
                    sequence=sequence if i % 2 == 0 else fast_sequence,
                    network=nets[i % 2],
                    config=EvEdgeConfig(num_bins=5, optimization=OptimizationLevel.E2SF_DSFA),
                    start_offset=0.001 * i,
                )
            )
        report = MultiStreamSimulator(platform, sources).run()
        assert report.num_streams == 16
        assert set(report.reports) == {f"s{i:02d}" for i in range(16)}
        for source in sources:
            stream_report = report.reports[source.name]
            assert (
                stream_report.frames_generated == 5 * source.sequence.num_intervals
            )
            assert stream_report.num_inferences > 0
        assert report.total_inferences == sum(
            r.num_inferences for r in report.reports.values()
        )
        assert report.throughput > 0
        assert report.makespan <= report.end_time + 1e-12

    def test_shared_pe_serializes_inferences(self, platform, sequence, network):
        # All streams map all-GPU, so no two inference windows may overlap
        # (merged batches share identical windows).
        sources = make_sources(sequence, network, 4)
        report = MultiStreamSimulator(platform, sources).run()
        windows = sorted(
            {
                (r.start_time, r.end_time)
                for stream in report.reports.values()
                for r in stream.records
            }
        )
        for (s0, e0), (s1, e1) in zip(windows, windows[1:]):
            assert s1 >= e0 - 1e-12

    def test_cross_stream_batching_merges_dispatches(self, platform, sequence):
        # A heavy network with synchronized streams: dispatches pile up
        # while the GPU is busy and get merged when it frees.
        heavy = build_network("spikeflownet", 192, 192)
        config = EvEdgeConfig(num_bins=5, optimization=OptimizationLevel.E2SF_DSFA)
        sources = [
            StreamSource(f"s{i}", sequence, heavy, config) for i in range(8)
        ]
        merged = MultiStreamSimulator(platform, sources, max_merge_streams=8).run()
        unmerged = MultiStreamSimulator(platform, sources, max_merge_streams=1).run()
        # With merging enabled, several streams share one execution window.
        merged_windows = [
            (r.start_time, r.end_time)
            for stream in merged.reports.values()
            for r in stream.records
        ]
        assert len(merged_windows) > len(set(merged_windows))
        # Without merging every window is unique to one record.
        unmerged_windows = [
            (r.start_time, r.end_time)
            for stream in unmerged.reports.values()
            for r in stream.records
        ]
        assert len(unmerged_windows) == len(set(unmerged_windows))

    def test_disjoint_pe_mappings_run_concurrently(self, platform, sequence):
        # Two tiny ANN networks, one pinned to the GPU and one to the DLA:
        # their executions may overlap in time.
        def tiny(name):
            g = LayerGraph(name, task="optical_flow")
            g.add_layer(LayerSpec("in", LayerKind.INPUT))
            g.add_layer(
                LayerSpec("conv1", LayerKind.CONV2D, 2, 16, 64, 64), inputs=["in"]
            )
            g.add_layer(
                LayerSpec("conv2", LayerKind.CONV2D, 16, 16, 64, 64), inputs=["conv1"]
            )
            return g

        net_gpu, net_dla = tiny("tiny_gpu"), tiny("tiny_dla")
        dla_mapping = MappingCandidate(
            {
                f"tiny_dla.{layer}": Assignment("dla0", Precision.FP16)
                for layer in ("conv1", "conv2")
            }
        )
        config = EvEdgeConfig(num_bins=5, optimization=OptimizationLevel.FULL)
        sources = [
            StreamSource("on_gpu", sequence, net_gpu, config),
            StreamSource("on_dla", sequence, net_dla, config, mapping=dla_mapping),
        ]
        report = MultiStreamSimulator(platform, sources).run()
        gpu_records = report.reports["on_gpu"].records
        dla_records = report.reports["on_dla"].records
        assert gpu_records and dla_records
        overlaps = any(
            a.start_time < b.end_time and b.start_time < a.end_time
            for a in gpu_records
            for b in dla_records
        )
        assert overlaps

    def test_backlog_bound_drops_frames(self, platform, sequence):
        # A heavy network without DSFA on many synchronized streams exceeds
        # the bounded pending queue and sheds load instead of diverging.
        heavy = build_network("adaptive_spikenet", 128, 128)
        config = EvEdgeConfig(
            num_bins=10,
            optimization=OptimizationLevel.E2SF,
            dsfa=DSFAConfig(inference_queue_depth=1),
        )
        sources = [
            StreamSource(f"s{i}", sequence, heavy, config) for i in range(6)
        ]
        report = MultiStreamSimulator(platform, sources).run()
        assert report.frames_dropped > 0
        for stream in report.reports.values():
            assert (
                stream.num_inferences + stream.frames_dropped
                <= stream.frames_generated
            )

    def test_trace_records_multi_stream_events(self, platform, sequence, network):
        sources = make_sources(sequence, network, 2)
        trace = KernelTrace()
        MultiStreamSimulator(platform, sources).run(trace=trace)
        counts = trace.counts()
        assert counts["FrameReady"] == 2 * 5 * sequence.num_intervals
        assert counts["StreamEnd"] == 2
        assert counts.get("InferenceDone", 0) > 0
        assert set(trace.by_stream()) >= {"s0", "s1"}

    def test_duplicate_stream_names_rejected(self, platform, sequence, network):
        sources = [
            StreamSource("dup", sequence, network, EvEdgeConfig()),
            StreamSource("dup", sequence, network, EvEdgeConfig()),
        ]
        with pytest.raises(ValueError):
            MultiStreamSimulator(platform, sources)

    def test_empty_sources_rejected(self, platform):
        with pytest.raises(ValueError):
            MultiStreamSimulator(platform, [])

    def test_offset_fleet_reports_active_window_throughput(
        self, platform, sequence, network
    ):
        # A fleet that joins at t=100s must report the same throughput as the
        # identical fleet starting at t=0: the denominator is the active
        # window, not the absolute makespan.
        base_sources = make_sources(sequence, network, 3)
        offset_sources = [
            StreamSource(
                name=s.name,
                sequence=s.sequence,
                network=s.network,
                config=s.config,
                start_offset=s.start_offset + 100.0,
            )
            for s in base_sources
        ]
        base = MultiStreamSimulator(platform, base_sources).run()
        offset = MultiStreamSimulator(platform, offset_sources).run()
        assert base.throughput > 0
        assert offset.start_time == pytest.approx(100.0)
        assert offset.active_window == pytest.approx(base.active_window)
        assert offset.throughput == pytest.approx(base.throughput)
        # The absolute-makespan denominator would have crushed the number.
        naive = (offset.frames_generated - offset.frames_dropped) / offset.makespan
        assert offset.throughput > 50 * naive

    def test_stop_time_truncates_stream(self, platform, sequence, network):
        full = StreamSource("s", sequence, network, EvEdgeConfig(num_bins=5))
        arrivals = full.arrival_times()
        cutoff = arrivals[len(arrivals) // 2]
        truncated = StreamSource(
            "s", sequence, network, EvEdgeConfig(num_bins=5), stop_time=cutoff
        )
        kept = truncated.arrival_times()
        assert 0 < len(kept) < len(arrivals)
        assert len(truncated.generate_stack()[0]) == len(kept)
        assert all(arrival <= cutoff for arrival in kept)
        assert truncated.end_time == pytest.approx(cutoff)

    def test_zero_frame_stream_still_ends(self, platform, sequence, network):
        # A churn window that closes before the first arrival produces no
        # frames, but the stream must still announce StreamEnd (leave-side
        # remap triggers and traces depend on it).
        config = EvEdgeConfig(num_bins=5, optimization=OptimizationLevel.E2SF_DSFA)
        sources = [
            StreamSource("empty", sequence, network, config, stop_time=-1.0),
            StreamSource("live", sequence, network, config),
        ]
        trace = KernelTrace()
        report = MultiStreamSimulator(platform, sources).run(trace=trace)
        assert report.reports["empty"].frames_generated == 0
        assert report.reports["empty"].num_inferences == 0
        ends = [e for e in trace.entries if e.kind == "StreamEnd"]
        assert {e.stream for e in ends} == {"empty", "live"}

    def test_component_classes_drive_setup(self, platform, sequence, network):
        # The simulator builds every component from its class attributes,
        # so a subclass can swap any of them without a constructor knob.
        class CountingClient(StreamClient):
            primed = 0

            def prime(self):
                CountingClient.primed += 1
                super().prime()

        class CountingSimulator(MultiStreamSimulator):
            client_class = CountingClient

        sources = make_sources(sequence, network, 3)
        simulator = CountingSimulator(platform, sources)
        kernel, clients, _ = simulator._setup(None)
        assert type(kernel) is SimulationKernel
        assert all(type(c) is CountingClient for c in clients)
        assert all(type(c.executor) is SignatureServer for c in clients)
        assert all(type(c.cost_model) is NetworkCostModel for c in clients)
        assert CountingClient.primed == 3
        report = CountingSimulator(platform, sources).run()
        plain = MultiStreamSimulator(platform, sources).run()
        assert report.reports["s0"].records == plain.reports["s0"].records

    def test_energy_is_conserved_across_merges(self, platform, sequence, network):
        # Splitting a merged inference's energy across member streams must
        # preserve the total paid for the batched run.
        sources = make_sources(sequence, network, 4)
        merged = MultiStreamSimulator(platform, sources, max_merge_streams=4).run()
        assert merged.total_energy > 0
        for stream in merged.reports.values():
            for record in stream.records:
                assert record.energy > 0


def _manual_server(platform, sequence, network, max_merge_streams, num_clients):
    """A SignatureServer plus N clients sharing it, driven by hand."""
    kernel = SimulationKernel()
    config = EvEdgeConfig(num_bins=5, optimization=OptimizationLevel.E2SF)
    model = NetworkCostModel(network, platform, config=config)
    server = SignatureServer(
        kernel, model, name="server:test", max_merge_streams=max_merge_streams
    )
    clients = []
    for i in range(num_clients):
        source = StreamSource(f"c{i}", sequence, network, config)
        clients.append(StreamClient(source, kernel, server, model))
    stack = StreamSource("feed", sequence, network, config).generate_stack()[0]
    return kernel, server, clients, stack


class TestMultiStreamBaselines:
    """Bracket audit of the multi-stream baselines in both cost modes."""

    def test_baselines_default_to_profile_mode_and_record_it(
        self, platform, sequence, network
    ):
        from repro.baselines import run_streams_isolated, run_streams_unbatched

        sources = make_sources(sequence, network, 3)
        isolated = run_streams_isolated(sources, platform)
        unbatched = run_streams_unbatched(sources, platform)
        assert unbatched.cost_mode == "profile"
        for report in isolated.values():
            assert report.cost_mode == "profile"
        for report in unbatched.reports.values():
            assert report.cost_mode == "profile"

    @pytest.mark.parametrize("cost_mode", ["flat", "profile"])
    def test_isolated_floor_brackets_shared_platform(
        self, platform, sequence, network, cost_mode
    ):
        # Flat-vs-profile bracket audit: under either semantics the
        # no-contention baseline is a per-stream latency floor for the
        # shared (unbatched) platform — the bracket must survive the
        # profile-mode flip, not just the seed's flat path.
        from repro.baselines import run_streams_isolated, run_streams_unbatched

        sources = make_sources(sequence, network, 4)
        isolated = run_streams_isolated(sources, platform, cost_mode=cost_mode)
        unbatched = run_streams_unbatched(sources, platform, cost_mode=cost_mode)
        for source in sources:
            floor = isolated[source.name].mean_latency
            contended = unbatched.reports[source.name].mean_latency
            assert floor > 0
            assert contended >= floor - 1e-12

    def test_stream_reports_record_simulator_cost_mode(
        self, platform, sequence, network
    ):
        sources = make_sources(sequence, network, 2)
        report = MultiStreamSimulator(
            platform, sources, cost_mode="profile"
        ).run()
        for stream_report in report.reports.values():
            assert stream_report.cost_mode == "profile"


class TestSignatureServerMerging:
    def test_merged_latency_attributed_per_member_share(
        self, platform, sequence, network
    ):
        # Regression for the backlog estimator: after a cross-stream merge
        # each member's note_dispatch must see its *share* of the batched
        # latency, not the full batch latency — otherwise the per-dispatch
        # service estimate (_last_duration) is inflated by the merge and the
        # drop rule misbehaves on the frames that follow.
        kernel, server, clients, stack = _manual_server(
            platform, sequence, network, max_merge_streams=2, num_clients=3
        )
        a, b, c = clients
        server.dispatch(a, SparseFrameBatch.from_stack(stack, 0, 1), 0.0)
        busy = server.busy_until()
        assert busy > 0
        # Both dispatches queue while the server is busy, then merge.
        server.dispatch(b, SparseFrameBatch.from_stack(stack, 1, 2), 0.0)
        server.dispatch(c, SparseFrameBatch.from_stack(stack, 2, 3), 0.0)
        kernel.run()
        assert server.merged_dispatches == 2
        (rec_b,) = b.report.records
        (rec_c,) = c.report.records
        assert (rec_b.start_time, rec_b.end_time) == (rec_c.start_time, rec_c.end_time)
        batch_latency = rec_b.end_time - rec_b.start_time
        # Equal one-frame members: each share is half the batched latency.
        assert b._last_duration == pytest.approx(batch_latency / 2)
        assert c._last_duration == pytest.approx(batch_latency / 2)
        assert b._last_duration + c._last_duration == pytest.approx(batch_latency)

    def test_merge_budget_counts_distinct_streams(self, platform, sequence, network):
        # One stream's backlog must not consume the whole cross-stream merge
        # budget: the merge takes the oldest pending dispatch of each of the
        # first max_merge_streams *distinct* streams.
        kernel, server, clients, stack = _manual_server(
            platform, sequence, network, max_merge_streams=2, num_clients=2
        )
        a, b = clients
        server.dispatch(a, SparseFrameBatch.from_stack(stack, 0, 1), 0.0)
        server.dispatch(a, SparseFrameBatch.from_stack(stack, 1, 2), 0.0)  # pending A#1
        server.dispatch(a, SparseFrameBatch.from_stack(stack, 2, 3), 0.0)  # pending A#2
        server.dispatch(b, SparseFrameBatch.from_stack(stack, 3, 4), 0.0)  # pending B#1
        kernel.run()
        a_records = sorted(a.report.records, key=lambda r: r.start_time)
        (rec_b,) = b.report.records
        assert len(a_records) == 3
        # B's dispatch shares the first post-solo window with A's oldest
        # pending dispatch instead of starving behind A's backlog.
        assert (rec_b.start_time, rec_b.end_time) == (
            a_records[1].start_time,
            a_records[1].end_time,
        )
        # A's second pending dispatch runs in a later, separate window.
        assert a_records[2].start_time >= a_records[1].end_time - 1e-12

    def test_max_merge_one_never_batches(self, platform, sequence, network):
        kernel, server, clients, stack = _manual_server(
            platform, sequence, network, max_merge_streams=1, num_clients=2
        )
        a, b = clients
        server.dispatch(a, SparseFrameBatch.from_stack(stack, 0, 1), 0.0)
        server.dispatch(a, SparseFrameBatch.from_stack(stack, 1, 2), 0.0)
        server.dispatch(b, SparseFrameBatch.from_stack(stack, 2, 3), 0.0)
        kernel.run()
        assert server.merged_dispatches == 0
        windows = [
            (r.start_time, r.end_time)
            for client in (a, b)
            for r in client.report.records
        ]
        assert len(windows) == len(set(windows)) == 3


class TestBacklogEstimate:
    """The no-DSFA drop rule must see queued work, not just the busy frontier."""

    def test_serial_executor_matches_seed_rule(self, platform, sequence, network):
        # SerialExecutor has no pending queue: the estimate is exactly the
        # seed pipeline's ``busy_until - arrival`` (keeping EvEdgePipeline
        # record-for-record identical to the seed).
        from repro.runtime import SerialExecutor

        kernel = SimulationKernel()
        executor = SerialExecutor(kernel)
        kernel.acquire(("platform",), 0.0, 2.0)
        assert executor.backlog_estimate(None, 0.5) == kernel.busy_until("platform") - 0.5
        assert executor.backlog_estimate(None, 3.0) == kernel.busy_until("platform") - 3.0

    def test_server_estimate_includes_queued_service_time(
        self, platform, sequence, network
    ):
        kernel, server, clients, stack = _manual_server(
            platform, sequence, network, max_merge_streams=1, num_clients=3
        )
        a, b, c = clients
        server.dispatch(a, SparseFrameBatch.from_stack(stack, 0, 1), 0.0)
        busy = server.busy_until()
        assert busy > 0
        assert server.queued_service_estimate() == 0.0
        # Warm the senders' service estimates, then enqueue while busy.
        b.note_dispatch(0.5)
        c.note_dispatch(0.25)
        server.dispatch(b, SparseFrameBatch.from_stack(stack, 1, 2), 0.0)
        assert server.queued_service_estimate() == 0.5
        server.dispatch(c, SparseFrameBatch.from_stack(stack, 2, 3), 0.0)
        assert server.queued_service_estimate() == 0.5 + 0.25
        # The estimate a prospective sender sees covers busy lead + queue.
        assert server.backlog_estimate(b, 0.0) == busy + 0.75
        assert server.pending_count == 2
        kernel.run()
        assert server.pending_count == 0
        assert server.queued_service_estimate() == 0.0

    def test_eviction_releases_queued_service_estimate(
        self, platform, sequence, network
    ):
        kernel = SimulationKernel()
        config = EvEdgeConfig(
            num_bins=5,
            optimization=OptimizationLevel.E2SF,
            dsfa=DSFAConfig(inference_queue_depth=1),
        )
        model = NetworkCostModel(network, platform, config=config)
        server = SignatureServer(kernel, model, name="server:test", max_merge_streams=1)
        source = StreamSource("c0", sequence, network, config)
        client = StreamClient(source, kernel, server, model)
        stack = source.generate_stack()[0]
        server.dispatch(client, SparseFrameBatch.from_stack(stack, 0, 1), 0.0)  # executes
        client.note_dispatch(0.5)
        server.dispatch(client, SparseFrameBatch.from_stack(stack, 1, 2), 0.0)  # pending
        client.note_dispatch(0.3)
        # Depth 1: the pending entry (estimate 0.5) is evicted, replaced by
        # the new one (estimate 0.3).
        server.dispatch(client, SparseFrameBatch.from_stack(stack, 2, 3), 0.0)
        assert server.pending_count == 1
        assert server.queued_service_estimate() == pytest.approx(0.3)
        assert client.report.frames_dropped == 1


class TestDropAccountingConsistency:
    @staticmethod
    def _evicted_frames_by_stream(trace):
        totals = {}
        reasons = set()
        for entry in trace.entries:
            if entry.kind != "QueueEvict":
                continue
            fields = dict(part.split("=", 1) for part in entry.detail.split())
            totals[entry.stream] = totals.get(entry.stream, 0) + int(fields["frames"])
            reasons.add(fields["reason"])
        return totals, reasons

    def test_frames_dropped_match_evict_events_on_both_paths(
        self, platform, sequence
    ):
        # frames_dropped totals must equal the QueueEvict frame counts in the
        # kernel trace for every stream, across both eviction paths: the
        # client-side backlog rule (no-DSFA streams) and the server-side
        # bounded pending queue (queue-full).
        heavy = build_network("adaptive_spikenet", 128, 128)
        depth = DSFAConfig(inference_queue_depth=1)
        no_dsfa = EvEdgeConfig(
            num_bins=10, optimization=OptimizationLevel.E2SF, dsfa=depth
        )
        with_dsfa = EvEdgeConfig(
            num_bins=10, optimization=OptimizationLevel.E2SF_DSFA, dsfa=depth
        )
        sources = [
            StreamSource(f"raw{i}", sequence, heavy, no_dsfa) for i in range(4)
        ] + [
            StreamSource(f"agg{i}", sequence, heavy, with_dsfa, start_offset=0.001 * i)
            for i in range(8)
        ]
        trace = KernelTrace()
        report = MultiStreamSimulator(platform, sources).run(trace=trace)
        evicted, reasons = self._evicted_frames_by_stream(trace)
        assert report.frames_dropped > 0
        assert {"backlog", "queue-full"} <= reasons
        for name, stream in report.reports.items():
            assert stream.frames_dropped == evicted.get(name, 0), name
        assert report.frames_dropped == sum(evicted.values())


class TestStackTransportAccounting:
    """Aggregate invariants of the end-to-end stack data plane."""

    @staticmethod
    def _aggregates(report):
        return (
            report.num_streams,
            report.total_inferences,
            report.frames_generated,
            report.frames_dropped,
            report.total_energy,
            report.makespan,
            report.mean_latency,
            report.throughput,
        )

    def test_retain_records_toggle_keeps_aggregates(self, platform, sequence, network):
        kept = MultiStreamSimulator(
            platform, make_sources(sequence, network, 6), retain_records=True
        ).run()
        slim = MultiStreamSimulator(
            platform, make_sources(sequence, network, 6), retain_records=False
        ).run()
        assert self._aggregates(kept) == self._aggregates(slim)
        assert any(len(r.records) > 0 for r in kept.reports.values())
        assert all(len(r.records) == 0 for r in slim.reports.values())

    def test_stack_index_evictions_match_drop_totals(self, platform, sequence):
        # Stack-index transport must keep the QueueEvict accounting exact:
        # every dropped frame corresponds to an evicted stack index.
        heavy = build_network("adaptive_spikenet", 128, 128)
        config = EvEdgeConfig(
            num_bins=10,
            optimization=OptimizationLevel.E2SF_DSFA,
            dsfa=DSFAConfig(inference_queue_depth=1),
        )
        sources = [
            StreamSource(f"s{i}", sequence, heavy, config, start_offset=0.001 * i)
            for i in range(8)
        ]
        trace = KernelTrace()
        report = MultiStreamSimulator(platform, sources).run(trace=trace)
        evicted = sum(
            int(dict(p.split("=", 1) for p in e.detail.split())["frames"])
            for e in trace.entries
            if e.kind == "QueueEvict"
        )
        assert report.frames_dropped > 0
        assert report.frames_dropped == evicted


class _BusyStubExecutor:
    """Executor stub with a fixed busy frontier that records dispatches."""

    def __init__(self, busy_until: float) -> None:
        self._busy_until = busy_until
        self.dispatches = []

    def busy_until(self, client=None) -> float:
        return self._busy_until

    def dispatch(self, client, batch, time: float) -> None:
        self.dispatches.append((time, len(batch)))


class TestHardwareAvailability:
    """DSFA dispatches early exactly when the hardware is free at arrival."""

    @pytest.mark.parametrize("lead, expected", [(0.0, 1), (1e-6, 0)])
    def test_frame_arriving_at_busy_until_dispatches(
        self, platform, sequence, network, lead, expected
    ):
        # The executor frees up ``lead`` after the first frame arrives.  At
        # lead 0 the hardware counts as available, so the one buffered frame
        # dispatches on its own; any later frontier keeps it buffered (the
        # buffer holds 8 frames).
        config = EvEdgeConfig(
            num_bins=5,
            optimization=OptimizationLevel.E2SF_DSFA,
            dsfa=DSFAConfig(event_buffer_size=8, merge_bucket_size=4),
        )
        source = StreamSource("s", sequence, network, config)
        first = source.arrival_times()[0]
        kernel = SimulationKernel()
        executor = _BusyStubExecutor(busy_until=first + lead)
        model = NetworkCostModel(network, platform, config=config)
        StreamClient(source, kernel, executor, model).prime()
        kernel.run(until=first)
        assert executor.dispatches == [(first, 1)] * expected
