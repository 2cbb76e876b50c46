"""Tests for the runtime executor, RR mapping policies, tracer and static baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import CountBasedAggregator, FixedIntervalAggregator
from repro.events import EventStream, SensorGeometry
from repro.hw import jetson_xavier_agx
from repro.models import build_network
from repro.nn import MultiTaskGraph, Precision, TaskSpec
from repro.runtime import (
    MappedExecutor,
    all_gpu_mapping,
    format_gantt,
    rr_layer_mapping,
    rr_network_mapping,
    timeline_by_device,
    utilisation,
)
from repro.runtime.schedulers import _precision_on


@pytest.fixture(scope="module")
def platform():
    return jetson_xavier_agx()


@pytest.fixture(scope="module")
def graph():
    return MultiTaskGraph(
        [
            TaskSpec(build_network("dotie", 64, 64)),
            TaskSpec(build_network("halsie", 64, 64)),
        ]
    )


@pytest.fixture(scope="module")
def executor(graph, platform):
    return MappedExecutor(graph, platform)


class TestMappingPolicies:
    def test_all_gpu_mapping_targets_gpu_only(self, graph, platform):
        mapping = all_gpu_mapping(graph, platform)
        assert set(a.pe for a in mapping.assignments.values()) == {"gpu"}

    def test_rr_network_assigns_whole_networks(self, graph, platform):
        mapping = rr_network_mapping(graph, platform)
        per_network = {}
        for node, assignment in mapping.assignments.items():
            network = node.split(".")[0]
            per_network.setdefault(network, set()).add(assignment.pe)
        # Each network uses at most two devices (its RR target + GPU fallback for SNN layers).
        for devices in per_network.values():
            assert len(devices) <= 2

    def test_rr_layer_uses_multiple_devices(self, graph, platform):
        mapping = rr_layer_mapping(graph, platform)
        assert len(set(a.pe for a in mapping.assignments.values())) > 1

    def test_rr_layer_respects_device_restriction(self, graph, platform):
        mapping = rr_layer_mapping(graph, platform, devices=["gpu", "dla0"])
        assert set(a.pe for a in mapping.assignments.values()) <= {"gpu", "dla0"}

    def test_rr_policies_never_put_snn_on_dla(self, graph, platform):
        for mapping in (
            rr_network_mapping(graph, platform),
            rr_layer_mapping(graph, platform),
        ):
            for node, assignment in mapping.assignments.items():
                if graph.spec(node).is_spiking:
                    assert assignment.pe != "dla0"

    def test_precision_fallback_on_dla(self, graph, platform):
        mapping = rr_layer_mapping(graph, platform, precision=Precision.FP32)
        for node, assignment in mapping.assignments.items():
            if assignment.pe == "dla0":
                assert assignment.precision != Precision.FP32

    def test_empty_device_list_rejected(self, graph, platform):
        with pytest.raises(ValueError):
            rr_layer_mapping(graph, platform, devices=[])


class TestPrecisionFallback:
    def test_supported_precision_is_kept(self, platform):
        gpu = platform.pe("gpu")
        for precision in gpu.supported_precisions:
            assert _precision_on(gpu, precision) == precision

    def test_unsupported_precision_falls_back_to_highest(self, platform):
        dla = platform.pe("dla0")
        assert not dla.supports_precision(Precision.FP32)
        fallback = _precision_on(dla, Precision.FP32)
        assert fallback == dla.highest_supported_precision()
        assert dla.supports_precision(fallback)

    def test_fallback_appears_in_mappings(self, graph, platform):
        # Requesting FP32 everywhere: DLA-assigned layers must silently run
        # at the DLA's best precision rather than an unsupported one.
        mapping = rr_layer_mapping(graph, platform, precision=Precision.FP32)
        dla_assignments = [
            a for a in mapping.assignments.values() if a.pe == "dla0"
        ]
        assert dla_assignments  # the cycle reached the DLA
        for assignment in dla_assignments:
            assert assignment.precision == platform.pe("dla0").highest_supported_precision()


class TestDeviceBusyTime:
    def test_busy_time_sums_timeline_durations(self, executor, graph, platform):
        report = executor.execute(rr_layer_mapping(graph, platform))
        busy = report.schedule.device_busy_time()
        assert set(busy) == {entry.queue for entry in report.schedule.timeline}
        for queue, total in busy.items():
            expected = sum(
                entry.duration
                for entry in report.schedule.timeline
                if entry.queue == queue
            )
            assert total == pytest.approx(expected, rel=1e-12)

    def test_busy_time_bounded_by_makespan(self, executor, graph, platform):
        # Every queue is serial, so no queue can be busy for longer than the
        # whole schedule takes.
        report = executor.execute(rr_layer_mapping(graph, platform))
        makespan = report.schedule.makespan
        for total in report.schedule.device_busy_time().values():
            assert total <= makespan + 1e-12

    def test_utilisation_accounting_matches_busy_time(self, executor, graph, platform):
        report = executor.execute(rr_layer_mapping(graph, platform))
        busy = report.schedule.device_busy_time()
        util = utilisation(report.schedule)
        makespan = report.schedule.makespan
        for queue, fraction in util.items():
            assert fraction == pytest.approx(busy[queue] / makespan, rel=1e-9)

    def test_transfers_accrue_to_memory_queue(self, executor, graph, platform):
        report = executor.execute(rr_layer_mapping(graph, platform))
        busy = report.schedule.device_busy_time()
        transfer_total = sum(
            entry.duration
            for entry in report.schedule.timeline
            if entry.kind == "transfer"
        )
        assert transfer_total > 0
        assert busy["unified_memory"] == pytest.approx(transfer_total, rel=1e-12)


class TestExecutor:
    def test_execute_returns_consistent_report(self, executor, graph, platform):
        report = executor.execute(all_gpu_mapping(graph, platform))
        assert report.latency > 0
        assert report.energy > 0
        assert set(report.task_latencies) == set(graph.task_names)
        assert report.makespan >= report.latency - 1e-12

    def test_sparse_execution_is_faster(self, executor, graph, platform):
        mapping = all_gpu_mapping(graph, platform)
        dense = executor.execute(mapping, sparse=False)
        sparse = executor.execute(mapping, sparse=True)
        assert sparse.latency < dense.latency


class TestTracer:
    def test_timeline_and_utilisation(self, executor, graph, platform):
        report = executor.execute(rr_layer_mapping(graph, platform))
        grouped = timeline_by_device(report.schedule)
        assert grouped
        for entries in grouped.values():
            starts = [e.start for e in entries]
            assert starts == sorted(starts)
        util = utilisation(report.schedule)
        assert all(0.0 <= u <= 1.0 + 1e-9 for u in util.values())

    def test_format_gantt_renders(self, executor, graph, platform):
        report = executor.execute(all_gpu_mapping(graph, platform))
        text = format_gantt(report.schedule, width=30, max_rows=5)
        assert "gpu" in text
        assert "#" in text


class TestStaticAggregators:
    @pytest.fixture()
    def stream(self):
        geometry = SensorGeometry(width=32, height=24)
        rng = np.random.default_rng(0)
        n = 10_000
        return EventStream(
            rng.integers(0, 32, n),
            rng.integers(0, 24, n),
            np.sort(rng.uniform(0, 1.0, n)),
            rng.choice([-1, 1], n),
            geometry,
        )

    def test_count_based_frames(self, stream):
        frames = CountBasedAggregator(events_per_frame=1000).aggregate(stream)
        assert len(frames) == 10
        assert sum(f.num_events for f in frames) == pytest.approx(len(stream))

    def test_fixed_interval_frames(self, stream):
        frames = FixedIntervalAggregator(interval=0.1).aggregate(stream)
        assert len(frames) >= 10
        assert sum(f.num_events for f in frames) == pytest.approx(len(stream))

    def test_empty_stream(self):
        empty = EventStream.empty(SensorGeometry(width=8, height=8))
        assert CountBasedAggregator(10).aggregate(empty) == []
        assert FixedIntervalAggregator(0.1).aggregate(empty) == []

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CountBasedAggregator(0)
        with pytest.raises(ValueError):
            FixedIntervalAggregator(0.0)
