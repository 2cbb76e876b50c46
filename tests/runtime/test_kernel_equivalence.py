"""Report-equivalence regression: refactored hot path vs pre-refactor oracle.

The fleet-scale refactor (O(1) kernel routing, indexed pending queues,
coalesced wake-ups, streaming report accumulators) must be *provably
report-identical*: the same fleet and seed produce bit-identical
``MultiStreamReport`` aggregates on the refactored path and on the
pre-refactor reference implementations kept in ``tests/oracles``.
"""

from __future__ import annotations

import pytest

from repro.core import DSFAConfig, EvEdgeConfig, OptimizationLevel
from repro.events import generate_sequence
from repro.hw import jetson_xavier_agx
from repro.models import build_network
from repro.runtime import MultiStreamSimulator, StreamSource
from repro.scenarios.registry import default_registry
from repro.scenarios.spec import ScenarioSpec

from oracles.runtime import LegacySimulator


@pytest.fixture(scope="module")
def platform():
    return jetson_xavier_agx()


@pytest.fixture(scope="module")
def contended_sources():
    """A seeded fleet exercising every hot-path branch.

    Mixed DSFA / no-DSFA streams over two networks with phase offsets and
    shallow queues: merges, per-stream evictions (queue-full), client-side
    backlog drops and shared-PE wake-ups all fire.
    """
    sequence = generate_sequence("indoor_flying1", scale=0.12, duration=0.4, seed=0)
    heavy = build_network("adaptive_spikenet", 128, 128)
    light = build_network("spikeflownet", 64, 64)
    no_dsfa = EvEdgeConfig(
        num_bins=10,
        optimization=OptimizationLevel.E2SF,
        dsfa=DSFAConfig(inference_queue_depth=2),
    )
    with_dsfa = EvEdgeConfig(
        num_bins=10,
        optimization=OptimizationLevel.E2SF_DSFA,
        dsfa=DSFAConfig(inference_queue_depth=1),
    )
    return (
        [
            StreamSource(f"raw{i}", sequence, heavy, no_dsfa, start_offset=0.0007 * i)
            for i in range(8)
        ]
        + [
            StreamSource(f"agg{i}", sequence, heavy, with_dsfa, start_offset=0.001 * i)
            for i in range(8)
        ]
        + [
            StreamSource(f"lt{i}", sequence, light, with_dsfa, start_offset=0.0003 * i)
            for i in range(4)
        ]
    )


def assert_reports_identical(new, old):
    """Bit-identical per-stream records and aggregate statistics."""
    assert set(new.reports) == set(old.reports)
    for name in new.reports:
        a, b = new.reports[name], old.reports[name]
        assert a.records == b.records, name
        assert a.frames_generated == b.frames_generated, name
        assert a.frames_merged == b.frames_merged, name
        assert a.frames_dropped == b.frames_dropped, name
        assert a.num_inferences == b.num_inferences, name
        assert a.mean_latency == b.mean_latency, name
        assert a.total_energy == b.total_energy, name
        assert a.mean_occupancy == b.mean_occupancy, name
        assert a.total_time == b.total_time, name
    assert new.total_inferences == old.total_inferences
    assert new.frames_generated == old.frames_generated
    assert new.frames_dropped == old.frames_dropped
    assert new.mean_latency == old.mean_latency
    assert new.total_energy == old.total_energy
    assert new.makespan == old.makespan
    assert new.active_window == old.active_window
    assert new.throughput == old.throughput


class TestReportEquivalence:
    def test_contended_mixed_fleet_is_bit_identical(self, platform, contended_sources):
        new = MultiStreamSimulator(platform, contended_sources).run()
        old = LegacySimulator(platform, contended_sources).run()
        # The fleet must actually exercise drops and merges, or this test
        # proves nothing about the refactored queue machinery.
        assert new.frames_dropped > 0
        windows = [
            (r.start_time, r.end_time)
            for stream in new.reports.values()
            for r in stream.records
        ]
        assert len(windows) > len(set(windows))  # cross-stream merges happened
        assert_reports_identical(new, old)

    @pytest.mark.parametrize("family", ["steady", "churn"])
    def test_registry_fleets_are_bit_identical(self, platform, family):
        spec = ScenarioSpec(
            name=f"equiv-{family}",
            family=family,
            num_streams=12,
            duration=0.3,
            scale=0.1,
            seed=3,
        )
        sources = default_registry().compile(spec)
        new = MultiStreamSimulator(platform, sources).run()
        old = LegacySimulator(platform, sources).run()
        assert_reports_identical(new, old)

    def test_wakeup_coalescing_reduces_event_count(self, platform, contended_sources):
        # Identical reports, strictly fewer kernel events: the per-dispatch
        # wake-up storm is the pre-refactor behaviour the server coalesces
        # into at most one outstanding wake-up per busy frontier.
        new = MultiStreamSimulator(platform, contended_sources).run()
        old = LegacySimulator(platform, contended_sources).run()
        assert new.events_processed < old.events_processed


class TestStreamingAccumulators:
    def test_lean_mode_matches_full_mode_bit_for_bit(
        self, platform, contended_sources
    ):
        full = MultiStreamSimulator(platform, contended_sources).run()
        lean = MultiStreamSimulator(
            platform, contended_sources, record_limit=0
        ).run()
        for name in full.reports:
            a, b = full.reports[name], lean.reports[name]
            assert b.records == []  # records not retained
            assert a.num_inferences == b.num_inferences, name
            assert a.mean_latency == b.mean_latency, name
            assert a.total_energy == b.total_energy, name
            assert a.mean_occupancy == b.mean_occupancy, name
            assert a.total_time == b.total_time, name
            assert a.frames_dropped == b.frames_dropped, name
        assert full.mean_latency == lean.mean_latency
        assert full.total_energy == lean.total_energy
        assert full.makespan == lean.makespan
        assert full.throughput == lean.throughput

    def test_accumulators_match_record_recomputation(
        self, platform, contended_sources
    ):
        # The streaming sums must equal a sequential recomputation over the
        # retained records (the reference aggregate definition).
        report = MultiStreamSimulator(platform, contended_sources).run()
        for stream in report.reports.values():
            latency = energy = occupancy = max_end = 0.0
            for record in stream.records:
                latency += record.latency
                energy += record.energy
                occupancy += record.occupancy
                max_end = max(max_end, record.end_time)
            count = len(stream.records)
            assert stream.num_inferences == count
            assert stream.total_energy == energy
            assert stream.total_time == max_end
            if count:
                assert stream.mean_latency == latency / count
                assert stream.mean_occupancy == occupancy / count
