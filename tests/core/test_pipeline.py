"""Tests for the integrated Ev-Edge pipeline and its configuration."""

from __future__ import annotations

import pytest

from repro.baselines import run_all_gpu_baseline
from repro.core import DSFAConfig, EvEdgeConfig, EvEdgePipeline, OptimizationLevel
from repro.events import generate_sequence
from repro.hw import jetson_xavier_agx
from repro.models import build_network


@pytest.fixture(scope="module")
def platform():
    return jetson_xavier_agx()


@pytest.fixture(scope="module")
def sequence():
    return generate_sequence("indoor_flying1", scale=0.15, duration=0.5, seed=0)


@pytest.fixture(scope="module")
def network():
    return build_network("spikeflownet")


class TestOptimizationLevel:
    def test_flags(self):
        assert not OptimizationLevel.BASELINE.uses_sparse
        assert OptimizationLevel.E2SF.uses_sparse
        assert not OptimizationLevel.E2SF.uses_dsfa
        assert OptimizationLevel.E2SF_DSFA.uses_dsfa
        assert OptimizationLevel.FULL.uses_nmp

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvEdgeConfig(num_bins=0)


class TestPipeline:
    def test_baseline_produces_inferences(self, network, platform, sequence):
        report = run_all_gpu_baseline(network, platform, sequence, num_bins=5)
        assert report.num_inferences > 0
        assert report.mean_latency > 0
        assert report.total_energy > 0
        assert report.mean_occupancy == 1.0  # dense path ignores sparsity

    def test_e2sf_level_is_faster_and_sparser(self, network, platform, sequence):
        baseline = EvEdgePipeline(
            network, platform, EvEdgeConfig(num_bins=5, optimization=OptimizationLevel.BASELINE)
        ).run(sequence)
        sparse = EvEdgePipeline(
            network, platform, EvEdgeConfig(num_bins=5, optimization=OptimizationLevel.E2SF)
        ).run(sequence)
        assert sparse.mean_latency < baseline.mean_latency
        assert sparse.total_energy < baseline.total_energy
        assert sparse.mean_occupancy < 1.0

    def test_dsfa_reduces_inference_count_for_heavy_network(self, platform, sequence):
        heavy = build_network("adaptive_spikenet")
        config_e2sf = EvEdgeConfig(num_bins=10, optimization=OptimizationLevel.E2SF)
        config_dsfa = EvEdgeConfig(
            num_bins=10,
            dsfa=DSFAConfig(event_buffer_size=8, merge_bucket_size=4),
            optimization=OptimizationLevel.E2SF_DSFA,
        )
        without = EvEdgePipeline(heavy, platform, config_e2sf).run(sequence)
        with_dsfa = EvEdgePipeline(heavy, platform, config_dsfa).run(sequence)
        assert with_dsfa.num_inferences <= without.num_inferences + without.frames_dropped
        # DSFA never drops frames: they are merged instead.
        assert with_dsfa.frames_dropped == 0

    def test_frame_accounting(self, network, platform, sequence):
        config = EvEdgeConfig(num_bins=5, optimization=OptimizationLevel.E2SF_DSFA)
        report = EvEdgePipeline(network, platform, config).run(sequence)
        assert report.frames_generated == 5 * sequence.num_intervals
        assert report.frames_merged <= report.frames_generated

    def test_empty_report_defaults(self):
        from repro.core.pipeline import PipelineReport

        report = PipelineReport()
        assert report.mean_latency == 0.0
        assert report.total_time == 0.0
        assert report.mean_occupancy == 0.0
        assert report.num_inferences == 0

    def test_no_dsfa_backlog_drops_frames(self, platform, sequence):
        """Without DSFA a burst beyond ``inference_queue_depth`` sheds load."""
        heavy = build_network("adaptive_spikenet")
        config = EvEdgeConfig(
            num_bins=20,
            optimization=OptimizationLevel.E2SF,
            dsfa=DSFAConfig(inference_queue_depth=1),
        )
        report = EvEdgePipeline(heavy, platform, config).run(sequence)
        assert report.frames_dropped > 0
        # Every generated frame is either executed individually or dropped.
        assert report.num_inferences + report.frames_dropped == report.frames_generated
        assert all(r.num_frames == 1 for r in report.records)

    def test_kernel_run_matches_seed_reference(self, network, platform, sequence):
        """``run()`` on the event kernel must replay the seed's inline loop
        record for record (same dispatch/start/end times, energy, counters)."""
        from oracles.frames import ReferenceAggregator, convert_sequence, frame_batch
        from repro.core.e2sf import Event2SparseFrameConverter
        from repro.core.pipeline import InferenceRecord, PipelineReport

        def reference_run(pipeline, seq):
            report = PipelineReport()
            aggregator = (
                ReferenceAggregator(pipeline.config.dsfa)
                if pipeline.config.optimization.uses_dsfa
                else None
            )
            converter = Event2SparseFrameConverter(pipeline.config.num_bins)
            busy_until = 0.0

            def execute(batch, dispatch_time, busy_until):
                occupancy = (
                    batch.mean_density
                    if pipeline.config.optimization.uses_sparse
                    else 1.0
                )
                cost_model = pipeline.cost_model
                latency, energy = cost_model.profile_cost(
                    cost_model.occupancy_profile(max(occupancy, 1e-4)),
                    max(len(batch), 1),
                )
                start = max(dispatch_time, busy_until)
                report.add_records(
                    [
                        InferenceRecord(
                            dispatch_time, start, start + latency,
                            len(batch), occupancy, energy,
                        )
                    ]
                )
                return start + latency

            timestamps = seq.frame_timestamps
            for frames in convert_sequence(converter, seq.events, timestamps):
                report.frames_generated += len(frames)
                for frame in frames:
                    arrival = frame.t_end
                    if aggregator is not None:
                        batch = aggregator.push(
                            frame, hardware_available=arrival >= busy_until
                        )
                        if batch is not None:
                            busy_until = execute(batch, arrival, busy_until)
                            report.frames_merged += len(batch)
                    else:
                        backlog = busy_until - arrival
                        last = (
                            report.records[-1].end_time - report.records[-1].start_time
                            if report.records
                            else 0.0
                        )
                        depth = pipeline.config.dsfa.inference_queue_depth
                        if backlog > depth * max(last, 1e-9):
                            report.frames_dropped += 1
                            continue
                        busy_until = execute(
                            frame_batch([frame]), arrival, busy_until
                        )
            if aggregator is not None:
                batch = aggregator.flush()
                if batch is not None:
                    busy_until = execute(batch, float(timestamps[-1]), busy_until)
                    report.frames_merged += len(batch)
            return report

        for level in OptimizationLevel:
            config = EvEdgeConfig(
                num_bins=7,
                dsfa=DSFAConfig(
                    event_buffer_size=6, merge_bucket_size=3, inference_queue_depth=2
                ),
                optimization=level,
            )
            pipeline = EvEdgePipeline(network, platform, config)
            actual = pipeline.run(sequence)
            expected = reference_run(pipeline, sequence)
            assert actual.records == expected.records
            assert actual.frames_generated == expected.frames_generated
            assert actual.frames_merged == expected.frames_merged
            assert actual.frames_dropped == expected.frames_dropped

    def test_run_with_trace_records_timeline(self, network, platform, sequence):
        from repro.runtime import KernelTrace

        config = EvEdgeConfig(num_bins=5, optimization=OptimizationLevel.E2SF_DSFA)
        trace = KernelTrace()
        report = EvEdgePipeline(network, platform, config).run(sequence, trace=trace)
        counts = trace.counts()
        assert counts["FrameReady"] == report.frames_generated
        assert counts["DispatchBatch"] == report.num_inferences
        assert counts["InferenceDone"] == report.num_inferences
        assert counts["StreamEnd"] == 1
