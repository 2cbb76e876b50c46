"""DSFA dispatches in a running fleet: lazy merges and frame conservation.

A DSFA dispatch hands out a batch that carries its buckets' merged
densities; the merged stack is built (one ``FrameStack.merge_ranges`` call)
only when a caller reads frame contents.  Nothing in the simulator does, so
a fleet run must never merge, and every carried value must equal the one
read off the batch's built stack.  The frame accounting of the runtime
rests on the batch length: per stream, every merged frame DSFA dispatched
is either inferred (as a member of a possibly cross-stream dispatch) or
evicted from a full inference queue.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest

import repro.core  # noqa: F401  (import order: runtime pulls core.nmp lazily)
from repro.core import DSFAConfig, EvEdgeConfig, MergeMode, OptimizationLevel
from repro.core.dsfa import DynamicSparseFrameAggregator
from repro.events import generate_sequence
from repro.frames import FrameStack
from repro.hw import jetson_xavier_agx
from repro.models import build_network
from repro.runtime import MultiStreamSimulator, StreamSource
from repro.scenarios import default_registry


@pytest.fixture(scope="module")
def platform():
    return jetson_xavier_agx()


def _with_dsfa(sources, **dsfa):
    return [
        dataclasses.replace(
            source,
            config=dataclasses.replace(
                source.config, dsfa=dataclasses.replace(source.config.dsfa, **dsfa)
            ),
        )
        for source in sources
    ]


@pytest.fixture(scope="module")
def steady_fleet():
    return default_registry().compile(
        "steady",
        num_streams=16,
        duration=0.4,
        scale=0.12,
        seed=0,
        params={"optimization": "e2sf+dsfa"},
    )


class TestLazyDispatchMerges:
    @pytest.mark.parametrize("mode", list(MergeMode))
    def test_fleet_run_never_merges(self, platform, steady_fleet, monkeypatch, mode):
        sources = _with_dsfa(steady_fleet, merge_mode=mode)
        merges = []
        merge_ranges = FrameStack.merge_ranges

        def counting_merge(stack, ranges, average=False):
            merges.append(len(ranges))
            return merge_ranges(stack, ranges, average=average)

        batches = []
        dispatch = DynamicSparseFrameAggregator._dispatch

        def recording_dispatch(aggregator):
            batch = dispatch(aggregator)
            batches.append(batch)
            return batch

        monkeypatch.setattr(FrameStack, "merge_ranges", counting_merge)
        monkeypatch.setattr(
            DynamicSparseFrameAggregator, "_dispatch", recording_dispatch
        )
        report = MultiStreamSimulator(platform, sources, cost_mode="profile").run()
        assert merges == []
        assert report.total_inferences > 0
        assert sum(len(batch) for batch in batches) == sum(
            r.frames_merged for r in report.reports.values()
        )
        if mode is MergeMode.BATCH:
            assert sum(len(b) for b in batches) == report.frames_generated
        else:
            assert sum(len(b) for b in batches) < report.frames_generated

        for batch in batches:
            carried = (len(batch), batch.frame_densities(), batch.mean_density)
            before = len(merges)
            stack = batch.stack
            assert batch.stack is stack
            assert len(merges) == before + 1
            densities = stack.densities()
            assert carried == (
                len(stack),
                tuple(densities.tolist()),
                float(np.mean(densities)),
            )
            assert batch.stack_range == (0, len(stack))


def _queue_full_fleet(mode):
    """Two signatures sharing the platform, each stream's queue one deep."""
    sequence = generate_sequence("indoor_flying1", scale=0.12, duration=0.4, seed=0)
    heavy = build_network("adaptive_spikenet", 128, 128)
    light = build_network("spikeflownet", 64, 64)
    config = EvEdgeConfig(
        num_bins=10,
        optimization=OptimizationLevel.E2SF_DSFA,
        dsfa=DSFAConfig(merge_mode=mode, inference_queue_depth=1),
    )
    return [
        StreamSource(f"h{i}", sequence, heavy, config, start_offset=0.001 * i)
        for i in range(6)
    ] + [
        StreamSource(f"l{i}", sequence, light, config, start_offset=0.0003 * i)
        for i in range(6)
    ]


class TestMergedFrameConservation:
    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("mode", list(MergeMode))
    def test_merged_frames_inferred_or_dropped(self, platform, mode, shards):
        report = MultiStreamSimulator(
            platform,
            _queue_full_fleet(mode),
            shards=shards,
            shard_mode="inline",
        ).run()
        assert report.shards == shards
        assert report.frames_dropped > 0
        # Members of one cross-stream execution share its time span.
        spans = Counter(
            span
            for stream in report.reports.values()
            for span in {(r.start_time, r.end_time) for r in stream.records}
        )
        assert max(spans.values()) > 1
        for name, stream in report.reports.items():
            inferred = sum(record.num_frames for record in stream.records)
            assert stream.frames_merged == inferred + stream.frames_dropped, name


def _aggregates(report):
    return (
        report.frames_generated,
        report.frames_dropped,
        report.total_inferences,
        report.mean_latency,
        report.total_energy,
        report.makespan,
        report.events_processed,
        {name: stream.frames_merged for name, stream in report.reports.items()},
    )


class TestPlacementPlansAcrossSimulations:
    def test_second_simulation_compiles_no_plan(self, platform, steady_fleet):
        # Every stream's stack is its sequence's shared render, so the
        # placement plans DSFA compiled in one simulation serve the next.
        # (Other tests of this module may have compiled plans for other
        # settings on the same stacks.)
        first = MultiStreamSimulator(platform, steady_fleet, cost_mode="profile").run()
        stacks = {id(s.generate_stack()[0]): s.generate_stack()[0] for s in steady_fleet}
        compiled = [dict(stack._compiled) for stack in stacks.values()]
        assert all(compiled)
        second = MultiStreamSimulator(platform, steady_fleet, cost_mode="profile").run()
        assert [stack._compiled for stack in stacks.values()] == compiled
        assert all(
            stack._compiled[key] is plans[key]
            for stack, plans in zip(stacks.values(), compiled)
            for key in plans
        )
        assert first.total_inferences > 0
        assert _aggregates(second) == _aggregates(first)
