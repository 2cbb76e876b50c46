"""Sharded runtime: partition invariants, report merging, equivalence.

The load-bearing guarantee is the partition oracle: shards never exchange
an event, so a sharded run's ``MultiStreamReport`` must equal, bit for bit
— per-stream records included — ``MultiStreamReport.merged`` of independent
single-process runs of each ``partition_sources`` partition, in inline and
worker-process modes and under the spawn start method.  On a fleet whose
signatures occupy disjoint PEs that merge is the single-process run itself.
``shards=1`` and one-signature fleets take the single-process path.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import textwrap

import pytest

from repro.core import DSFAConfig, EvEdgeConfig, OptimizationLevel
from repro.core.nmp.candidate import Assignment, MappingCandidate
from repro.events import generate_sequence
from repro.hw import jetson_xavier_agx
from repro.models import build_network
from repro.nn.quantization import Precision
from repro.runtime import (
    MultiStreamReport,
    MultiStreamSimulator,
    ShardedSimulator,
    ShardSummary,
    StreamSource,
    partition_sources,
    signature_groups,
)

from test_kernel_equivalence import assert_reports_identical


@pytest.fixture(scope="module")
def platform():
    return jetson_xavier_agx()


def _pin(network, pe: str) -> MappingCandidate:
    return MappingCandidate(
        {
            layer.name: Assignment(pe=pe, precision=Precision.FP16)
            for layer in network.layers()
        }
    )


@pytest.fixture(scope="module")
def disjoint_sources(platform):
    """A seeded fleet whose two signatures occupy disjoint PE sets.

    One network pinned wholly onto the GPU, the other wholly onto the CPU
    (``OptimizationLevel.FULL`` honours the explicit mapping), so the two
    signatures never contend and a two-shard run can be compared
    bit-for-bit against the single kernel.
    """
    sequence = generate_sequence("indoor_flying1", scale=0.1, duration=0.3, seed=1)
    heavy = build_network("adaptive_spikenet", 96, 96)
    light = build_network("spikeflownet", 64, 64)
    config = EvEdgeConfig(
        num_bins=10,
        optimization=OptimizationLevel.FULL,
        dsfa=DSFAConfig(inference_queue_depth=2),
    )
    return (
        [
            StreamSource(
                f"g{i}",
                sequence,
                heavy,
                config,
                mapping=_pin(heavy, "gpu"),
                start_offset=0.0007 * i,
            )
            for i in range(5)
        ]
        + [
            StreamSource(
                f"c{i}",
                sequence,
                light,
                config,
                mapping=_pin(light, "cpu"),
                start_offset=0.0003 * i,
            )
            for i in range(5)
        ]
    )


@pytest.fixture(scope="module")
def mixed_sources():
    """Two signatures sharing the platform's PEs (overlapping mappings)."""
    sequence = generate_sequence("indoor_flying1", scale=0.1, duration=0.3, seed=0)
    heavy = build_network("adaptive_spikenet", 96, 96)
    light = build_network("spikeflownet", 64, 64)
    config = EvEdgeConfig(
        num_bins=10,
        optimization=OptimizationLevel.E2SF_DSFA,
        dsfa=DSFAConfig(inference_queue_depth=2),
    )
    return (
        [
            StreamSource(f"h{i}", sequence, heavy, config, start_offset=0.0007 * i)
            for i in range(6)
        ]
        + [
            StreamSource(f"l{i}", sequence, light, config, start_offset=0.0003 * i)
            for i in range(6)
        ]
    )


class TestPartitioning:
    def test_signature_groups_are_first_appearance_ordered(self, mixed_sources):
        groups = signature_groups(mixed_sources)
        assert [sorted(g) for g in groups] == [[0, 1, 2, 3, 4, 5], [6, 7, 8, 9, 10, 11]]

    def test_partition_is_disjoint_and_complete(self, mixed_sources):
        plan = partition_sources(mixed_sources, 2)
        flat = [i for bucket in plan.assignments for i in bucket]
        assert sorted(flat) == list(range(len(mixed_sources)))
        assert plan.num_shards == 2
        assert plan.shard_sizes == (6, 6)

    def test_partition_never_splits_a_signature(self, mixed_sources):
        plan = partition_sources(mixed_sources, 2)
        for group in signature_groups(mixed_sources):
            owners = {
                shard
                for shard, bucket in enumerate(plan.assignments)
                for i in bucket
                if i in set(group)
            }
            assert len(owners) == 1, "signature group split across shards"

    def test_effective_shards_capped_by_units(self, mixed_sources):
        # Two signatures cannot fill eight shards.
        plan = partition_sources(mixed_sources, 8)
        assert plan.requested == 8
        assert plan.num_shards == 2

    def test_partition_is_deterministic(self, mixed_sources):
        a = partition_sources(mixed_sources, 3)
        b = partition_sources(list(mixed_sources), 3)
        assert a == b

    def test_bad_shard_count_raises(self, mixed_sources):
        with pytest.raises(ValueError, match="shards"):
            partition_sources(mixed_sources, 0)


def _assert_reports_equal(new, old):
    """Records, aggregates and every merged counter agree bit for bit."""
    assert_reports_identical(new, old)
    assert new.events_processed == old.events_processed
    assert new.cache_info == old.cache_info
    assert new.heap_high_water == old.heap_high_water
    assert (new.start_time, new.end_time) == (old.start_time, old.end_time)
    assert new.shards == old.shards


class TestShardedEquivalence:
    @pytest.mark.parametrize("mode", ["inline", "process"])
    def test_sharded_report_equals_merged_partition_runs(
        self, platform, mixed_sources, mode
    ):
        # The signatures share PEs, so two platform replicas differ from one
        # platform; they must equal independent runs of each partition.
        plan = partition_sources(mixed_sources, 2)
        parts = [
            MultiStreamSimulator(
                platform, [mixed_sources[i] for i in indices]
            ).run()
            for indices in plan.assignments
        ]
        sharded = MultiStreamSimulator(
            platform, mixed_sources, shards=2, shard_mode=mode
        ).run()
        assert sharded.total_inferences > 0
        _assert_reports_equal(sharded, MultiStreamReport.merged(parts))
        assert sharded.epochs == [
            ShardSummary.of(shard, part) for shard, part in enumerate(parts)
        ]

    def test_pe_disjoint_sharding_is_bit_identical(
        self, platform, disjoint_sources
    ):
        single = MultiStreamSimulator(platform, disjoint_sources).run()
        sharded = MultiStreamSimulator(
            platform, disjoint_sources, shards=2, shard_mode="inline"
        ).run()
        assert single.total_inferences > 0
        assert_reports_identical(sharded, single)
        assert sharded.events_processed == single.events_processed
        assert sharded.shards == 2

    def test_process_mode_matches_inline_mode(self, platform, disjoint_sources):
        inline = MultiStreamSimulator(
            platform, disjoint_sources, shards=2, shard_mode="inline"
        ).run()
        process = MultiStreamSimulator(platform, disjoint_sources, shards=2).run()
        _assert_reports_equal(process, inline)
        assert process.epochs == inline.epochs

    def test_closing_summaries_resum_to_report_totals(
        self, platform, mixed_sources
    ):
        report = MultiStreamSimulator(
            platform, mixed_sources, shards=2, shard_mode="inline"
        ).run()
        assert [summary.shard for summary in report.epochs] == [0, 1]
        assert sum(s.events_processed for s in report.epochs) == report.events_processed
        assert sum(s.inferences for s in report.epochs) == report.total_inferences
        assert sum(s.frames_dropped for s in report.epochs) == report.frames_dropped
        assert max(s.t_end for s in report.epochs) == report.end_time
        assert max(s.heap_high_water for s in report.epochs) == report.heap_high_water

    def test_shards_1_takes_the_single_process_path(self, platform, mixed_sources):
        plain = MultiStreamSimulator(platform, mixed_sources).run()
        one = MultiStreamSimulator(platform, mixed_sources, shards=1).run()
        assert_reports_identical(one, plain)
        assert one.shards == 1
        assert one.epochs is None

    def test_one_effective_shard_collapses_to_single_process(
        self, platform, mixed_sources
    ):
        # One signature is one partition unit, so even shards=4 must
        # degrade to the unsharded bit-identical run.
        fleet = mixed_sources[:6]
        assert len(signature_groups(fleet)) == 1
        plain = MultiStreamSimulator(platform, fleet).run()
        collapsed = MultiStreamSimulator(platform, fleet, shards=4).run()
        _assert_reports_equal(collapsed, plain)
        assert collapsed.shards == 1
        assert collapsed.epochs is None

    def test_signature_sharding_conserves_traffic(self, platform, mixed_sources):
        # Signature shards model platform replicas: contention changes, the
        # generated traffic must not.
        single = MultiStreamSimulator(platform, mixed_sources).run()
        sharded = MultiStreamSimulator(
            platform, mixed_sources, shards=2, shard_mode="inline"
        ).run()
        assert sharded.shards == 2
        assert set(sharded.reports) == set(single.reports)
        assert sharded.frames_generated == single.frames_generated
        for name, report in sharded.reports.items():
            assert report.frames_generated == single.reports[name].frames_generated

    def test_sharded_run_rejects_tracing(self, platform, mixed_sources):
        with pytest.raises(ValueError, match="trac"):
            MultiStreamSimulator(platform, mixed_sources, shards=2).run(trace=True)

    def test_invalid_modes_raise(self, platform, mixed_sources):
        with pytest.raises(ValueError, match="mode"):
            ShardedSimulator(platform, mixed_sources, shards=2, mode="threads")
        # The simulator rejects an unknown mode up front, sharded or not.
        for shards in (1, 2):
            with pytest.raises(ValueError, match="shard_mode"):
                MultiStreamSimulator(
                    platform, mixed_sources, shards=shards, shard_mode="threads"
                )

    @pytest.mark.parametrize(
        "shards, shard_mode", [(1, "process"), (2, "inline"), (2, "process")]
    )
    def test_bad_merge_bound_raises_at_construction(
        self, platform, mixed_sources, shards, shard_mode
    ):
        # Rejected up front in every mode, not first in run() — where the
        # inline path raised only once it built a server and the process
        # path only after forking its workers.
        for max_merge_streams in (0, -1):
            with pytest.raises(ValueError, match="max_merge_streams"):
                MultiStreamSimulator(
                    platform,
                    mixed_sources,
                    max_merge_streams=max_merge_streams,
                    shards=shards,
                    shard_mode=shard_mode,
                )


# Run in a fresh interpreter whose first import is repro.runtime.shard, as in
# a spawned shard worker unpickling its target.
_SPAWN_SCRIPT = textwrap.dedent(
    """
    import repro.runtime.shard
    import multiprocessing

    from repro.core import EvEdgeConfig, OptimizationLevel
    from repro.events import generate_sequence
    from repro.hw import jetson_xavier_agx
    from repro.models import build_network
    from repro.runtime import MultiStreamSimulator, StreamSource

    multiprocessing.set_start_method("spawn")
    sequence = generate_sequence("indoor_flying1", scale=0.05, duration=0.2, seed=0)
    config = EvEdgeConfig(num_bins=4, optimization=OptimizationLevel.E2SF_DSFA)
    sources = [
        StreamSource(f"{name}{i}", sequence, build_network(name, 32, 32), config,
                     start_offset=0.001 * i)
        for name in ("dotie", "spikeflownet")
        for i in range(2)
    ]

    def summary(report):
        streams = {
            name: (r.records, r.frames_generated, r.frames_dropped, r.total_energy)
            for name, r in report.reports.items()
        }
        return streams, report.events_processed, report.end_time, report.epochs

    platform = jetson_xavier_agx()
    process = MultiStreamSimulator(platform, sources, shards=2).run()
    inline = MultiStreamSimulator(platform, sources, shards=2, shard_mode="inline").run()
    assert process.shards == 2 and process.total_inferences > 0
    assert summary(process) == summary(inline)
    print("inferences", process.total_inferences)
    """
)


def test_spawned_shard_workers_match_inline_run():
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    result = subprocess.run(
        [sys.executable, "-c", _SPAWN_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("inferences ")


class TestReportMerge:
    def _run_split(self, platform, sources, k):
        left = MultiStreamSimulator(platform, sources[:k]).run()
        right = MultiStreamSimulator(platform, sources[k:]).run()
        return left, right

    def test_merge_of_disjoint_halves_matches_whole(
        self, platform, disjoint_sources
    ):
        whole = MultiStreamSimulator(platform, disjoint_sources).run()
        left, right = self._run_split(platform, disjoint_sources, 5)
        merged = left.merge(right)
        assert_reports_identical(merged, whole)
        assert merged.shards == 2

    def test_merge_with_empty_report(self, platform, disjoint_sources):
        populated = MultiStreamSimulator(platform, disjoint_sources[:5]).run()
        empty = MultiStreamReport(
            reports={}, end_time=0.0, cost_mode=populated.cost_mode
        )
        merged = populated.merge(empty)
        assert_reports_identical(merged, populated)
        merged = empty.merge(populated)
        assert_reports_identical(merged, populated)

    def test_merge_sums_cache_info_and_events(self, platform, disjoint_sources):
        left, right = self._run_split(platform, disjoint_sources, 5)
        merged = left.merge(right)
        assert merged.events_processed == (
            left.events_processed + right.events_processed
        )
        for key in ("hits", "misses"):
            assert merged.cache_info[key] == (
                left.cache_info[key] + right.cache_info[key]
            )

    def test_merge_rejects_mixed_cost_modes(self, platform, disjoint_sources):
        left, right = self._run_split(platform, disjoint_sources, 5)
        other = dataclasses.replace(
            right, cost_mode="flat" if right.cost_mode != "flat" else "profile"
        )
        with pytest.raises(ValueError, match="cost modes"):
            left.merge(other)

    def test_merge_rejects_overlapping_stream_sets(self, platform, disjoint_sources):
        left = MultiStreamSimulator(platform, disjoint_sources[:5]).run()
        overlapping = MultiStreamSimulator(platform, disjoint_sources[4:]).run()
        with pytest.raises(ValueError, match="overlapping stream sets"):
            left.merge(overlapping)
        with pytest.raises(ValueError, match="overlapping stream sets"):
            left.merge(left)

    def test_merged_classmethod_folds_many(self, platform, disjoint_sources):
        whole = MultiStreamSimulator(platform, disjoint_sources).run()
        parts = [
            MultiStreamSimulator(platform, [source]).run()
            for source in disjoint_sources[:5]
        ] + [MultiStreamSimulator(platform, disjoint_sources[5:]).run()]
        merged = MultiStreamReport.merged(parts)
        # Streams never contend within a part of this split, so only the
        # traffic conservation is exact; per-record equality is checked by
        # the two-way split above.
        assert set(merged.reports) == set(whole.reports)
        assert merged.frames_generated == whole.frames_generated
        assert merged.shards == len(parts)
        with pytest.raises(ValueError, match="at least one"):
            MultiStreamReport.merged([])
