"""Sharded runtime: partition invariants, report merging, equivalence.

The load-bearing guarantee is seeded equivalence: a ``platform_group``
partition is PE-disjoint by construction, so the sharded run's merged
``MultiStreamReport`` must be **bit-identical** to the single-process
kernel — per-stream records included — for any epoch length and in both
inline and worker-process modes.  ``shards=1`` must take the unmodified
single-process path.
"""

from __future__ import annotations

import dataclasses

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
    NetworkCostModel,
    ShardedSimulator,
    StreamSource,
    partition_sources,
    signature_groups,
)
from repro.runtime.shard import epoch_rows

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
    (``OptimizationLevel.FULL`` honours the explicit mapping), so a
    ``platform_group`` partition has two independent components and the
    sharded run can be compared bit-for-bit against the single kernel.
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

    def test_platform_group_merges_pe_sharing_signatures(
        self, platform, mixed_sources, disjoint_sources
    ):
        # Overlapping mappings: one connected component, one effective shard.
        plan = partition_sources(
            mixed_sources, 4, by="platform_group", platform=platform
        )
        assert plan.num_shards == 1
        # PE-disjoint mappings: two components, shards stay PE-disjoint.
        plan = partition_sources(
            disjoint_sources, 4, by="platform_group", platform=platform
        )
        assert plan.num_shards == 2
        for bucket in plan.assignments:
            pes = set()
            for i in bucket:
                source = disjoint_sources[i]
                model = NetworkCostModel(
                    source.network,
                    platform,
                    config=source.config,
                    mapping=source.mapping,
                )
                pes |= set(model.pes_used)
            assert pes in ({"gpu"}, {"cpu"})

    def test_platform_group_requires_platform(self, mixed_sources):
        with pytest.raises(ValueError, match="platform"):
            partition_sources(mixed_sources, 2, by="platform_group")

    def test_unknown_rule_and_bad_shards_raise(self, mixed_sources):
        with pytest.raises(ValueError, match="partition rule"):
            partition_sources(mixed_sources, 2, by="round_robin")
        with pytest.raises(ValueError, match="shards"):
            partition_sources(mixed_sources, 0)


class TestShardedEquivalence:
    def test_platform_group_sharding_is_bit_identical(
        self, platform, disjoint_sources
    ):
        single = MultiStreamSimulator(platform, disjoint_sources).run()
        sharded = MultiStreamSimulator(
            platform,
            disjoint_sources,
            shards=2,
            shard_by="platform_group",
            shard_mode="inline",
        ).run()
        assert single.total_inferences > 0
        assert_reports_identical(sharded, single)
        assert sharded.events_processed == single.events_processed
        assert sharded.shards == 2
        assert sharded.epochs  # barrier summaries survive the merge

    def test_process_mode_matches_inline_mode(self, platform, disjoint_sources):
        inline = MultiStreamSimulator(
            platform,
            disjoint_sources,
            shards=2,
            shard_by="platform_group",
            shard_mode="inline",
        ).run()
        process = MultiStreamSimulator(
            platform,
            disjoint_sources,
            shards=2,
            shard_by="platform_group",
        ).run()
        assert_reports_identical(process, inline)
        assert process.epochs == inline.epochs

    def test_merged_report_is_epoch_length_invariant(
        self, platform, disjoint_sources
    ):
        # The barrier is conservative: pausing a kernel mid-heap never
        # reorders it, so the epoch length must not change any result.
        coarse = MultiStreamSimulator(
            platform,
            disjoint_sources,
            shards=2,
            shard_by="platform_group",
            shard_mode="inline",
        ).run()
        fine = MultiStreamSimulator(
            platform,
            disjoint_sources,
            shards=2,
            shard_by="platform_group",
            shard_mode="inline",
            epoch_length=0.01,
        ).run()
        assert len(fine.epochs) > len(coarse.epochs)
        assert_reports_identical(fine, coarse)
        # Pausing at every barrier loses no arrival cursor, and the heap
        # each barrier saw stays bounded by the stream count.
        assert max(s.heap_high_water for s in fine.epochs) <= 4 * len(disjoint_sources)

    def test_shards_1_takes_the_single_process_path(self, platform, mixed_sources):
        plain = MultiStreamSimulator(platform, mixed_sources).run()
        one = MultiStreamSimulator(platform, mixed_sources, shards=1).run()
        assert_reports_identical(one, plain)
        assert one.shards == 1
        assert one.epochs is None

    def test_one_effective_shard_collapses_to_single_process(
        self, platform, mixed_sources
    ):
        # platform_group on PE-overlapping signatures: one component, so
        # even shards=4 must degrade to the unsharded bit-identical run.
        plain = MultiStreamSimulator(platform, mixed_sources).run()
        collapsed = MultiStreamSimulator(
            platform, mixed_sources, shards=4, shard_by="platform_group"
        ).run()
        assert_reports_identical(collapsed, plain)
        assert collapsed.shards == 1

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

    def test_epoch_rows_fold_cumulative_summaries(self, platform, disjoint_sources):
        report = MultiStreamSimulator(
            platform,
            disjoint_sources,
            shards=2,
            shard_by="platform_group",
            shard_mode="inline",
        ).run()
        rows = epoch_rows(report.epochs)
        assert [row["epoch"] for row in rows] == sorted(row["epoch"] for row in rows)
        assert all(row["shards"] == 2 for row in rows)
        # Per-epoch deltas re-sum to the run totals.
        assert sum(row["events"] for row in rows) == report.events_processed
        assert sum(row["inferences"] for row in rows) == report.total_inferences
        assert sum(row["frames_dropped"] for row in rows) == report.frames_dropped

    def test_invalid_modes_raise(self, platform, mixed_sources):
        with pytest.raises(ValueError, match="mode"):
            ShardedSimulator(platform, mixed_sources, shards=2, mode="threads")
        with pytest.raises(ValueError, match="epoch_length"):
            ShardedSimulator(platform, mixed_sources, shards=2, epoch_length=0.0)


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
        left, _ = self._run_split(platform, disjoint_sources, 5)
        other = dataclasses.replace(
            left, cost_mode="flat" if left.cost_mode != "flat" else "profile"
        )
        with pytest.raises(ValueError, match="cost modes"):
            left.merge(other)

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
