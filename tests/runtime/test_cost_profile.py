"""Tests for the layered per-layer-occupancy cost stack and its oracle.

Covers the profile plumbing end to end: per-layer bucketing (including the
first-bucket rounding fix at per-layer granularity), merge-time profile
combination on dispatched batches, the flat-profile equivalence against the
scalar cost oracle kept in ``tests/oracles``, and the cache-sharing property
the layered stack exists for.
"""

from __future__ import annotations

import pytest

from repro.core import DSFAConfig, EvEdgeConfig, EvEdgePipeline, OptimizationLevel
from repro.core.dsfa import DynamicSparseFrameAggregator
from repro.events import generate_sequence
from repro.frames.sparse import SparseFrameBatch
from repro.hw import jetson_xavier_agx
from repro.models import build_network
from repro.runtime import (
    LayerCostTable,
    MultiStreamSimulator,
    NetworkCostModel,
    OccupancyProfile,
    StreamSource,
)
from repro.nn import LayerGraph, LayerKind, LayerSpec

from oracles.frames import frame_batch
from oracles.runtime import (
    ChainCostModel,
    ReferenceCostModel,
    ReferenceLayerCostTable,
    ScalarCostModel,
    ScalarCostSimulator,
    bucketed,
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
    assert new.throughput == old.throughput


@pytest.fixture(scope="module")
def platform():
    return jetson_xavier_agx()


@pytest.fixture(scope="module")
def network():
    return build_network("spikeflownet", 64, 64)


@pytest.fixture(scope="module")
def mixed_density_sources(network):
    """DSFA + no-DSFA streams over scenes spanning the density spectrum."""
    scenes = ("calibration_bars", "indoor_flying1", "outdoor_day1", "high_speed_disk")
    with_dsfa = EvEdgeConfig(
        num_bins=8,
        optimization=OptimizationLevel.E2SF_DSFA,
        dsfa=DSFAConfig(inference_queue_depth=2),
    )
    no_dsfa = EvEdgeConfig(
        num_bins=8,
        optimization=OptimizationLevel.E2SF,
        dsfa=DSFAConfig(inference_queue_depth=2),
    )
    sources = []
    for i in range(8):
        sequence = generate_sequence(
            scenes[i % len(scenes)], scale=0.08, duration=0.25, seed=11 + i
        )
        config = with_dsfa if i % 2 else no_dsfa
        sources.append(
            StreamSource(f"mix{i}", sequence, network, config, start_offset=0.0005 * i)
        )
    return sources


def _sparse_model(network, platform, model_cls=NetworkCostModel, **kwargs):
    table_cls = (
        ReferenceLayerCostTable
        if issubclass(model_cls, ReferenceCostModel)
        else LayerCostTable
    )
    return model_cls(
        network,
        platform,
        config=EvEdgeConfig(optimization=OptimizationLevel.E2SF_DSFA),
        table=table_cls(occupancy_resolution=1.0 / 64.0),
        **kwargs,
    )


def _serial_network(depth: int = 8) -> LayerGraph:
    """A purely serial spiking chain (no skips, no joins)."""
    g = LayerGraph("serial_chain", task="optical_flow")
    g.chain(
        [
            LayerSpec(
                name=f"conv{i}",
                kind=LayerKind.CONV_LIF,
                in_channels=8,
                out_channels=8,
                in_height=32,
                in_width=32,
                kernel_size=3,
                activation_sparsity=0.85,
            )
            for i in range(depth)
        ]
    )
    return g


class TestOccupancyProfileBuilding:
    def test_invalid_cost_mode_rejected(self, network, platform):
        with pytest.raises(ValueError):
            NetworkCostModel(network, platform, cost_mode="quantum")

    def test_flat_profile_matches_scalar_semantics(self, network, platform):
        model = _sparse_model(network, platform)
        profile = model.occupancy_profile(0.1)
        assert profile.is_flat
        assert profile.entries[0] == model.table.bucket(0.1)
        assert all(e is None for e in profile.entries[1:])

    def test_profile_mode_propagates_every_layer(self, network, platform):
        model = _sparse_model(network, platform, cost_mode="profile")
        profile = model.occupancy_profile(0.1)
        assert not profile.is_flat
        assert all(e is not None for e in profile.entries)
        # Entries are bucket representatives (per-layer bucketing applied
        # after propagation).
        for entry in profile.entries:
            assert entry == model.table.bucket(entry)

    def test_first_bucket_rounding_applies_per_layer(self, network, platform):
        # Extends the PR-4 ``bucket`` fix to per-layer granularity: a tiny
        # but non-zero input density must not quantize to occupancy 0 at
        # *any* layer — deep propagated occupancies are tiny first.
        model = _sparse_model(network, platform, cost_mode="profile")
        profile = model.occupancy_profile(1e-4)
        first_bucket = 1.0 / 64.0
        for entry in profile.entries:
            assert entry >= first_bucket

    def test_profiles_cached_per_input_bucket(self, network, platform):
        model = _sparse_model(network, platform, cost_mode="profile")
        a = model.occupancy_profile(0.1000)
        b = model.occupancy_profile(0.1005)  # same 1/64 bucket
        assert a is b

    def test_converged_deep_buckets_shared_across_densities(self, platform):
        # Convergence onto shared deep buckets is a *serial* property: on a
        # chain the propagation is a contraction onto the modelled-activity
        # fixed point.  (Skip connections re-inject shallow, input-dependent
        # occupancies into a DAG's decoders, so graph propagation keeps DAG
        # profiles density-dependent much deeper — by design.)
        model = _sparse_model(_serial_network(12), platform, cost_mode="profile")
        a = model.occupancy_profile(0.05)
        b = model.occupancy_profile(0.12)
        assert a.entries[0] != b.entries[0]
        depth = len(a.entries)
        shared = sum(
            1 for x, y in zip(a.entries, b.entries) if x == y
        )
        # The deep majority of the profile must coincide bucket for bucket.
        assert shared >= depth // 2
        assert a.entries[depth - 1] == b.entries[depth - 1]

    def test_rebind_keeps_profiles_and_the_keys_network_memo(self, network, platform):
        # Without NMP every mapping resolves to the one all-baseline key, so
        # a rebind keeps the whole-network memo: the next cost is a memo
        # hit that adds no table lookup.
        model = _sparse_model(network, platform, cost_mode="profile")
        profile = model.occupancy_profile(0.1)
        cost = model.profile_cost(profile, 1)
        memo, info = model._cache, model.table.cache_info()
        assert memo
        model.rebind(None)
        assert model._cache is memo
        assert model.occupancy_profile(0.1) is profile
        assert model.profile_cost(profile, 1) == cost
        assert model.table.cache_info() == info


class TestBatchProfiles:
    def test_flat_batch_profile_uses_mean_density(self, network, platform):
        model = _sparse_model(network, platform)
        source = StreamSource(
            "s",
            generate_sequence("indoor_flying1", scale=0.08, duration=0.2, seed=0),
            network,
            EvEdgeConfig(optimization=OptimizationLevel.E2SF_DSFA),
        )
        stack, _ = source.generate_stack()
        batch = SparseFrameBatch.from_stack(stack, 0, 4)
        profile = model.densities_profile(batch.frame_densities(), batch.mean_density)
        assert profile == model.occupancy_profile(max(batch.mean_density, 1e-4))

    def test_merge_time_combination_is_member_mean(self, network, platform):
        # DSFA merge-time profile combination: a batched dispatch's profile
        # is the entry-wise mean of its members' propagated profiles (then
        # re-bucketed), not the propagation of the mean density.
        model = _sparse_model(network, platform, cost_mode="profile")
        source = StreamSource(
            "s",
            generate_sequence("high_speed_disk", scale=0.1, duration=0.25, seed=3),
            network,
            EvEdgeConfig(optimization=OptimizationLevel.E2SF_DSFA),
        )
        frames = sorted(source.generate_stack()[0].frames(), key=lambda f: f.density)
        batch = frame_batch([frames[0], frames[-1]])  # extremes of the run
        assert frames[0].density != frames[-1].density
        profile = model.densities_profile(batch.frame_densities(), batch.mean_density)
        members = [
            model.occupancy_profile(max(density, 1e-4))
            for density in batch.frame_densities()
        ]
        expected = bucketed(OccupancyProfile.combine(members), model.table.bucket)
        assert profile == expected

    def test_dsfa_dispatched_batch_gets_combined_profile(self, network, platform):
        model = _sparse_model(network, platform, cost_mode="profile")
        source = StreamSource(
            "s",
            generate_sequence("indoor_flying1", scale=0.1, duration=0.3, seed=1),
            network,
            EvEdgeConfig(
                num_bins=10,
                optimization=OptimizationLevel.E2SF_DSFA,
                dsfa=DSFAConfig(event_buffer_size=6, merge_bucket_size=2),
            ),
        )
        aggregator = DynamicSparseFrameAggregator(source.config.dsfa)
        stack, _ = source.generate_stack()
        batch = None
        for i in range(len(stack)):
            batch = aggregator.push_index(stack, i)
            if batch is not None and len(batch) > 1:
                break
        assert batch is not None and len(batch) > 1
        profile = model.densities_profile(batch.frame_densities(), batch.mean_density)
        assert len(profile) == len(model.occupancy_profile(0.1))
        assert all(e is not None for e in profile.entries)

    def test_scalar_oracle_keeps_merged_profiles_raw(self, network, platform):
        # The scalar-keyed stack has no per-layer quantization anywhere —
        # merged dispatches included.  Its combined profile must be the
        # exact entry-wise mean of the raw member profiles, not a
        # re-bucketed one.
        model = ScalarCostModel(
            network,
            platform,
            config=EvEdgeConfig(optimization=OptimizationLevel.E2SF_DSFA),
            table=ReferenceLayerCostTable(occupancy_resolution=1.0 / 64.0),
            cost_mode="profile",
        )
        source = StreamSource(
            "s",
            generate_sequence("high_speed_disk", scale=0.1, duration=0.25, seed=3),
            network,
            EvEdgeConfig(optimization=OptimizationLevel.E2SF_DSFA),
        )
        frames = sorted(source.generate_stack()[0].frames(), key=lambda f: f.density)
        batch = frame_batch([frames[0], frames[-1]])
        profile = model.densities_profile(batch.frame_densities(), batch.mean_density)
        members = [
            model.occupancy_profile(max(density, 1e-4))
            for density in batch.frame_densities()
        ]
        assert profile == OccupancyProfile.combine(members)  # no re-bucketing

    def test_dense_streams_profile_at_full_occupancy(self, network, platform):
        model = NetworkCostModel(
            network,
            platform,
            config=EvEdgeConfig(optimization=OptimizationLevel.BASELINE),
            cost_mode="profile",
        )
        # Dense dispatchers pass ([], 1.0); a dense model never combines
        # per-frame profiles, whatever densities it is handed.
        assert model.densities_profile([], 1.0) == model.occupancy_profile(1.0)
        assert model.densities_profile([0.01, 0.5], 1.0) == model.occupancy_profile(1.0)

    def test_profile_length_mismatch_rejected(self, network, platform):
        model = _sparse_model(network, platform)
        with pytest.raises(ValueError):
            model.profile_cost(OccupancyProfile((0.1,)), 1)


class TestProfileCosts:
    def test_flat_inference_cost_unchanged_by_refactor(self, network, platform):
        # The layered composition with a flat profile must equal the
        # pre-profile scalar walk bit for bit (same table, same buckets).
        layered = _sparse_model(network, platform)
        oracle = ScalarCostModel(
            network,
            platform,
            config=EvEdgeConfig(optimization=OptimizationLevel.E2SF_DSFA),
            table=ReferenceLayerCostTable(occupancy_resolution=1.0 / 64.0),
        )
        for occupancy, batch in [(1e-4, 1), (0.05, 2), (0.3, 4), (1.0, 1)]:
            assert layered.profile_cost(
                layered.occupancy_profile(occupancy), batch
            ) == oracle.profile_cost(oracle.occupancy_profile(occupancy), batch)

    def test_propagated_costs_are_cheaper_for_sparse_inputs(self, network, platform):
        flat = _sparse_model(network, platform)
        profiled = _sparse_model(network, platform, cost_mode="profile")
        lat_flat, en_flat = flat.profile_cost(flat.occupancy_profile(0.02), 1)
        lat_prof, en_prof = profiled.profile_cost(profiled.occupancy_profile(0.02), 1)
        # A nearly-empty input keeps deep layers sparser than their static
        # modelled activity, so the propagated cost can only be lower.
        assert lat_prof <= lat_flat
        assert en_prof <= en_flat
        assert lat_prof > 0 and en_prof > 0


class TestGraphChainDivergence:
    """Pin where graph propagation agrees with the chain oracle — and where
    it must not.  :class:`ChainCostModel` is the layered caching
    architecture with the pre-graph serial chain walk, so any difference
    between the two models is propagation semantics, nothing else."""

    def test_serial_network_bit_identical_to_chain_oracle(self, platform):
        graph_model = _sparse_model(_serial_network(8), platform, cost_mode="profile")
        chain_model = _sparse_model(
            _serial_network(8), platform, model_cls=ChainCostModel, cost_mode="profile"
        )
        for occ in (1e-4, 0.02, 0.1, 0.5, 1.0):
            assert graph_model.occupancy_profile(occ) == chain_model.occupancy_profile(
                occ
            )
            assert graph_model.profile_cost(
                graph_model.occupancy_profile(occ), 2
            ) == chain_model.profile_cost(chain_model.occupancy_profile(occ), 2)

    def test_dag_network_diverges_from_chain_oracle_at_joins(self, network, platform):
        graph_model = _sparse_model(network, platform, cost_mode="profile")
        chain_model = _sparse_model(
            network, platform, model_cls=ChainCostModel, cost_mode="profile"
        )
        a = graph_model.occupancy_profile(0.1)
        b = chain_model.occupancy_profile(0.1)
        names = [s.name for s in network.layers() if s.kind.is_compute]
        first_join = next(
            i
            for i, n in enumerate(names)
            if len(
                [
                    p
                    for p in network.predecessors(n)
                    if network.layer(p).kind.is_compute
                ]
            )
            > 1
        )
        # The serial prefix before the first join is untouched...
        assert a.entries[:first_join] == b.entries[:first_join]
        # ...and the models *must* diverge once joins start combining
        # predecessor supports the chain walk ignores.
        assert a.entries[first_join:] != b.entries[first_join:]

    def test_flat_mode_unaffected_by_graph_refactor(self, network, platform):
        graph_model = _sparse_model(network, platform)
        chain_model = _sparse_model(network, platform, model_cls=ChainCostModel)
        for occ in (0.02, 0.3):
            assert graph_model.profile_cost(
                graph_model.occupancy_profile(occ), 1
            ) == chain_model.profile_cost(chain_model.occupancy_profile(occ), 1)


class TestFleetEquivalenceAndSharing:
    def test_flat_fleet_bit_identical_to_scalar_oracle(
        self, platform, mixed_density_sources
    ):
        # Equivalence mode: uniform (flat) profiles must reproduce the
        # PR-4 scalar cost oracle's MultiStreamReport bit for bit.
        new = MultiStreamSimulator(platform, mixed_density_sources).run()
        oracle = ScalarCostSimulator(platform, mixed_density_sources).run()
        assert new.cost_mode == "flat"
        assert_reports_identical(new, oracle)

    def test_layered_stack_outshares_scalar_keyed_stack(
        self, platform, mixed_density_sources
    ):
        layered = MultiStreamSimulator(
            platform, mixed_density_sources, cost_mode="profile"
        ).run()
        scalar = ScalarCostSimulator(
            platform, mixed_density_sources, cost_mode="profile"
        ).run()
        assert layered.cost_mode == "profile"
        # Identical traffic shape on both stacks...
        assert layered.frames_generated == scalar.frames_generated
        # ...but per-layer bucketing after propagation shares deep-layer
        # cells the scalar-keyed stack re-mints per input bucket.
        assert layered.cache_info["hit_rate"] > scalar.cache_info["hit_rate"]
        assert layered.cache_info["entries"] < scalar.cache_info["entries"]

    def test_dag_fleet_layered_stack_outshares_scalar_keyed_stack(self, platform):
        # The same gate on the zoo's skip-connection networks, where joins
        # keep decoder occupancies input-dependent: per-layer bucketing must
        # still share more cells than the raw-keyed scalar stack.
        networks = [
            build_network(name, 64, 64)
            for name in ("spikeflownet", "fusionflownet", "e2depth", "halsie")
        ]
        scenes = ("calibration_bars", "indoor_flying1", "outdoor_day1", "high_speed_disk")
        config = EvEdgeConfig(
            num_bins=8,
            optimization=OptimizationLevel.E2SF_DSFA,
            dsfa=DSFAConfig(inference_queue_depth=4),
        )
        sources = [
            StreamSource(
                f"dag{i}",
                generate_sequence(scenes[i % 4], scale=0.08, duration=0.25, seed=37 + i),
                networks[i % 4],
                config,
                start_offset=0.0004 * i,
            )
            for i in range(8)
        ]
        layered = MultiStreamSimulator(platform, sources, cost_mode="profile").run()
        scalar = ScalarCostSimulator(platform, sources, cost_mode="profile").run()
        assert layered.frames_generated == scalar.frames_generated
        occupancies = {
            round(r.occupancy, 4)
            for stream in layered.reports.values()
            for r in stream.records
        }
        assert len(occupancies) > 4  # the fleet really mixes densities
        assert layered.cache_info["hit_rate"] > scalar.cache_info["hit_rate"]
        assert layered.cache_info["entries"] < scalar.cache_info["entries"]

    def test_simulator_rejects_unknown_cost_mode(
        self, platform, mixed_density_sources
    ):
        with pytest.raises(ValueError):
            MultiStreamSimulator(
                platform, mixed_density_sources, cost_mode="exact"
            )

    def test_pipeline_profile_mode_runs_and_is_cheaper(self, network, platform):
        sequence = generate_sequence("indoor_flying1", scale=0.1, duration=0.3, seed=0)
        config = EvEdgeConfig(num_bins=5, optimization=OptimizationLevel.E2SF_DSFA)
        flat = EvEdgePipeline(network, platform, config).run(sequence)
        profiled = EvEdgePipeline(
            network, platform, config, cost_mode="profile"
        ).run(sequence)
        assert profiled.num_inferences > 0
        assert profiled.total_energy <= flat.total_energy
