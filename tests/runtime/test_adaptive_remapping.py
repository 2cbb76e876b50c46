"""Tests for online traffic-adaptive remapping in the multi-stream simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EvEdgeConfig, NMPConfig, OptimizationLevel
from repro.events import generate_sequence
from repro.hw import PlatformProfiler, ProfileTable, jetson_xavier_agx
from repro.models import build_network
from repro.nn import MultiTaskGraph, TaskSpec
from repro.runtime import (
    AdaptiveMappingClient,
    MultiStreamSimulator,
    NetworkCostModel,
    RemapPolicy,
    StreamSource,
)
from repro.scenarios import default_registry

from oracles.runtime import RerunMappingClient, RerunRemapSimulator


@pytest.fixture(scope="module")
def platform():
    return jetson_xavier_agx()


@pytest.fixture(scope="module")
def resident_sequence():
    return generate_sequence("town10", scale=0.12, duration=0.8, seed=0)


@pytest.fixture(scope="module")
def joining_sequence():
    return generate_sequence("indoor_flying1", scale=0.12, duration=0.4, seed=1)


@pytest.fixture(scope="module")
def networks():
    return {
        "e2depth": build_network("e2depth", 96, 96),
        "evflownet": build_network("evflownet", 96, 96),
    }


JOIN_TIME = 0.3
FULL = EvEdgeConfig(num_bins=6, optimization=OptimizationLevel.FULL)


def make_sources(resident_sequence, joining_sequence, networks):
    return [
        StreamSource("resident", resident_sequence, networks["e2depth"], FULL),
        StreamSource(
            "joiner",
            joining_sequence,
            networks["evflownet"],
            FULL,
            start_offset=JOIN_TIME,
        ),
    ]


def fast_policy(**kwargs):
    return RemapPolicy(
        nmp_config=NMPConfig(population_size=8, generations=4, seed=0), **kwargs
    )


class TestAdaptiveMappingClient:
    def test_remap_covers_all_networks(self, platform, networks):
        client = AdaptiveMappingClient(platform, fast_policy())
        result = client.remap(list(networks.values()))
        nodes = set(result.best_candidate.assignments)
        for name, network in networks.items():
            for layer in network.layer_names():
                spec = network.layer(layer)
                if spec.kind.is_compute:
                    assert f"{name}.{layer}" in nodes
        assert len(client.records) == 1
        assert client.records[0].networks == tuple(networks)

    def test_engines_are_cached_per_network_set(self, platform, networks):
        client = AdaptiveMappingClient(platform, fast_policy())
        nets = list(networks.values())
        assert client.engine_for(nets) is client.engine_for(list(reversed(nets)))

    def test_cooldown_suppresses_rapid_remaps(self, platform):
        client = AdaptiveMappingClient(platform, fast_policy(min_interval=1.0))
        assert client.should_remap(0.0, "join")
        client._last_remap_time = 0.0
        assert not client.should_remap(0.5, "join")
        assert client.should_remap(1.5, "leave")

    def test_trigger_switches(self, platform):
        client = AdaptiveMappingClient(
            platform, fast_policy(remap_on_join=False, remap_on_leave=False)
        )
        assert not client.should_remap(0.0, "join")
        assert not client.should_remap(0.0, "leave")

    def test_empty_network_set_is_a_noop(self, platform):
        client = AdaptiveMappingClient(platform, fast_policy())
        assert client.remap([]) is None
        assert client.records == []


class TestCostModelRebind:
    def test_rebind_swaps_assignments_and_clears_cache(self, platform, networks):
        model = NetworkCostModel(networks["e2depth"], platform, config=FULL)
        baseline_cost = model.inference_cost(0.1, 1)
        assert model._cache  # memoized
        client = AdaptiveMappingClient(platform, fast_policy())
        result = client.remap([networks["e2depth"], networks["evflownet"]])
        model.rebind(result.best_candidate)
        assert model.mapping is result.best_candidate
        assert not model._cache  # every memoized whole-network cost invalidated
        rebound_cost = model.inference_cost(0.1, 1)
        # The searched mapping differs from the all-GPU default for this
        # contended two-network scenario, so the cost surface changed.
        assert rebound_cost != baseline_cost or model.pes_used != ("gpu",)


class TestAdaptiveMultiStream:
    def test_remaps_fire_at_joins_and_leaves(
        self, platform, resident_sequence, joining_sequence, networks
    ):
        sources = make_sources(resident_sequence, joining_sequence, networks)
        report = MultiStreamSimulator(
            platform, sources, remap_policy=fast_policy()
        ).run()
        times_reasons = [(r.time, r.reason) for r in report.remaps]
        assert (0.0, "join") in times_reasons
        assert (JOIN_TIME, "join") in times_reasons
        reasons = {r.reason for r in report.remaps}
        assert "leave" in reasons
        # The mid-run join searches over both networks.
        join_record = next(r for r in report.remaps if r.time == JOIN_TIME)
        assert set(join_record.networks) == set(networks)
        assert set(join_record.active_streams) == {"resident", "joiner"}

    def test_latency_recovers_after_traffic_mix_change(
        self, platform, resident_sequence, joining_sequence, networks
    ):
        static = MultiStreamSimulator(
            platform, make_sources(resident_sequence, joining_sequence, networks)
        ).run()
        adaptive = MultiStreamSimulator(
            platform,
            make_sources(resident_sequence, joining_sequence, networks),
            remap_policy=fast_policy(),
        ).run()

        def contended_latency(report):
            records = [
                r
                for r in report.reports["resident"].records
                if r.dispatch_time >= JOIN_TIME
            ]
            assert records
            return float(np.mean([r.latency for r in records]))

        # After the joiner arrives, the adaptively remapped deployment
        # serves the resident stream faster than the static all-GPU one.
        assert contended_latency(adaptive) < contended_latency(static)
        assert len(adaptive.remaps) >= 2
        assert static.remaps == []

    def test_remap_policy_off_means_no_triggers(
        self, platform, resident_sequence, joining_sequence, networks
    ):
        sources = make_sources(resident_sequence, joining_sequence, networks)
        policy = fast_policy(remap_on_join=False, remap_on_leave=False)
        report = MultiStreamSimulator(platform, sources, remap_policy=policy).run()
        assert report.remaps == []

    def test_non_nmp_streams_do_not_participate(
        self, platform, resident_sequence, joining_sequence, networks
    ):
        config = EvEdgeConfig(num_bins=6, optimization=OptimizationLevel.E2SF_DSFA)
        sources = [
            StreamSource("resident", resident_sequence, networks["e2depth"], config),
            StreamSource(
                "joiner",
                joining_sequence,
                networks["evflownet"],
                config,
                start_offset=JOIN_TIME,
            ),
        ]
        report = MultiStreamSimulator(
            platform, sources, remap_policy=fast_policy()
        ).run()
        # Triggers fire but no NMP-enabled stream is active, so no search runs.
        assert report.remaps == []

    def test_min_interval_coalesces_remaps(
        self, platform, resident_sequence, joining_sequence, networks
    ):
        sources = make_sources(resident_sequence, joining_sequence, networks)
        policy = fast_policy(min_interval=10.0)
        report = MultiStreamSimulator(platform, sources, remap_policy=policy).run()
        assert len(report.remaps) == 1
        assert report.remaps[0].time == 0.0

    def test_cooldown_resets_between_runs(
        self, platform, resident_sequence, joining_sequence, networks
    ):
        # The cooldown clock is per-run simulated time: a second run of the
        # same simulator must remap again rather than inherit the first
        # run's last-remap timestamp.
        sources = make_sources(resident_sequence, joining_sequence, networks)
        policy = fast_policy(min_interval=10.0)
        simulator = MultiStreamSimulator(platform, sources, remap_policy=policy)
        first = simulator.run()
        second = simulator.run()
        assert len(first.remaps) == 1
        assert len(second.remaps) == 1
        assert second.remaps[0].time == 0.0


def _same_search(result, expected):
    """Everything a search returns except its cache counters."""
    assert result.best_candidate.key() == expected.best_candidate.key()
    assert result.best_breakdown == expected.best_breakdown
    assert result.history == expected.history
    assert result.requested_evaluations == expected.requested_evaluations
    assert result.strategy == expected.strategy


class TestSearchMemo:
    def test_repeated_remap_returns_the_memoized_search(self, platform, networks):
        client = AdaptiveMappingClient(platform, fast_policy())
        nets = list(networks.values())
        first = client.remap(nets)
        again = client.remap(list(reversed(nets)))
        _same_search(again, first)
        # A re-run would hit the fitness cache for every candidate it proposes.
        assert again.evaluations == 0
        assert again.cache_hits == again.requested_evaluations
        assert client.records[1].best_latency == client.records[0].best_latency
        assert client.records[1].evaluations == client.records[0].evaluations
        # rebind() stores the candidate, so every remap hands out its own and
        # a caller's edits never reach the memo.
        assert again.best_candidate is not first.best_candidate
        expected = first.best_candidate.key()
        first.best_candidate.assignments.clear()
        again.best_candidate.assignments.clear()
        assert client.remap(nets).best_candidate.key() == expected

    def test_remap_sequence_matches_rerun_oracle(self, platform, networks):
        # The same network set recurs with different warm starts: the memo
        # must tell them apart and must not change any search's outcome.
        policy = fast_policy()
        client = AdaptiveMappingClient(platform, policy)
        oracle = RerunMappingClient(platform, policy)
        nets = list(networks.values())
        solo = [networks["e2depth"]]
        deployed = {}
        for step in [nets, solo, nets, nets, solo, nets, list(reversed(nets))]:
            result = client.remap(step, current_assignments=dict(deployed))
            expected = oracle.remap(step, current_assignments=dict(deployed))
            _same_search(result, expected)
            deployed.update(result.best_candidate.assignments)
        assert client.records == oracle.records

    def test_churn_fleet_matches_rerun_oracle(self, platform):
        registry = default_registry()
        sources = registry.compile(
            "churn",
            num_streams=16,
            duration=0.4,
            scale=0.12,
            seed=0,
            params={"optimization": "e2sf+dsfa+nmp"},
        )
        policy = fast_policy()
        report = MultiStreamSimulator(
            platform, sources, remap_policy=policy, cost_mode="profile"
        ).run()
        oracle = RerunRemapSimulator(
            platform, sources, remap_policy=policy, cost_mode="profile"
        ).run()
        network_sets = {frozenset(r.networks) for r in report.remaps}
        assert len(report.remaps) > 2 * len(network_sets)  # sets recur
        assert report.remaps == oracle.remaps
        assert _fleet_aggregates(report) == _fleet_aggregates(oracle)


def _fleet_aggregates(report):
    per_stream = {
        name: (r.num_inferences, r.frames_generated, r.frames_dropped, r.total_energy)
        for name, r in report.reports.items()
    }
    return (
        per_stream,
        report.events_processed,
        report.total_inferences,
        report.frames_dropped,
        report.total_energy,
        report.makespan,
        report.mean_latency,
        report.throughput,
    )


class TestProfilesPerNetwork:
    def test_engine_profile_equals_joint_profile(self, platform):
        nets = {
            name: build_network(name, 32, 32)
            for name in ("dotie", "e2depth", "evflownet")
        }
        policy = fast_policy()
        client = AdaptiveMappingClient(platform, policy)
        # Overlapping subsets share per-network tables inside the client.
        for subset in (
            ["dotie", "e2depth"],
            ["e2depth", "evflownet"],
            ["evflownet", "dotie", "e2depth"],
            ["e2depth"],
        ):
            graphs = [nets[name] for name in subset]
            joint = PlatformProfiler(platform).profile(
                MultiTaskGraph([TaskSpec(g) for g in graphs]),
                occupancy=policy.profile_occupancy,
            )
            assert client.engine_for(graphs).profile._entries == joint._entries

    def test_union_rejects_tables_of_other_platforms(self, platform):
        graph = MultiTaskGraph([TaskSpec(build_network("dotie", 32, 32))])
        tables = [
            PlatformProfiler(p).profile(graph) for p in (platform, jetson_xavier_agx())
        ]
        with pytest.raises(ValueError, match="different platforms"):
            ProfileTable.union(tables)


class TestOneGraphPerName:
    def test_reused_name_for_another_graph_raises(self, platform):
        large = build_network("dotie", 96, 96)
        small = build_network("dotie", 32, 32)
        client = AdaptiveMappingClient(platform, fast_policy())
        client.remap([large])
        with pytest.raises(ValueError, match="dotie"):
            client.engine_for([small])
        with pytest.raises(ValueError, match="dotie"):
            client.remap([small])
        # The same graph object stays welcome; a fresh client takes the other.
        assert client.remap([large]) is not None
        assert AdaptiveMappingClient(platform, fast_policy()).remap([small]) is not None

    def test_two_graphs_with_one_name_in_one_call_raise(self, platform):
        client = AdaptiveMappingClient(platform, fast_policy())
        with pytest.raises(ValueError, match="dotie"):
            client.remap([build_network("dotie", 32, 32), build_network("dotie", 32, 32)])
