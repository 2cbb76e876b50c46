"""The compiled cost stack against the object-walking stack it replaced.

:class:`~repro.runtime.sim.NetworkCostModel` resolves each layer into an
interned :class:`~repro.runtime.sim.LayerCostTable` cell, keeps one
bucketed profile row per input bucket, sums a merged dispatch's member rows
column by column and evaluates the roofline once per table miss.
:class:`~oracles.runtime.ReferenceCostModel` is the previous
implementation: per-member profiles combined with
``OccupancyProfile.combine``, layer cells hashed on the full layer
descriptor and re-bucketed per lookup, two roofline runs per miss and the
per-node graph walk.  Every observable must be bit-identical: profile
entries, latency and energy floats, ``cache_info()``, fleet reports and
traced profiles.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EvEdgeConfig, EvEdgePipeline, OptimizationLevel
from repro.core.nmp.candidate import Assignment, MappingCandidate
from repro.events import generate_sequence
from repro.hw import jetson_xavier_agx
from repro.models import available_networks, build_network
from repro.nn import MultiTaskGraph, Precision, TaskSpec
from repro.runtime import (
    COST_MODES,
    KernelTrace,
    LayerCostTable,
    MultiStreamSimulator,
    NetworkCostModel,
)
from repro.scenarios import default_registry

from oracles.occupancy import propagate_occupancy_nodes
from oracles.runtime import (
    ReferenceCostModel,
    ReferenceCostSimulator,
    ReferenceLayerCostTable,
)
from test_adaptive_remapping import fast_policy
from test_kernel_equivalence import assert_reports_identical

RESOLUTIONS = (None, 1.0 / 64.0, 1.0 / 16.0, 0.3)
BATCHES = (1, 4, 21)
SMALL = dict(num_streams=4, duration=0.3, scale=0.1, num_bins=4)


@pytest.fixture(scope="module")
def platform():
    return jetson_xavier_agx()


def _density_lists(seed: int, count: int = 14):
    """Seeded member-density columns of 1-21 frames, edge values included."""
    rng = np.random.default_rng(seed)
    lists = [[0.0], [1e-5], [1.0], [0.0, 1e-5, 1.0], [1e-5] * 21]
    for _ in range(count):
        length = int(rng.integers(1, 22))
        values = (rng.random(length) ** 3).tolist()  # skewed sparse, like events
        for special in (0.0, 1e-5, 1.0):
            if rng.random() < 0.3:
                values[int(rng.integers(0, length))] = special
        lists.append(values)
    return lists


def _mapping(network) -> MappingCandidate:
    """Spread the compute layers over the DLA, the CPU and the GPU.

    The DLA has no sparse kernels and no spiking support (those layers fall
    back to the GPU), and every device change adds a transfer.
    """
    devices = (
        Assignment("dla0", Precision.INT8),
        Assignment("gpu", Precision.FP16),
        Assignment("cpu", Precision.FP32),
        Assignment("dla0", Precision.FP16),
    )
    compute = [s.name for s in network.layers() if s.kind.is_compute]
    return MappingCandidate(
        {name: devices[i % len(devices)] for i, name in enumerate(compute)}
    )


def _occupancy(densities):
    """The scalar a dispatcher stamps: the member mean."""
    return float(densities[0]) if len(densities) == 1 else float(np.mean(densities))


@pytest.mark.parametrize("resolution", RESOLUTIONS)
@pytest.mark.parametrize("cost_mode", COST_MODES)
@pytest.mark.parametrize("name", available_networks())
def test_compiled_models_match_object_walk(platform, name, cost_mode, resolution):
    network = build_network(name, 64, 64)
    compiled_table = LayerCostTable(occupancy_resolution=resolution)
    oracle_table = ReferenceLayerCostTable(occupancy_resolution=resolution)

    def pair(level):
        config = EvEdgeConfig(optimization=level)
        return (
            NetworkCostModel(
                network, platform, config, table=compiled_table, cost_mode=cost_mode
            ),
            ReferenceCostModel(
                network, platform, config, table=oracle_table, cost_mode=cost_mode
            ),
        )

    # A sparse mapped model and a dense one share each table, so equal
    # layers on equal devices differ only in their sparse flag.
    sparse, dense = pair(OptimizationLevel.FULL), pair(OptimizationLevel.BASELINE)
    lists = _density_lists(seed=len(name))
    for step, densities in enumerate(lists):
        if step == len(lists) // 2:
            mapping = _mapping(network)
            for model in sparse:
                model.rebind(mapping)
            assert sparse[0].pes_used == sparse[1].pes_used
        for batch in BATCHES:
            for (compiled, oracle), args in (
                (sparse, (densities, _occupancy(densities))),
                (dense, ([], 1.0)),
            ):
                profile = compiled.densities_profile(*args)
                expected = oracle.densities_profile(*args)
                assert profile.entries == expected.entries
                assert [type(e) for e in profile.entries] == [
                    type(e) for e in expected.entries
                ]
                assert compiled.profile_cost(profile, batch) == oracle.profile_cost(
                    expected, batch
                )
        assert compiled_table.cache_info() == oracle_table.cache_info()
    assert compiled_table.cache_info()["misses"] > 0


@pytest.mark.parametrize("cost_mode", COST_MODES)
def test_family_fleets_match_object_walk(platform, cost_mode):
    registry = default_registry()
    assert len(registry.families()) >= 6
    merged = 0
    for family in registry.families():
        sources = registry.compile(family, **SMALL)
        compiled_trace, oracle_trace = KernelTrace(), KernelTrace()
        compiled = MultiStreamSimulator(platform, sources, cost_mode=cost_mode).run(
            trace=compiled_trace
        )
        oracle = ReferenceCostSimulator(platform, sources, cost_mode=cost_mode).run(
            trace=oracle_trace
        )
        assert_reports_identical(compiled, oracle)
        assert compiled.cache_info == oracle.cache_info, family
        assert compiled_trace.profiles() == oracle_trace.profiles(), family
        assert compiled_trace.profiles(), family
        merged += sum(
            record.num_frames > 1
            for report in compiled.reports.values()
            for record in report.records
        )
    assert merged > 0  # merged dispatches reached the member-row sums


def test_remapping_fleet_matches_object_walk(platform):
    """Rebinds mid-run: a churning NMP fleet remaps its cost models."""
    sources = default_registry().compile(
        "churn",
        num_streams=8,
        duration=0.3,
        scale=0.1,
        seed=0,
        params={"optimization": "e2sf+dsfa+nmp"},
    )
    runs = []
    for simulator_class in (MultiStreamSimulator, ReferenceCostSimulator):
        trace = KernelTrace()
        report = simulator_class(
            platform, sources, remap_policy=fast_policy(), cost_mode="profile"
        ).run(trace=trace)
        runs.append((report, trace.profiles()))
    (compiled, compiled_profiles), (oracle, oracle_profiles) = runs
    assert compiled.remaps and compiled.remaps == oracle.remaps
    assert_reports_identical(compiled, oracle)
    assert compiled.cache_info == oracle.cache_info
    assert compiled_profiles == oracle_profiles


@pytest.mark.parametrize("cost_mode", COST_MODES)
def test_pipeline_matches_object_walk(platform, cost_mode):
    network = build_network("spikeflownet", 64, 64)
    sequence = generate_sequence("indoor_flying1", scale=0.1, duration=0.3, seed=0)
    config = EvEdgeConfig(num_bins=5, optimization=OptimizationLevel.E2SF_DSFA)
    compiled = EvEdgePipeline(network, platform, config, cost_mode=cost_mode)
    oracle = EvEdgePipeline(network, platform, config, cost_mode=cost_mode)
    oracle.cost_model = ReferenceCostModel(
        network,
        platform,
        config=config,
        table=ReferenceLayerCostTable(),
        cost_mode=cost_mode,
    )
    compiled_trace, oracle_trace = KernelTrace(), KernelTrace()
    a = compiled.run(sequence, trace=compiled_trace)
    b = oracle.run(sequence, trace=oracle_trace)
    assert a.num_inferences > 0
    assert a.records == b.records
    assert (a.total_energy, a.mean_latency, a.mean_occupancy, a.total_time) == (
        b.total_energy,
        b.mean_latency,
        b.mean_occupancy,
        b.total_time,
    )
    assert compiled_trace.profiles() == oracle_trace.profiles()
    assert (
        compiled.cost_model.table.cache_info() == oracle.cost_model.table.cache_info()
    )


def test_miss_evaluates_the_roofline_once(platform, monkeypatch):
    """One compiled-roofline evaluation per table miss, none per hit."""
    from repro.hw.latency import Roofline

    calls = []
    original = Roofline.evaluate

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Roofline, "evaluate", counting)
    model = NetworkCostModel(
        build_network("e2depth", 64, 64),
        platform,
        EvEdgeConfig(optimization=OptimizationLevel.E2SF_DSFA),
        table=LayerCostTable(occupancy_resolution=1.0 / 64.0),
        cost_mode="profile",
    )
    for densities in ([0.1], [0.02, 0.3, 0.1], [0.1]):
        model.profile_cost(model.densities_profile(densities, _occupancy(densities)), 2)
    assert len(calls) == model.table.cache_info()["misses"] > 0


def test_compiled_plan_follows_graph_mutation(platform):
    """``add_layer`` drops the graph's compiled plan like its topo order."""
    from repro.nn import LayerKind, LayerSpec, propagate_occupancy_graph

    network = build_network("spikeflownet", 64, 64)
    before = propagate_occupancy_graph(network, 0.1)
    sink = network.sinks()[0]
    network.add_layer(
        LayerSpec(name="extra", kind=LayerKind.CONV2D, in_height=8, in_width=8),
        inputs=[sink],
    )
    after = propagate_occupancy_graph(network, 0.1)
    compute = [s for s in network.layers() if s.kind.is_compute]
    assert len(after) == len(compute) == len(before) + 1
    assert after == propagate_occupancy_nodes(network, 0.1)


def _resolution(model):
    return model._cells, model._transfers, model.pes_used


def test_rebinds_reuse_compiled_resolutions(platform, monkeypatch):
    """A → B → None → A restores what a fresh model compiles for each mapping.

    ``A`` maps bare layer names, ``B`` full node ids of a two-network graph.
    Each mapping key compiles once; profile costs stay bit-identical to the
    oracle, which re-resolves on every rebind.
    """
    network = build_network("spikeflownet", 64, 64)
    graph = MultiTaskGraph(
        [TaskSpec(network), TaskSpec(build_network("dotie", 64, 64))]
    )
    mapping_a = _mapping(network)
    mapping_b = MappingCandidate.random(graph, platform, np.random.default_rng(1))
    config = EvEdgeConfig(optimization=OptimizationLevel.FULL)
    table, oracle_table = LayerCostTable(), ReferenceLayerCostTable()
    model = NetworkCostModel(
        network, platform, config, mapping=mapping_a, table=table, cost_mode="profile"
    )
    oracle = ReferenceCostModel(
        network,
        platform,
        config,
        mapping=mapping_a,
        table=oracle_table,
        cost_mode="profile",
    )
    compiled = []
    original = NetworkCostModel._compile

    def counting(self, key):
        compiled.append(key)
        return original(self, key)

    monkeypatch.setattr(NetworkCostModel, "_compile", counting)
    first = _resolution(model)
    for mapping in (mapping_b, None, mapping_a, mapping_b, mapping_a):
        model.rebind(mapping)
        oracle.rebind(mapping)
        fresh = NetworkCostModel(
            network, platform, config, mapping=mapping, table=table, cost_mode="profile"
        )
        assert _resolution(model) == _resolution(fresh)
        assert model.pes_used == oracle.pes_used
        for densities in _density_lists(seed=3, count=3):
            for batch in BATCHES:
                profile = model.densities_profile(densities, _occupancy(densities))
                expected = oracle.densities_profile(densities, _occupancy(densities))
                assert model.profile_cost(profile, batch) == oracle.profile_cost(
                    expected, batch
                )
    assert table.cache_info() == oracle_table.cache_info()
    assert _resolution(model) == first
    assert all(a is b for a, b in zip(_resolution(model), first))  # reused, not rebuilt
    # The rebound model compiled B and the all-baseline key once each; the
    # fresh models compiled one key each.
    assert len(compiled) == 2 + 5
    assert len(set(compiled)) == 3


def test_rebind_to_another_networks_change_reuses_the_resolution(platform, monkeypatch):
    """A mapping that differs only on another network's nodes keys the same."""
    network, other = build_network("halsie", 64, 64), build_network("dotie", 64, 64)
    graph = MultiTaskGraph([TaskSpec(network), TaskSpec(other)])
    mapping = MappingCandidate.random(graph, platform, np.random.default_rng(2))
    changed = mapping.copy()
    for node in changed.assignments:
        if node.startswith(f"{other.name}."):
            previous = changed[node]
            changed.assignments[node] = Assignment(
                "cpu" if previous.pe != "cpu" else "gpu", previous.precision
            )
    assert changed.key() != mapping.key()
    model = NetworkCostModel(
        network,
        platform,
        EvEdgeConfig(optimization=OptimizationLevel.FULL),
        mapping=mapping,
        cost_mode="profile",
    )
    cost = model.profile_cost(model.occupancy_profile(0.1), 1)
    before = _resolution(model)
    monkeypatch.setattr(
        NetworkCostModel,
        "_compile",
        lambda self, key: pytest.fail("a known mapping key was compiled again"),
    )
    model.rebind(changed)
    assert model.mapping is changed
    assert all(a is b for a, b in zip(_resolution(model), before))
    # The key also keeps its whole-network memo: the cost is a memo hit
    # that adds no table lookup.
    info = model.table.cache_info()
    assert model.profile_cost(model.occupancy_profile(0.1), 1) == cost
    assert model.table.cache_info() == info


def test_each_mapping_key_keeps_its_own_network_memo(platform):
    """A new key starts with an empty memo, and A → B → A finds A's entries.

    The oracle keeps one memo per mapping key too, so the table counters,
    hits included, stay equal to its own after every step.
    """
    network = build_network("spikeflownet", 64, 64)
    config = EvEdgeConfig(optimization=OptimizationLevel.FULL)
    mapping_a, mapping_b = None, _mapping(network)
    table, oracle_table = LayerCostTable(), ReferenceLayerCostTable()
    model = NetworkCostModel(
        network, platform, config, mapping=mapping_a, table=table, cost_mode="profile"
    )
    oracle = ReferenceCostModel(
        network,
        platform,
        config,
        mapping=mapping_a,
        table=oracle_table,
        cost_mode="profile",
    )

    def cost_all(cost_model):
        return [
            cost_model.profile_cost(cost_model.occupancy_profile(occupancy), batch)
            for occupancy in (0.02, 0.1, 0.3)
            for batch in BATCHES
        ]

    costs_a = cost_all(model)
    assert costs_a == cost_all(oracle)
    memo_a, entries_a = model._cache, dict(model._cache)
    model.rebind(mapping_b)
    oracle.rebind(mapping_b)
    assert model._cache == {}
    costs_b = cost_all(model)
    assert costs_b == cost_all(oracle) != costs_a
    assert table.cache_info() == oracle_table.cache_info()
    model.rebind(mapping_a)
    oracle.rebind(mapping_a)
    assert model._cache is memo_a and model._cache == entries_a
    info = table.cache_info()
    assert cost_all(model) == cost_all(oracle) == costs_a
    assert table.cache_info() == oracle_table.cache_info() == info
