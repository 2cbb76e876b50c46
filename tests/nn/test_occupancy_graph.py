"""Tests for graph-aware occupancy propagation (repro.nn.occupancy).

Covers the graph walker against every zoo network: serial nets must be
bit-identical to the chain oracle (:mod:`oracles.occupancy`), DAG join
nodes must see the combined predecessor support (union for element-wise
fusion, channel-weighted mean for concat-style skips), two-stream networks
must give *every* source the measured input, and profiles must stay
monotone in input density.
"""

from __future__ import annotations

import pytest

from repro.models import available_networks, build_network
from oracles.occupancy import propagate_occupancy_chain, propagate_occupancy_nodes
from repro.nn import (
    LayerGraph,
    LayerKind,
    LayerSpec,
    combine_supports,
    layer_output_occupancy,
    propagate_occupancy_graph,
)

ALL_NETWORKS = available_networks()
DAG_NETWORKS = [
    name
    for name in ALL_NETWORKS
    if any(
        len(build_network(name, 64, 64).predecessors(n)) > 1
        for n in build_network(name, 64, 64).layer_names()
    )
]
SERIAL_NETWORKS = [name for name in ALL_NETWORKS if name not in DAG_NETWORKS]


def _compute_names(graph: LayerGraph):
    return [n for n in graph.layer_names() if graph.layer(n).kind.is_compute]


def _compute_preds(graph: LayerGraph, name: str):
    return [p for p in graph.predecessors(name) if graph.layer(p).kind.is_compute]


def _conv(name, kind=LayerKind.CONV2D, sparsity=0.3):
    return LayerSpec(
        name=name,
        kind=kind,
        in_channels=4,
        out_channels=4,
        in_height=16,
        in_width=16,
        kernel_size=3,
        activation_sparsity=sparsity,
    )


class TestCombineSupports:
    def test_elementwise_union_is_independent_site(self):
        consumer = _conv("fuse", kind=LayerKind.ELEMENTWISE)
        combined = combine_supports(consumer, [0.3, 0.5], [1.0, 1.0])
        assert combined == pytest.approx(1.0 - 0.7 * 0.5)

    def test_union_strictly_grows_each_active_branch(self):
        consumer = _conv("fuse", kind=LayerKind.ELEMENTWISE)
        for supports in ([0.1, 0.4], [0.25, 0.25, 0.25]):
            combined = combine_supports(consumer, supports, [1.0] * len(supports))
            for branch in supports:
                assert combined > branch

    def test_concat_join_is_channel_weighted_mean(self):
        consumer = _conv("dec")
        combined = combine_supports(consumer, [0.2, 0.6], [3.0, 1.0])
        assert combined == pytest.approx(0.3)

    def test_validation(self):
        consumer = _conv("dec")
        with pytest.raises(ValueError):
            combine_supports(consumer, [0.1], [1.0, 2.0])
        with pytest.raises(ValueError):
            combine_supports(consumer, [], [])
        with pytest.raises(ValueError):
            combine_supports(consumer, [0.1, 0.2], [0.0, 0.0])


class TestGraphPropagation:
    @pytest.mark.parametrize("name", ALL_NETWORKS)
    def test_profile_covers_every_compute_layer(self, name):
        net = build_network(name, 64, 64)
        entries = propagate_occupancy_graph(net, 0.08)
        assert len(entries) == net.num_layers
        assert all(0.0 <= e <= 1.0 for e in entries)

    @pytest.mark.parametrize("name", SERIAL_NETWORKS)
    def test_serial_zoo_nets_bit_identical_to_chain(self, name):
        net = build_network(name, 64, 64)
        specs = [s for s in net.layers() if s.kind.is_compute]
        for density in (1e-4, 0.03, 0.1, 0.5, 1.0):
            assert propagate_occupancy_graph(net, density) == propagate_occupancy_chain(
                specs, density
            )

    def test_synthetic_serial_chain_bit_identical_to_chain(self):
        g = LayerGraph("chain")
        specs = [
            _conv("a", kind=LayerKind.CONV_LIF, sparsity=0.95),
            _conv("p", kind=LayerKind.POOL, sparsity=0.0),
            _conv("b", kind=LayerKind.CONV_LIF, sparsity=0.85),
            _conv("c", sparsity=0.3),
        ]
        g.chain(specs)
        for density in (0.01, 0.2, 0.9):
            assert propagate_occupancy_graph(g, density) == propagate_occupancy_chain(
                specs, density
            )

    @pytest.mark.parametrize("name", ALL_NETWORKS)
    def test_compiled_plan_bit_identical_to_node_walk(self, name):
        # The propagation plan (predecessor indices, join kinds, receptive
        # fields, firing fractions, channel weights) must replay the
        # per-node networkx walk's float operations exactly.
        net = build_network(name, 64, 64)
        for density in (0.0, 1e-5, 1e-4, 0.03, 0.1, 0.37, 0.5, 0.999, 1.0):
            assert propagate_occupancy_graph(net, density) == propagate_occupancy_nodes(
                net, density
            )

    def test_synthetic_joins_bit_identical_to_node_walk(self):
        # Union and weighted-mean joins, an FC head and a strided deconv.
        g = LayerGraph("joins")
        g.add_layer(_conv("a", sparsity=0.5))
        g.add_layer(
            LayerSpec(
                name="b",
                kind=LayerKind.DECONV2D,
                in_channels=4,
                out_channels=6,
                in_height=16,
                in_width=16,
                kernel_size=4,
                stride=2,
            ),
            inputs=["a"],
        )
        g.add_layer(_conv("c", sparsity=0.2), inputs=["a"])
        g.add_layer(
            LayerSpec(name="add", kind=LayerKind.ELEMENTWISE, in_channels=4, out_channels=4),
            inputs=["b", "c"],
        )
        g.add_layer(_conv("cat", sparsity=0.7), inputs=["add", "a", "c"])
        g.add_layer(
            LayerSpec(name="fc", kind=LayerKind.FC, in_channels=4, out_channels=10),
            inputs=["cat"],
        )
        g.add_layer(_conv("tail", sparsity=0.1), inputs=["fc", "b"])
        for density in (0.0, 0.004, 0.2, 0.8, 1.0):
            assert propagate_occupancy_graph(g, density) == propagate_occupancy_nodes(
                g, density
            )

    @pytest.mark.parametrize("name", ALL_NETWORKS)
    def test_monotone_in_input_density(self, name):
        net = build_network(name, 64, 64)
        low = propagate_occupancy_graph(net, 0.02)
        high = propagate_occupancy_graph(net, 0.15)
        for lo, hi in zip(low, high):
            assert lo <= hi + 1e-15

    @pytest.mark.parametrize("name", DAG_NETWORKS)
    def test_join_nodes_see_combined_predecessor_support(self, name):
        # Acceptance criterion: every multi-input node's entry equals the
        # independent-site combination of its predecessors' dilated
        # supports, scaled by the node's own firing fraction.
        net = build_network(name, 64, 64)
        names = _compute_names(net)
        entries = dict(zip(names, propagate_occupancy_graph(net, 0.1)))
        joins = [n for n in names if len(_compute_preds(net, n)) > 1]
        assert joins, f"{name} should have join nodes"
        for join in joins:
            spec = net.layer(join)
            preds = _compute_preds(net, join)
            dilated = [
                layer_output_occupancy(net.layer(p), entries[p]) for p in preds
            ]
            expected = combine_supports(
                spec,
                dilated,
                [float(max(net.layer(p).out_channels, 1)) for p in preds],
            ) * (1.0 - spec.activation_sparsity)
            assert entries[join] == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("name", DAG_NETWORKS)
    def test_elementwise_joins_dominate_every_branch(self, name):
        # Union joins see *at least* each branch alone — strictly more
        # when several branches are active.  (Concat-style skips are a
        # channel-weighted mean and sit between their branches instead.)
        net = build_network(name, 64, 64)
        names = _compute_names(net)
        entries = dict(zip(names, propagate_occupancy_graph(net, 0.1)))
        for n in names:
            spec = net.layer(n)
            preds = _compute_preds(net, n)
            if len(preds) <= 1 or spec.kind is not LayerKind.ELEMENTWISE:
                continue
            dilated = [
                layer_output_occupancy(net.layer(p), entries[p]) for p in preds
            ]
            fused_support = entries[n] / (1.0 - spec.activation_sparsity)
            for branch in dilated:
                assert fused_support > branch - 1e-15
                if all(d > 0 for d in dilated):
                    assert fused_support > branch

    @pytest.mark.parametrize("name", DAG_NETWORKS)
    def test_concat_joins_sit_between_their_branches(self, name):
        net = build_network(name, 64, 64)
        names = _compute_names(net)
        entries = dict(zip(names, propagate_occupancy_graph(net, 0.1)))
        for n in names:
            spec = net.layer(n)
            preds = _compute_preds(net, n)
            if len(preds) <= 1 or spec.kind is LayerKind.ELEMENTWISE:
                continue
            dilated = [
                layer_output_occupancy(net.layer(p), entries[p]) for p in preds
            ]
            support = entries[n] / (1.0 - spec.activation_sparsity)
            assert min(dilated) - 1e-15 <= support <= max(dilated) + 1e-15

    @pytest.mark.parametrize("name", ["fusionflownet", "halsie"])
    def test_every_source_sees_the_measured_input(self, name):
        # The chain walk gave the second stream head a *dilated* occupancy
        # (whatever spec preceded it in topo order); the graph walker hands
        # every source the measured input density.
        net = build_network(name, 64, 64)
        names = _compute_names(net)
        entries = dict(zip(names, propagate_occupancy_graph(net, 0.07)))
        sources = [n for n in names if not _compute_preds(net, n)]
        assert len(sources) >= 2, f"{name} should be two-stream"
        for source in sources:
            assert entries[source] == pytest.approx(0.07)


class TestWithFiringFractions:
    def test_returns_calibrated_copy(self):
        net = build_network("spikeflownet", 64, 64)
        before = net.layer("enc2").activation_sparsity
        calibrated = net.with_firing_fractions({"enc2": 0.4})
        assert calibrated.layer("enc2").activation_sparsity == pytest.approx(0.6)
        # The original graph is untouched.
        assert net.layer("enc2").activation_sparsity == before
        # Unnamed layers keep their configured sparsity.
        assert calibrated.layer("enc3").activation_sparsity == net.layer(
            "enc3"
        ).activation_sparsity

    def test_validation(self):
        net = build_network("dotie", 64, 64)
        with pytest.raises(KeyError):
            net.with_firing_fractions({"nope": 0.5})
        with pytest.raises(ValueError):
            net.with_firing_fractions({"spike_filter": 0.0})
        with pytest.raises(ValueError):
            net.with_firing_fractions({"spike_filter": 1.5})
