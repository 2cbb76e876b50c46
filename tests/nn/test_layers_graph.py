"""Tests for layer descriptors and the (multi-task) layer graph."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.nn import LayerGraph, LayerKind, LayerSpec, MultiTaskGraph, Precision, TaskSpec


def conv(name, c_in=2, c_out=8, h=64, w=64, stride=1, kind=LayerKind.CONV2D, timesteps=1, sparsity=0.0):
    return LayerSpec(
        name=name,
        kind=kind,
        in_channels=c_in,
        out_channels=c_out,
        in_height=h,
        in_width=w,
        kernel_size=3,
        stride=stride,
        timesteps=timesteps,
        activation_sparsity=sparsity,
    )


class TestLayerSpec:
    def test_conv_output_shape(self):
        layer = conv("c", stride=2)
        assert layer.output_shape == (8, 32, 32)

    def test_deconv_output_shape(self):
        layer = conv("d", kind=LayerKind.DECONV2D, stride=2)
        assert layer.output_shape == (8, 128, 128)

    def test_conv_macs(self):
        layer = conv("c", c_in=2, c_out=4, h=8, w=8)
        assert layer.macs == 8 * 8 * 4 * 2 * 9

    def test_snn_timesteps_multiply_macs(self):
        ann = conv("a")
        snn = conv("s", kind=LayerKind.CONV_LIF, timesteps=5)
        assert snn.macs == 5 * ann.macs
        assert snn.is_spiking

    def test_effective_macs_scaled_by_sparsity(self):
        layer = conv("c", sparsity=0.75)
        assert layer.effective_macs == pytest.approx(layer.macs * 0.25, rel=0.01)

    def test_fc_parameters(self):
        layer = LayerSpec("fc", LayerKind.FC, in_channels=16, out_channels=10,
                          in_height=4, in_width=4)
        assert layer.num_parameters == 16 * 4 * 4 * 10 + 10

    def test_pool_has_no_parameters(self):
        layer = conv("p", kind=LayerKind.POOL)
        assert layer.num_parameters == 0

    def test_activation_and_weight_bytes(self):
        layer = conv("c", c_in=2, c_out=4, h=8, w=8)
        assert layer.weight_bytes(Precision.FP32) == 4 * layer.num_parameters
        assert layer.weight_bytes(Precision.INT8) == layer.num_parameters
        assert layer.output_bytes(Precision.FP16) == layer.output_activation_elements * 2

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            conv("bad", c_in=0)
        with pytest.raises(ValueError):
            LayerSpec("bad", LayerKind.CONV2D, timesteps=0)
        with pytest.raises(ValueError):
            LayerSpec("bad", LayerKind.CONV2D, activation_sparsity=1.0)

    def test_fc_pool_and_elementwise_macs(self):
        fc = LayerSpec("fc", LayerKind.FC, in_channels=16, out_channels=10,
                       in_height=4, in_width=4)
        assert fc.output_shape == (10, 1, 1)
        assert fc.macs == 16 * 4 * 4 * 10
        pool = conv("p", c_in=8, c_out=8, h=8, w=8, stride=2, kind=LayerKind.POOL)
        assert pool.macs == 4 * 4 * 8 * 9
        add = conv("a", c_in=8, c_out=8, h=8, w=8, kind=LayerKind.ELEMENTWISE)
        assert add.macs == 8 * 8 * 8
        assert LayerSpec("in", LayerKind.INPUT).macs == 0

    def test_spatial_and_kernel_validation(self):
        with pytest.raises(ValueError):
            conv("bad", h=0)
        with pytest.raises(ValueError):
            conv("bad", stride=0)
        # Pseudo-layers carry no compute geometry to validate.
        LayerSpec("in", LayerKind.INPUT, in_channels=0, in_height=0)

    def test_with_sparsity_copy(self):
        layer = conv("c")
        copy = layer.with_sparsity(0.5)
        assert copy.activation_sparsity == 0.5
        assert layer.activation_sparsity == 0.0


class TestLayerGraph:
    def build_simple(self):
        g = LayerGraph("net", task="optical_flow")
        g.add_layer(conv("enc1"))
        g.add_layer(conv("enc2", kind=LayerKind.CONV_LIF, timesteps=2), inputs=["enc1"])
        g.add_layer(conv("dec1"), inputs=["enc2"])
        return g

    def test_topology(self):
        g = self.build_simple()
        assert g.layer_names() == ["enc1", "enc2", "dec1"]
        assert g.predecessors("dec1") == ["enc2"]
        assert g.sources() == ["enc1"]
        assert g.sinks() == ["dec1"]

    def test_counts_and_type(self):
        g = self.build_simple()
        assert g.num_layers == 3
        assert g.num_snn_layers == 1
        assert g.num_ann_layers == 2
        assert g.network_type == "SNN-ANN"

    def test_all_ann_and_all_snn_types(self):
        ann = LayerGraph("a")
        ann.add_layer(conv("c1"))
        assert ann.network_type == "ANN"
        snn = LayerGraph("s")
        snn.add_layer(conv("c1", kind=LayerKind.CONV_LIF))
        assert snn.network_type == "SNN"

    def test_duplicate_layer_rejected(self):
        g = LayerGraph("net")
        g.add_layer(conv("x"))
        with pytest.raises(ValueError):
            g.add_layer(conv("x"))

    def test_unknown_input_rejected(self):
        g = LayerGraph("net")
        with pytest.raises(KeyError):
            g.add_layer(conv("x"), inputs=["missing"])

    def test_self_dependency_rejected_and_rolled_back(self):
        g = LayerGraph("net")
        g.add_layer(conv("a"))
        with pytest.raises(ValueError):
            g.add_layer(conv("b"), inputs=["b"])
        assert "b" not in g
        assert g.layer_names() == ["a"]

    def test_len_and_repr(self):
        g = self.build_simple()
        assert len(g) == 3
        assert repr(g) == (
            "LayerGraph(name='net', task='optical_flow', layers=3, type=SNN-ANN)"
        )

    def test_chain_builder(self):
        g = LayerGraph("net")
        g.chain([conv("a"), conv("b"), conv("c")])
        assert g.layer_names() == ["a", "b", "c"]
        assert g.predecessors("c") == ["b"]

    def test_total_macs(self):
        g = self.build_simple()
        assert g.total_macs == sum(l.macs for l in g.layers())

    def test_copy_is_independent(self):
        g = self.build_simple()
        clone = g.copy("clone")
        clone.add_layer(conv("extra"), inputs=["dec1"])
        assert "extra" not in g
        assert clone.name == "clone"


class TestMultiTaskGraph:
    def make_graph(self, name):
        g = LayerGraph(name)
        g.chain([conv("a"), conv("b")])
        return g

    def test_union_of_tasks(self):
        mtg = MultiTaskGraph([TaskSpec(self.make_graph("n1")), TaskSpec(self.make_graph("n2"))])
        assert len(mtg) == 4
        assert set(mtg.task_names) == {"n1", "n2"}
        assert mtg.network_of("n1.a") == "n1"
        assert mtg.predecessors("n1.b") == ["n1.a"]

    def test_no_cross_network_edges(self):
        mtg = MultiTaskGraph([TaskSpec(self.make_graph("n1")), TaskSpec(self.make_graph("n2"))])
        for consumer in mtg.nodes():
            for producer in mtg.predecessors(consumer):
                assert mtg.network_of(producer) == mtg.network_of(consumer)

    def test_repr_lists_tasks_and_nodes(self):
        mtg = MultiTaskGraph([TaskSpec(self.make_graph("n1")), TaskSpec(self.make_graph("n2"))])
        assert repr(mtg) == "MultiTaskGraph(tasks=['n1', 'n2'], nodes=4)"

    def test_requires_tasks(self):
        with pytest.raises(ValueError):
            MultiTaskGraph([])

    def make_diamond(self, name):
        """input -> a -> (b, c) -> d -> output, with pseudo layers at both ends."""
        g = LayerGraph(name)
        g.add_layer(LayerSpec(name="in", kind=LayerKind.INPUT))
        g.add_layer(conv("a"), inputs=["in"])
        g.add_layer(conv("b"), inputs=["a"])
        g.add_layer(conv("c"), inputs=["a"])
        g.add_layer(conv("d"), inputs=["b", "c"])
        g.add_layer(LayerSpec(name="out", kind=LayerKind.OUTPUT), inputs=["d"])
        return g

    def test_orders_equal_the_networkx_sort(self):
        mtg = MultiTaskGraph(
            [TaskSpec(self.make_diamond("n1")), TaskSpec(self.make_graph("n2"))]
        )
        order = list(nx.topological_sort(mtg._graph))
        assert mtg.nodes() == order
        compute = [n for n in order if mtg.spec(n).kind.is_compute]
        assert mtg.compute_nodes() == compute
        assert len(compute) == len(order) - 2  # the pseudo layers are left out

    def test_returned_orders_are_fresh_lists(self):
        mtg = MultiTaskGraph([TaskSpec(self.make_diamond("n1"))])
        nodes, compute = mtg.nodes(), mtg.compute_nodes()
        expected_nodes, expected_compute = list(nodes), list(compute)
        nodes.reverse()
        compute.clear()
        assert mtg.nodes() == expected_nodes
        assert mtg.compute_nodes() == expected_compute

    def test_duplicate_network_names_rejected(self):
        with pytest.raises(ValueError):
            MultiTaskGraph([TaskSpec(self.make_graph("n")), TaskSpec(self.make_graph("n"))])

    def test_task_lookup(self):
        task = TaskSpec(self.make_graph("n1"))
        mtg = MultiTaskGraph([task])
        assert mtg.task("n1") is task
        with pytest.raises(KeyError):
            mtg.task("missing")

    def test_compute_nodes_excludes_pseudo_layers(self):
        g = LayerGraph("n")
        g.add_layer(LayerSpec("in", LayerKind.INPUT))
        g.add_layer(conv("c"), inputs=["in"])
        mtg = MultiTaskGraph([TaskSpec(g)])
        assert mtg.compute_nodes() == ["n.c"]
