"""Tests for the hardware platform substrate."""

from __future__ import annotations

import itertools
import re

import numpy as np
import pytest

from repro.core.nmp.scheduler import FlatGraph
from repro.hw import (
    EnergyModel,
    LatencyModel,
    LayerCostTable,
    PEType,
    Platform,
    ProcessingElement,
    jetson_orin_nano,
    jetson_xavier_agx,
)
from repro.models import available_networks, build_network
from repro.nn import LayerKind, LayerSpec, MultiTaskGraph, Precision, TaskSpec

from oracles.hw import (
    layer_energy_reference,
    layer_latency_reference,
    profile_reference,
)


@pytest.fixture(scope="module")
def xavier():
    return jetson_xavier_agx()


@pytest.fixture(scope="module")
def conv_layer():
    return LayerSpec("conv", LayerKind.CONV2D, 2, 16, 64, 64, activation_sparsity=0.9)


@pytest.fixture(scope="module")
def snn_layer():
    return LayerSpec("lif", LayerKind.CONV_LIF, 2, 16, 64, 64, timesteps=5, activation_sparsity=0.9)


class TestProcessingElement:
    def test_xavier_has_cpu_gpu_dla(self, xavier):
        assert set(xavier.pe_names) >= {"cpu", "gpu", "dla0"}
        assert xavier.gpu().pe_type == PEType.GPU

    def test_dla_has_no_fp32_and_no_snn(self, xavier):
        dla = xavier.pe("dla0")
        assert not dla.supports_precision(Precision.FP32)
        assert not dla.supports_snn
        assert dla.lowest_supported_precision() == Precision.INT8
        assert dla.highest_supported_precision() == Precision.FP16

    def test_effective_throughput_scales_with_precision(self, xavier):
        gpu = xavier.gpu()
        assert gpu.effective_throughput(Precision.INT8) > gpu.effective_throughput(Precision.FP16)
        assert gpu.effective_throughput(Precision.FP16) > gpu.effective_throughput(Precision.FP32)

    def test_unsupported_precision_raises(self, xavier):
        with pytest.raises(ValueError):
            xavier.pe("dla0").effective_throughput(Precision.FP32)

    def test_candidates_for_snn_excludes_dla(self, xavier, snn_layer, conv_layer):
        snn_pes = {pe.name for pe in xavier.candidates_for(snn_layer)}
        conv_pes = {pe.name for pe in xavier.candidates_for(conv_layer)}
        assert "dla0" not in snn_pes
        assert "dla0" in conv_pes

    def test_invalid_pe_parameters(self):
        with pytest.raises(ValueError):
            ProcessingElement("x", PEType.CPU, peak_macs_per_s=0, memory_bandwidth=1e9)
        with pytest.raises(ValueError):
            ProcessingElement("x", PEType.CPU, peak_macs_per_s=1e9, memory_bandwidth=0)
        with pytest.raises(ValueError):
            ProcessingElement("x", PEType.CPU, peak_macs_per_s=1e9, memory_bandwidth=1e9,
                              supported_precisions=())


class TestPlatform:
    def test_transfer_time_zero_within_device(self, xavier):
        assert xavier.transfer_time(1_000_000, "gpu", "gpu") == 0.0

    def test_transfer_time_grows_with_volume(self, xavier):
        small = xavier.transfer_time(1_000, "gpu", "dla0")
        large = xavier.transfer_time(10_000_000, "gpu", "dla0")
        assert large > small > 0.0

    def test_transfer_unknown_device(self, xavier):
        with pytest.raises(KeyError):
            xavier.transfer_time(10, "gpu", "tpu")

    def test_unknown_pe_lookup(self, xavier):
        with pytest.raises(KeyError):
            xavier.pe("npu")

    def test_duplicate_names_rejected(self):
        pe = ProcessingElement("gpu", PEType.GPU, 1e12, 1e11)
        with pytest.raises(ValueError):
            Platform("p", [pe, pe])

    def test_invalid_platform_parameters(self):
        pe = ProcessingElement("gpu", PEType.GPU, 1e12, 1e11)
        with pytest.raises(ValueError):
            Platform("p", [])
        with pytest.raises(ValueError):
            Platform("p", [pe], unified_memory_bandwidth=0.0)

    def test_gpu_lookup_requires_a_gpu(self):
        cpu_only = Platform("p", [ProcessingElement("cpu", PEType.CPU, 1e10, 1e10)])
        with pytest.raises(RuntimeError):
            cpu_only.gpu()

    def test_empty_transfer_costs_only_sync_latency(self, xavier):
        assert xavier.transfer_time(0, "gpu", "dla0") == xavier.transfer_latency
        assert xavier.transfer_time(0, "gpu", "gpu") == 0.0

    def test_repr_names_platform_and_elements(self, xavier):
        text = repr(xavier)
        assert repr(xavier.name) in text
        for name in xavier.pe_names:
            assert repr(name) in text

    def test_orin_nano_is_smaller(self, xavier):
        nano = jetson_orin_nano()
        assert nano.gpu().peak_macs_per_s < xavier.gpu().peak_macs_per_s
        assert len(nano) < len(xavier)


class TestLatencyModel:
    @pytest.mark.parametrize("make_platform", [jetson_xavier_agx, jetson_orin_nano])
    def test_compiled_roofline_matches_min_max_reference(self, make_platform):
        # layer_latency evaluates a compiled Roofline whose clamps are
        # comparisons; the per-call min/max formula must agree field by
        # field, errors and the types of the values included, on every
        # input a caller can pass: ints, numpy floats, NaN, infinities and
        # values outside [0, 1].
        model = LatencyModel()
        occupancies = [None, 0, 1, 3, 0.0, -0.0, 1e-5, 0.1, 0.5, 0.7, 1.0, -0.5, 2.0]
        occupancies += [float("nan"), float("inf"), float("-inf")]
        occupancies += [np.float64(0.4), np.float64(-1.0), np.float64(5.0)]
        specs = [
            spec
            for name in ("spikeflownet", "e2depth")
            for spec in build_network(name, 64, 64).layers()
            if spec.kind.is_compute
        ]
        compared = 0
        for spec, pe, precision, sparse, occupancy, batch in itertools.product(
            specs, make_platform(), Precision, (False, True), occupancies, (0, 1, 4)
        ):
            call = (spec, pe, precision, sparse, occupancy, batch)
            try:
                expected = layer_latency_reference(*call)
            except ValueError as error:
                with pytest.raises(ValueError, match=re.escape(str(error))):
                    model.layer_latency(*call)
                continue
            estimate = model.layer_latency(*call)
            actual = (
                estimate.compute_time,
                estimate.memory_time,
                estimate.overhead,
                estimate.data_bytes,
                estimate.total,
            )
            assert [type(v) for v in actual] == [type(v) for v in expected], call
            assert [repr(v) for v in actual] == [repr(v) for v in expected], call
            compared += 1
        assert compared > 1000

    def test_lower_precision_is_faster(self, xavier, conv_layer):
        model = LatencyModel()
        gpu = xavier.gpu()
        t32 = model.layer_latency(conv_layer, gpu, Precision.FP32).total
        t16 = model.layer_latency(conv_layer, gpu, Precision.FP16).total
        t8 = model.layer_latency(conv_layer, gpu, Precision.INT8).total
        assert t8 <= t16 <= t32

    def test_sparse_execution_faster_for_sparse_layer(self, xavier, conv_layer):
        model = LatencyModel()
        gpu = xavier.gpu()
        dense = model.layer_latency(conv_layer, gpu, Precision.FP16, sparse=False).total
        sparse = model.layer_latency(conv_layer, gpu, Precision.FP16, sparse=True).total
        assert sparse < dense

    def test_sparse_speedup_is_bounded(self, xavier, conv_layer):
        model = LatencyModel()
        gpu = xavier.gpu()
        dense = model.layer_latency(conv_layer, gpu, Precision.FP16, sparse=False)
        sparse = model.layer_latency(
            conv_layer, gpu, Precision.FP16, sparse=True, occupancy=1e-6
        )
        assert dense.compute_time / sparse.compute_time <= 1.0 / 0.2 + 1e-6

    def test_gpu_faster_than_cpu_for_heavy_layer(self, xavier):
        # For a compute-heavy layer the GPU wins; for tiny layers the CPU's
        # lower launch overhead can win, which is exactly why NMP maps small
        # layers off the GPU.
        heavy = LayerSpec("conv", LayerKind.CONV2D, 64, 128, 128, 128)
        model = LatencyModel()
        cpu = xavier.pe("cpu")
        gpu = xavier.gpu()
        assert (
            model.layer_latency(heavy, gpu, Precision.FP32).total
            < model.layer_latency(heavy, cpu, Precision.FP32).total
        )

    def test_snn_on_dla_rejected(self, xavier, snn_layer):
        model = LatencyModel()
        with pytest.raises(ValueError):
            model.layer_latency(snn_layer, xavier.pe("dla0"), Precision.FP16)

    def test_unsupported_precision_rejected(self, xavier, conv_layer):
        with pytest.raises(ValueError):
            LatencyModel().layer_latency(conv_layer, xavier.pe("dla0"), Precision.FP32)

    def test_batch_below_one_rejected(self, xavier, conv_layer):
        with pytest.raises(ValueError):
            LatencyModel().layer_latency(conv_layer, xavier.gpu(), Precision.FP16, batch=0)

    def test_batching_amortises_overhead(self, xavier, conv_layer):
        model = LatencyModel()
        gpu = xavier.gpu()
        one = model.layer_latency(conv_layer, gpu, Precision.FP16, batch=1).total
        four = model.layer_latency(conv_layer, gpu, Precision.FP16, batch=4).total
        assert four < 4 * one


class TestEnergyModel:
    def test_energy_positive_and_precision_ordered(self, xavier, conv_layer):
        model = EnergyModel()
        gpu = xavier.gpu()
        e32 = model.layer_energy(conv_layer, gpu, Precision.FP32).total
        e8 = model.layer_energy(conv_layer, gpu, Precision.INT8).total
        assert 0 < e8 < e32

    def test_transfer_energy(self):
        model = EnergyModel()
        assert model.transfer_energy(0) == 0.0
        assert model.transfer_energy(1_000_000) > 0.0

    def test_sparse_request_on_dense_only_pe_costs_dense_energy(self, xavier):
        # The latency model runs sparse=True as dense on a PE without sparse
        # kernels; energy used to charge the sparse byte formula anyway
        # (10x less memory energy than the dense call it was timed as).
        head = build_network("e2depth", 64, 64).layer("head")
        dla = xavier.pe("dla0")
        assert not dla.supports_sparse
        model = EnergyModel()
        args = (head, dla, Precision.FP16)
        assert model.latency_model.layer_latency(
            *args, sparse=True, occupancy=0.05
        ) == model.latency_model.layer_latency(*args, occupancy=0.05)
        sparse = model.layer_energy(*args, sparse=True, occupancy=0.05)
        assert sparse == model.layer_energy(*args, occupancy=0.05)

    def test_energy_from_estimate_matches_reference_formula(self, xavier):
        # Wherever the sparse request is honoured (and for every dense
        # request), energy from the latency estimate equals the formula
        # that re-ran the roofline, bit for bit.
        model = EnergyModel()
        latency_model = model.latency_model
        specs = [s for s in build_network("e2depth", 64, 64).layers() if s.kind.is_compute]
        for spec, pe in itertools.product(specs, xavier):
            if not pe.supports_layer(spec):
                continue
            modes = (False, True) if pe.supports_sparse else (False,)
            for precision, sparse, occupancy, batch in itertools.product(
                pe.supported_precisions, modes, (None, 0.0, 0.05, 1.0), (1, 3)
            ):
                args = (spec, pe, precision)
                kwargs = dict(sparse=sparse, occupancy=occupancy, batch=batch)
                estimate = latency_model.layer_latency(*args, **kwargs)
                assert model.estimate_energy(
                    estimate, pe, precision
                ) == layer_energy_reference(latency_model, *args, **kwargs)


class TestLayerCostTable:
    @pytest.mark.parametrize("make_platform", [jetson_xavier_agx, jetson_orin_nano])
    @pytest.mark.parametrize("network", available_networks())
    def test_mapper_options_match_two_roofline_profile(self, make_platform, network):
        # The Network Mapper prices each (PE, precision) option of a layer
        # from the cost table: sparse on PEs with sparse kernels, dense on
        # the others (the DLA), each bit-identical to the offline profile's
        # two-roofline entry.
        platform = make_platform()
        graph = MultiTaskGraph([TaskSpec(build_network(network, 64, 64))])
        flat = FlatGraph(graph, platform, LayerCostTable())
        options = {
            (node, pe, value): (cost.latency, cost.energy)
            for node, node_options in zip(flat.names, flat.options)
            if node_options is not None
            for (pe, value), cost in node_options.items()
        }
        expected = {
            (node, pe, precision.value): entry
            for (node, pe, precision, sparse), entry in profile_reference(
                platform, graph
            ).items()
            if sparse == platform.pe(pe).supports_sparse
        }
        assert options and options == expected

    @pytest.mark.parametrize("network", available_networks())
    def test_cells_match_the_layer_models(self, xavier, network):
        # A cell's compiled roofline, evaluated on a miss, prices exactly
        # what layer_latency and estimate_energy price for the same
        # execution: every PE that can run the layer (the DLA included), at
        # each of its precisions, sparse on and off.
        table = LayerCostTable()
        latency_model, energy_model = LatencyModel(), EnergyModel()
        specs = [s for s in build_network(network, 64, 64).layers() if s.kind.is_compute]
        checked = 0
        for spec, pe in itertools.product(specs, xavier):
            if not pe.supports_layer(spec):
                continue
            for precision, sparse in itertools.product(
                pe.supported_precisions, (False, True)
            ):
                cell = table.cell(spec, pe, precision, sparse)
                for occupancy, batch in itertools.product(
                    (None, 0, 1e-5, 1 / 64, 0.3, 1), (1, 4, 21)
                ):
                    estimate = latency_model.layer_latency(
                        spec, pe, precision, sparse=sparse, occupancy=occupancy, batch=batch
                    )
                    energy = energy_model.estimate_energy(estimate, pe, precision)
                    cost = table.cell_cost(cell, occupancy, batch)
                    assert cost.latency.hex() == float(estimate.total).hex()
                    assert cost.energy.hex() == float(energy.total).hex()
                    checked += 1
        assert checked == table.cache_info()["misses"] > 0

    def test_unrunnable_cells_raise_at_their_first_cost(
        self, xavier, conv_layer, snn_layer
    ):
        # Interning an execution the PE cannot run succeeds; its first cost
        # (and every later one: nothing is cached) raises layer_latency's
        # ValueError.
        table = LayerCostTable()
        dla = xavier.pe("dla0")
        for spec, precision in ((snn_layer, Precision.FP16), (conv_layer, Precision.FP32)):
            cell = table.cell(spec, dla, precision, True)
            with pytest.raises(ValueError) as expected:
                LatencyModel().layer_latency(spec, dla, precision, sparse=True)
            for _ in range(2):
                with pytest.raises(ValueError) as raised:
                    table.cell_cost(cell, None, 1)
                assert str(raised.value) == str(expected.value)
        assert table.cache_info()["entries"] == 0

    def test_a_table_serves_one_platform(self, conv_layer):
        table = LayerCostTable()
        xavier_gpu = jetson_xavier_agx().pe("gpu")
        orin_gpu = jetson_orin_nano().pe("gpu")
        assert orin_gpu != xavier_gpu
        table.cell(conv_layer, xavier_gpu, Precision.FP16, True)
        # Rejected whether or not the cell was interned already.
        with pytest.raises(ValueError, match="gpu"):
            table.cell(conv_layer, orin_gpu, Precision.FP16, True)
        with pytest.raises(ValueError, match="gpu"):
            table.cell(conv_layer, orin_gpu, Precision.INT8, True)

    def test_a_flattening_table_serves_one_platform(self):
        # The mapper's per-layer prices live on the table, keyed by layer
        # and platform identity; a graph flattened for another platform
        # still prices through cell() and is rejected there.
        graph = MultiTaskGraph([TaskSpec(build_network("dotie", 64, 64))])
        table = LayerCostTable()
        first = FlatGraph(graph, jetson_xavier_agx(), table)
        with pytest.raises(ValueError, match="serves one platform"):
            FlatGraph(graph, jetson_orin_nano(), table)
        # An equal platform object flattens on the same table.
        assert FlatGraph(graph, jetson_xavier_agx(), table).options == first.options

    def test_equal_platforms_share_a_table(self, conv_layer):
        table = LayerCostTable()
        first, second = jetson_xavier_agx().pe("gpu"), jetson_xavier_agx().pe("gpu")
        assert first is not second and first == second
        assert table.cell(conv_layer, first, Precision.FP16, True) == table.cell(
            conv_layer, second, Precision.FP16, True
        )
