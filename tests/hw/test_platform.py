"""Tests for the hardware platform substrate."""

from __future__ import annotations

import pytest

from repro.hw import (
    EnergyModel,
    LatencyModel,
    PEType,
    Platform,
    PlatformProfiler,
    ProcessingElement,
    jetson_orin_nano,
    jetson_xavier_agx,
)
from repro.models import build_network
from repro.nn import LayerKind, LayerSpec, MultiTaskGraph, Precision, TaskSpec


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

    def test_orin_nano_is_smaller(self, xavier):
        nano = jetson_orin_nano()
        assert nano.gpu().peak_macs_per_s < xavier.gpu().peak_macs_per_s
        assert len(nano) < len(xavier)


class TestLatencyModel:
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
        model = LatencyModel(min_sparse_fraction=0.2)
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

    def test_batching_amortises_overhead(self, xavier, conv_layer):
        model = LatencyModel()
        gpu = xavier.gpu()
        one = model.layer_latency(conv_layer, gpu, Precision.FP16, batch=1).total
        four = model.layer_latency(conv_layer, gpu, Precision.FP16, batch=4).total
        assert four < 4 * one

    def test_invalid_model_parameters(self):
        with pytest.raises(ValueError):
            LatencyModel(sustained_fraction=0.0)
        with pytest.raises(ValueError):
            LatencyModel(sparse_overhead=-1.0)
        with pytest.raises(ValueError):
            LatencyModel(min_sparse_fraction=2.0)


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


class TestProfiler:
    def test_profile_covers_all_compute_nodes(self, xavier):
        graph = MultiTaskGraph([TaskSpec(build_network("dotie", 64, 64))])
        table = PlatformProfiler(xavier).profile(graph)
        for node in graph.compute_nodes():
            assert table.options(node)
            assert table.best_latency(node) > 0

    def test_snn_nodes_have_no_dla_entries(self, xavier):
        graph = MultiTaskGraph([TaskSpec(build_network("dotie", 64, 64))])
        table = PlatformProfiler(xavier).profile(graph)
        node = graph.compute_nodes()[0]
        assert not table.has(node, "dla0", Precision.FP16)
        assert table.has(node, "gpu", Precision.FP16)

    def test_unknown_node_lookup_raises(self, xavier):
        graph = MultiTaskGraph([TaskSpec(build_network("dotie", 64, 64))])
        table = PlatformProfiler(xavier).profile(graph)
        with pytest.raises(KeyError):
            table.best_latency("missing.node")
