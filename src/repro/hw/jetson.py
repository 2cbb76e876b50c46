"""Calibrated model of the NVIDIA Jetson Xavier AGX.

The paper evaluates Ev-Edge on the Jetson Xavier AGX: an 8-core Carmel CPU, a
512-core Volta GPU with tensor cores and two NVDLA deep learning
accelerators, all sharing 137 GB/s of LPDDR4x.  The numbers below are derived
from NVIDIA's published peak figures, derated to sustained values:

========  ===========================  ======================================
Device    Peak (published)             Modelled sustained (FP32-equivalent)
========  ===========================  ======================================
GPU       11 FP16 TFLOPS / 22 INT8     1.4e12 MAC/s FP32 base, x2 FP16, x4 INT8
DLA (x2)  5.7 FP16 TFLOPS / 11.4 INT8  0.7e12 MAC/s FP16 base (no FP32)
CPU       8-core Carmel @ 2.26 GHz     1.2e11 MAC/s (NEON), little INT8 gain
========  ===========================  ======================================

The DLA executes only the TensorRT-supported operator set, so spiking (LIF)
layers cannot run there — matching the constraint that makes SNN-heavy
workloads GPU/CPU bound and motivates the Network Mapper.
"""

from __future__ import annotations


from ..nn.quantization import Precision
from .pe import PEType, Platform, ProcessingElement

__all__ = ["jetson_xavier_agx", "jetson_orin_nano", "GPU_NAME", "DLA_NAME", "CPU_NAME"]

GPU_NAME = "gpu"
DLA_NAME = "dla0"
CPU_NAME = "cpu"


def jetson_xavier_agx() -> Platform:
    """Build the Jetson Xavier AGX platform model used throughout the paper.

    The physical board has two DLAs; the paper's experiments use the DLA as
    a single additional PE, and so does this model.
    """
    gpu = ProcessingElement(
        name=GPU_NAME,
        pe_type=PEType.GPU,
        peak_macs_per_s=1.4e12,
        memory_bandwidth=100e9,
        supported_precisions=(Precision.FP32, Precision.FP16, Precision.INT8),
        supports_snn=True,
        supports_sparse=True,
        kernel_launch_overhead=25e-6,
        active_power_w=20.0,
        idle_power_w=2.0,
        precision_scaling={Precision.FP16: 2.0, Precision.INT8: 4.0},
    )
    cpu = ProcessingElement(
        name=CPU_NAME,
        pe_type=PEType.CPU,
        peak_macs_per_s=1.2e11,
        memory_bandwidth=40e9,
        supported_precisions=(Precision.FP32, Precision.FP16, Precision.INT8),
        supports_snn=True,
        supports_sparse=True,
        kernel_launch_overhead=5e-6,
        active_power_w=10.0,
        idle_power_w=1.5,
        # NEON gives a modest speedup at lower precision, far from the GPU's 4x.
        precision_scaling={Precision.FP16: 1.5, Precision.INT8: 2.0},
    )
    dla = ProcessingElement(
        name=DLA_NAME,
        pe_type=PEType.DLA,
        peak_macs_per_s=0.7e12,
        memory_bandwidth=60e9,
        # No FP32 path on NVDLA.
        supported_precisions=(Precision.FP16, Precision.INT8),
        supports_snn=False,
        supports_sparse=False,
        kernel_launch_overhead=60e-6,
        active_power_w=8.0,
        idle_power_w=0.8,
        precision_scaling={Precision.FP16: 1.0, Precision.INT8: 2.0},
    )
    return Platform(
        name="jetson-xavier-agx",
        elements=[cpu, gpu, dla],
        unified_memory_bandwidth=137e9,
        transfer_latency=100e-6,
    )


def jetson_orin_nano() -> Platform:
    """A smaller Jetson (Orin Nano class) used for sensitivity studies.

    Roughly 40 % of the Xavier AGX GPU throughput, no DLA, half the memory
    bandwidth — useful for checking that Ev-Edge's benefits persist on a more
    constrained platform.
    """
    gpu = ProcessingElement(
        name=GPU_NAME,
        pe_type=PEType.GPU,
        peak_macs_per_s=0.6e12,
        memory_bandwidth=50e9,
        supported_precisions=(Precision.FP32, Precision.FP16, Precision.INT8),
        supports_snn=True,
        supports_sparse=True,
        kernel_launch_overhead=25e-6,
        active_power_w=10.0,
        idle_power_w=1.0,
        precision_scaling={Precision.FP16: 2.0, Precision.INT8: 4.0},
    )
    cpu = ProcessingElement(
        name=CPU_NAME,
        pe_type=PEType.CPU,
        peak_macs_per_s=3.0e10,
        memory_bandwidth=25e9,
        supports_snn=True,
        supports_sparse=True,
        kernel_launch_overhead=5e-6,
        active_power_w=7.0,
        idle_power_w=1.0,
        precision_scaling={Precision.FP16: 1.5, Precision.INT8: 2.0},
    )
    return Platform(
        name="jetson-orin-nano",
        elements=[cpu, gpu],
        unified_memory_bandwidth=68e9,
        transfer_latency=100e-6,
    )
