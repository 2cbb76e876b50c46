"""Reference hardware-model formulas, kept as equivalence oracles.

* :func:`layer_latency_reference` — ``LatencyModel.layer_latency`` as one
  function, before the roofline was compiled per execution: every term is
  re-derived from the layer, the PE and the precision on each call, and
  the clamps use ``min``/``max``.
* :func:`layer_energy_reference` — ``EnergyModel.layer_energy`` before
  energy came from the latency estimate: it re-runs the roofline for the
  compute term and re-derives the DRAM bytes with the sparse formula on
  every device, including devices the latency model runs dense.
* :func:`profile_reference` — the offline profile of a multi-task graph
  on that formula: every (node, capable PE, supported precision) priced
  dense and, on PEs with sparse kernels, sparse at the mapper's profiling
  occupancy, with two roofline evaluations per entry.  It is the
  independent reference for the costs the Network Mapper reads from its
  :class:`~repro.hw.profiler.LayerCostTable`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.hw.energy import _DRAM_ENERGY_PER_BYTE, _PRECISION_POWER, EnergyEstimate
from repro.hw.latency import (
    _MIN_SPARSE_FRACTION,
    _SNN_EFFICIENCY,
    _SPARSE_OVERHEAD,
    _SUSTAINED_FRACTION,
    LatencyModel,
)
from repro.hw.pe import Platform, ProcessingElement
from repro.nn.graph import MultiTaskGraph
from repro.nn.layers import LayerSpec
from repro.nn.quantization import Precision

__all__ = ["layer_latency_reference", "layer_energy_reference", "profile_reference"]


def layer_latency_reference(
    layer: LayerSpec,
    pe: ProcessingElement,
    precision: Precision,
    sparse: bool = False,
    occupancy: Optional[float] = None,
    batch: int = 1,
) -> Tuple[float, float, float, float, float]:
    """``(compute_time, memory_time, overhead, data_bytes, total)`` of one call."""
    if not pe.supports_layer(layer):
        raise ValueError(f"{pe.name} cannot execute layer '{layer.name}' (SNN unsupported)")
    if not pe.supports_precision(precision):
        raise ValueError(f"{pe.name} does not support {precision.value}")
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if sparse and not pe.supports_sparse:
        sparse = False
    dense_macs = layer.macs * batch
    if occupancy is None:
        occupancy = 1.0 - layer.activation_sparsity
    occupancy = min(max(occupancy, 0.0), 1.0)
    if sparse:
        sparse_fraction = max(occupancy * (1.0 + _SPARSE_OVERHEAD), _MIN_SPARSE_FRACTION)
        work = dense_macs * min(sparse_fraction, 1.0)
    else:
        work = dense_macs
    throughput = pe.effective_throughput(precision) * _SUSTAINED_FRACTION
    if layer.is_spiking:
        throughput *= _SNN_EFFICIENCY
    compute_time = work / throughput
    activation = layer.activation_bytes(precision) * batch
    if sparse:
        activation = activation * occupancy * 1.5
    data_bytes = layer.weight_bytes(precision) + activation
    memory_time = data_bytes / pe.memory_bandwidth
    overhead = pe.kernel_launch_overhead
    total = max(compute_time, memory_time) + overhead
    return compute_time, memory_time, overhead, data_bytes, total


def layer_energy_reference(
    latency_model: LatencyModel,
    layer: LayerSpec,
    pe: ProcessingElement,
    precision: Precision,
    sparse: bool = False,
    occupancy: Optional[float] = None,
    batch: int = 1,
) -> EnergyEstimate:
    """Energy of ``layer`` on ``pe`` by the pre-estimate formula."""
    estimate = latency_model.layer_latency(
        layer, pe, precision, sparse=sparse, occupancy=occupancy, batch=batch
    )
    power = pe.active_power_w * _PRECISION_POWER[precision]
    compute_energy = estimate.total * power
    data_bytes = layer.weight_bytes(precision) + layer.activation_bytes(precision) * batch
    if sparse:
        occ = occupancy if occupancy is not None else 1.0 - layer.activation_sparsity
        data_bytes = (
            layer.weight_bytes(precision)
            + layer.activation_bytes(precision) * batch * min(max(occ, 0.0), 1.0) * 1.5
        )
    memory_energy = data_bytes * _DRAM_ENERGY_PER_BYTE
    return EnergyEstimate(compute_energy, memory_energy)


# The mapper's profiling occupancy, restated: a change to the production
# constant fails the comparison.
_PROFILE_OCCUPANCY = 0.1


def profile_reference(
    platform: Platform, graph: MultiTaskGraph
) -> Dict[Tuple[str, str, Precision, bool], Tuple[float, float]]:
    """``{(node, pe, precision, sparse): (latency, energy)}`` of ``graph``.

    Each entry comes from two roofline runs at occupancy 0.1.
    """
    latency_model = LatencyModel()
    entries = {}
    for node in graph.compute_nodes():
        spec = graph.spec(node)
        for pe in platform:
            if not pe.supports_layer(spec):
                continue
            for precision in pe.supported_precisions:
                for sparse in (False, True):
                    if sparse and not pe.supports_sparse:
                        continue
                    latency = latency_model.layer_latency(
                        spec, pe, precision, sparse=sparse, occupancy=_PROFILE_OCCUPANCY
                    ).total
                    energy = layer_energy_reference(
                        latency_model,
                        spec,
                        pe,
                        precision,
                        sparse=sparse,
                        occupancy=_PROFILE_OCCUPANCY,
                    ).total
                    entries[node, pe.name, precision, sparse] = (latency, energy)
    return entries
