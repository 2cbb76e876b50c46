"""Reference hardware-model formulas, kept as equivalence oracles.

* :func:`layer_energy_reference` — ``EnergyModel.layer_energy`` before
  energy came from the latency estimate: it re-runs the roofline for the
  compute term and re-derives the DRAM bytes with the sparse formula on
  every device, including devices the latency model runs dense.
* :func:`profile_reference` — ``PlatformProfiler.profile`` on that
  formula, i.e. two roofline evaluations per profile entry.
"""

from __future__ import annotations

from typing import Optional

from repro.hw.energy import _DRAM_ENERGY_PER_BYTE, _PRECISION_POWER, EnergyEstimate
from repro.hw.latency import LatencyModel
from repro.hw.pe import Platform, ProcessingElement
from repro.hw.profiler import PROFILE_OCCUPANCY, ProfileEntry, ProfileTable
from repro.nn.graph import MultiTaskGraph
from repro.nn.layers import LayerSpec
from repro.nn.quantization import Precision

__all__ = ["layer_energy_reference", "profile_reference"]


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


def profile_reference(platform: Platform, graph: MultiTaskGraph) -> ProfileTable:
    """The profile table of ``graph``, each entry from two roofline runs."""
    latency_model = LatencyModel()
    table = ProfileTable(platform)
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
                        spec, pe, precision, sparse=sparse, occupancy=PROFILE_OCCUPANCY
                    ).total
                    energy = layer_energy_reference(
                        latency_model,
                        spec,
                        pe,
                        precision,
                        sparse=sparse,
                        occupancy=PROFILE_OCCUPANCY,
                    ).total
                    table.record(
                        node, pe.name, precision, sparse, ProfileEntry(latency, energy)
                    )
    return table
