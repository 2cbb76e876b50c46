"""Baseline mapping policies: RR-Network and RR-Layer.

The paper compares the Network Mapper against

* an **all-GPU** implementation (the single-task baseline of Figure 8): every
  layer of every network runs on the GPU at full precision on dense frames —
  :meth:`~repro.core.nmp.candidate.MappingCandidate.uniform` on the GPU;
* **RR-Network** (Figure 9): a coarse-grained round-robin policy that assigns
  each *network* to a processing element, cycling through the PEs;
* **RR-Layer** (Figure 9): a fine-grained round-robin policy that assigns
  each *layer* to a processing element in turn.

All three are :class:`~repro.core.nmp.candidate.MappingCandidate` objects,
so they are evaluated by exactly the same list scheduler as NMP.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.nmp.candidate import Assignment, MappingCandidate
from ..hw.pe import Platform, ProcessingElement
from ..nn.graph import MultiTaskGraph
from ..nn.quantization import Precision

__all__ = ["rr_network_mapping", "rr_layer_mapping"]


def _precision_on(pe: ProcessingElement, requested: Precision) -> Precision:
    """The requested precision if supported, else the device's highest."""
    if pe.supports_precision(requested):
        return requested
    return pe.highest_supported_precision()


def _round_robin_elements(
    platform: Platform, devices: Optional[List[str]]
) -> List[ProcessingElement]:
    """The devices a round-robin policy cycles through.

    By default all PEs are used; callers may restrict the cycle (e.g. to the
    GPU + DLA pair TensorRT deploys on) by naming the devices explicitly.
    """
    if devices is None:
        return list(platform)
    if not devices:
        raise ValueError("devices list must not be empty")
    return [platform.pe(name) for name in devices]


def rr_network_mapping(
    graph: MultiTaskGraph,
    platform: Platform,
    precision: Precision = Precision.FP32,
    devices: Optional[List[str]] = None,
) -> MappingCandidate:
    """Round-robin at network granularity.

    Each network is assigned to the next processing element in a cyclic
    order.  Layers a device cannot execute (spiking layers on the DLA) fall
    back to the GPU, which is what a practitioner would do on a real board.
    """
    gpu = platform.gpu()
    assignments: Dict[str, Assignment] = {}
    elements = _round_robin_elements(platform, devices)
    for index, task in enumerate(graph.tasks):
        pe = elements[index % len(elements)]
        for node in graph.compute_nodes():
            if graph.network_of(node) != task.name:
                continue
            spec = graph.spec(node)
            target = pe if pe.supports_layer(spec) else gpu
            assignments[node] = Assignment(target.name, _precision_on(target, precision))
    return MappingCandidate(assignments)


def rr_layer_mapping(
    graph: MultiTaskGraph,
    platform: Platform,
    precision: Precision = Precision.FP32,
    devices: Optional[List[str]] = None,
) -> MappingCandidate:
    """Round-robin at layer granularity.

    Layers are assigned to processing elements cyclically in topological
    order; layers the chosen device cannot execute move on to the next
    capable device in the cycle.
    """
    assignments: Dict[str, Assignment] = {}
    elements = _round_robin_elements(platform, devices)
    cursor = 0
    for node in graph.compute_nodes():
        spec = graph.spec(node)
        chosen: Optional[ProcessingElement] = None
        for offset in range(len(elements)):
            pe = elements[(cursor + offset) % len(elements)]
            if pe.supports_layer(spec):
                chosen = pe
                cursor = (cursor + offset + 1) % len(elements)
                break
        if chosen is None:
            chosen = platform.gpu()
        assignments[node] = Assignment(chosen.name, _precision_on(chosen, precision))
    return MappingCandidate(assignments)
