"""Heterogeneous edge platform substrate (Jetson Xavier AGX model)."""

from .energy import EnergyEstimate, EnergyModel
from .jetson import CPU_NAME, DLA_NAME, GPU_NAME, jetson_orin_nano, jetson_xavier_agx
from .latency import LatencyEstimate, LatencyModel
from .pe import PEType, Platform, ProcessingElement
from .profiler import LayerCost, LayerCostTable

__all__ = [
    "PEType",
    "ProcessingElement",
    "Platform",
    "jetson_xavier_agx",
    "jetson_orin_nano",
    "GPU_NAME",
    "DLA_NAME",
    "CPU_NAME",
    "LatencyModel",
    "LatencyEstimate",
    "EnergyModel",
    "EnergyEstimate",
    "LayerCost",
    "LayerCostTable",
]
