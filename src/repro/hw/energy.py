"""Energy model for layer execution and data movement.

The paper reports 1.23x-2.15x energy improvements measured with Tegrastats.
The reproduction integrates power over the modelled execution time: a layer's
energy is its latency times the active power of the device it runs on (scaled
mildly by precision, since lower-precision math switches less capacitance),
plus a per-byte cost for the data it moves through LPDDR4x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..nn.layers import LayerSpec
from ..nn.quantization import Precision
from .latency import LatencyModel
from .pe import ProcessingElement

__all__ = ["EnergyModel", "EnergyEstimate"]

# LPDDR4x access energy, joules per byte (~20 pJ/bit).
_DRAM_ENERGY_PER_BYTE = 2.5e-12 * 8

# Relative dynamic power of the math units by precision.
_PRECISION_POWER = {
    Precision.FP32: 1.0,
    Precision.FP16: 0.75,
    Precision.INT8: 0.55,
}


@dataclass(frozen=True)
class EnergyEstimate:
    """Breakdown of one layer's estimated energy on one device."""

    compute_energy: float
    memory_energy: float

    @property
    def total(self) -> float:
        """Total energy in joules."""
        return self.compute_energy + self.memory_energy


class EnergyModel:
    """Estimate energy per layer given the latency model's timing."""

    def __init__(self, latency_model: Optional[LatencyModel] = None) -> None:
        self.latency_model = latency_model or LatencyModel()

    def layer_energy(
        self,
        layer: LayerSpec,
        pe: ProcessingElement,
        precision: Precision,
        sparse: bool = False,
        occupancy: Optional[float] = None,
        batch: int = 1,
    ) -> EnergyEstimate:
        """Energy of executing ``layer`` on ``pe`` at ``precision``."""
        estimate = self.latency_model.layer_latency(
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

    def transfer_energy(self, num_bytes: int) -> float:
        """Energy of moving activations between PEs through unified memory."""
        if num_bytes <= 0:
            return 0.0
        # One write plus one read of the shared DRAM.
        return 2.0 * num_bytes * _DRAM_ENERGY_PER_BYTE
