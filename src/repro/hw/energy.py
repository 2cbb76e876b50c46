"""Energy model for layer execution and data movement.

The paper reports 1.23x-2.15x energy improvements measured with Tegrastats.
The reproduction integrates power over the modelled execution time: a layer's
energy is its latency times the active power of the device it runs on (scaled
mildly by precision, since lower-precision math switches less capacitance),
plus a per-byte cost for the data it moves through LPDDR4x.

The power is the one term that depends on the device and precision alone:
:meth:`EnergyModel.power` reads it, and :meth:`EnergyModel.evaluate` is the
one place the energy expression is written.  The per-layer cost table
(:class:`~repro.hw.profiler.LayerCostTable`) keeps one power per cell;
:meth:`EnergyModel.estimate_energy` reads the power and evaluates in one
call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..nn.layers import LayerSpec
from ..nn.quantization import Precision
from .latency import LatencyEstimate, LatencyModel
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
        return self.estimate_energy(estimate, pe, precision)

    def power(self, pe: ProcessingElement, precision: Precision) -> float:
        """The active power ``pe`` draws computing at ``precision``, in watts."""
        return pe.active_power_w * _PRECISION_POWER[precision]

    @staticmethod
    def evaluate(power: float, total: float, data_bytes: float) -> Tuple[float, float]:
        """``(compute_energy, memory_energy)`` of one layer execution.

        ``power`` (from :meth:`power`) is integrated over the roofline
        ``total`` and the ``data_bytes`` of DRAM traffic are charged per
        byte.
        """
        return total * power, data_bytes * _DRAM_ENERGY_PER_BYTE

    def estimate_energy(
        self, estimate: LatencyEstimate, pe: ProcessingElement, precision: Precision
    ) -> EnergyEstimate:
        """Energy of a layer execution the latency model already timed.

        Power is integrated over the estimate's roofline total and the
        estimate's DRAM traffic is charged per byte, so a caller that needs
        both latency and energy evaluates the roofline once.  Because the
        bytes come from the estimate, energy follows every decision the
        latency model made — including running a sparse request dense on a
        device without sparse kernels.
        """
        return EnergyEstimate(
            *self.evaluate(
                self.power(pe, precision), estimate.total, estimate.data_bytes
            )
        )

    def transfer_energy(self, num_bytes: int) -> float:
        """Energy of moving activations between PEs through unified memory."""
        if num_bytes <= 0:
            return 0.0
        # One write plus one read of the shared DRAM.
        return 2.0 * num_bytes * _DRAM_ENERGY_PER_BYTE
