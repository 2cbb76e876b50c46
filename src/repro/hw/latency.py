"""Roofline latency model for layer execution on a processing element.

The paper profiles per-layer execution times with TensorRT on the GPU and
DLA before running the Network Mapper search.  The reproduction replaces the
measurement with an analytic roofline model: a layer's execution time on a
device is the maximum of its compute time (MACs over sustained throughput at
the chosen precision) and its memory time (weights + activations over the
device's DRAM bandwidth), plus a fixed kernel-launch overhead.

Two execution modes are modelled:

* **dense** — the conventional dense event-frame path (the all-GPU baseline);
  work is the full dense MAC count regardless of how few events are present.
* **sparse** — the E2SF path on devices with sparse kernels; work scales with
  the non-zero activation fraction, at the cost of a per-layer sparse
  bookkeeping overhead (index handling), which is why sparsity only pays off
  when frames are sufficiently empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..nn.layers import LayerSpec
from ..nn.quantization import Precision
from .pe import ProcessingElement

__all__ = ["LatencyEstimate", "LatencyModel"]

# Fraction of peak throughput sustained on real layers (TensorRT typically
# achieves 40-70 % of peak on convolution workloads).
_SUSTAINED_FRACTION = 0.55
# Relative cost of gather/scatter index handling per effective MAC in sparse mode.
_SPARSE_OVERHEAD = 0.5
# Sparse kernels never get faster than this fraction of the dense compute
# time: gather/scatter kernels lose coalescing and tensor-core utilisation,
# so even nearly-empty frames see a bounded speedup.
_MIN_SPARSE_FRACTION = 0.2
# SNN layers carry LIF state updates that TensorRT-style engines do not fuse;
# they run as custom kernels with reduced efficiency.
_SNN_EFFICIENCY = 0.6


@dataclass(frozen=True)
class LatencyEstimate:
    """Breakdown of one layer's estimated execution time on one device.

    ``data_bytes`` is the DRAM traffic the memory term moved (weights plus
    activations, or the sparse payload); the energy model charges it per
    byte, so energy never re-derives it.
    """

    compute_time: float
    memory_time: float
    overhead: float
    data_bytes: float

    @property
    def total(self) -> float:
        """Roofline total: max(compute, memory) + fixed overhead."""
        return max(self.compute_time, self.memory_time) + self.overhead


class LatencyModel:
    """Estimate per-layer execution latency on a processing element."""

    def layer_latency(
        self,
        layer: LayerSpec,
        pe: ProcessingElement,
        precision: Precision,
        sparse: bool = False,
        occupancy: Optional[float] = None,
        batch: int = 1,
    ) -> LatencyEstimate:
        """Estimate the execution time of ``layer`` on ``pe``.

        Parameters
        ----------
        sparse:
            Execute with sparse kernels (requires ``pe.supports_sparse``);
            work scales with the layer's non-zero activation fraction.
        occupancy:
            Override the non-zero activation fraction (``1 - sparsity``); by
            default the layer's ``activation_sparsity`` attribute is used.
            E2SF/DSFA pass the measured occupancy of the merged sparse frame
            for input layers.
        batch:
            Number of inputs processed back to back (DSFA's batched merged
            frames); amortises the kernel launch overhead.
        """
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
            sparse_fraction = max(
                occupancy * (1.0 + _SPARSE_OVERHEAD), _MIN_SPARSE_FRACTION
            )
            work = dense_macs * min(sparse_fraction, 1.0)
        else:
            work = dense_macs

        throughput = pe.effective_throughput(precision) * _SUSTAINED_FRACTION
        if layer.is_spiking:
            throughput *= _SNN_EFFICIENCY
        compute_time = work / throughput

        activation = layer.activation_bytes(precision) * batch
        if sparse:
            # Sparse activations move only the non-zero payload plus indices.
            activation = activation * occupancy * 1.5
        data_bytes = layer.weight_bytes(precision) + activation
        memory_time = data_bytes / pe.memory_bandwidth

        overhead = pe.kernel_launch_overhead
        return LatencyEstimate(compute_time, memory_time, overhead, data_bytes)
