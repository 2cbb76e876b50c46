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

Everything in that model except the occupancy and the batch depends only on
the ``(layer, pe, precision, sparse)`` execution, so a :class:`Roofline`
fixes it once, and :meth:`Roofline.evaluate` is the one place the roofline
arithmetic is written.  :meth:`LatencyModel.layer_latency` compiles and
evaluates in one call; the per-layer cost table
(:class:`~repro.hw.profiler.LayerCostTable`) keeps one compiled roofline
per cell and evaluates it on each miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..nn.layers import LayerSpec
from ..nn.quantization import Precision
from .pe import ProcessingElement

__all__ = ["LatencyEstimate", "LatencyModel", "Roofline"]

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
    byte, so energy never re-derives it.  ``total`` is the roofline total,
    ``max(compute_time, memory_time) + overhead``, as
    :meth:`Roofline.evaluate` computed it.
    """

    compute_time: float
    memory_time: float
    overhead: float
    data_bytes: float
    total: float


class Roofline:
    """One ``(layer, pe, precision, sparse)`` execution, compiled.

    The constructor checks that ``pe`` can run ``layer`` at ``precision``
    and fixes every term that does not depend on the occupancy or the
    batch: the dense MAC count, the layer's static occupancy
    (``1 - activation_sparsity``), whether the execution really runs
    sparse (a sparse request on a PE without sparse kernels runs dense),
    the sustained throughput (SNN penalty included), the activation and
    weight bytes, the bandwidth and the launch overhead.
    """

    __slots__ = (
        "macs",
        "occupancy",
        "sparse",
        "throughput",
        "activation_bytes",
        "weight_bytes",
        "bandwidth",
        "overhead",
    )

    def __init__(
        self,
        layer: LayerSpec,
        pe: ProcessingElement,
        precision: Precision,
        sparse: bool,
    ) -> None:
        if not pe.supports_layer(layer):
            raise ValueError(
                f"{pe.name} cannot execute layer '{layer.name}' (SNN unsupported)"
            )
        if not pe.supports_precision(precision):
            raise ValueError(f"{pe.name} does not support {precision.value}")
        self.macs = layer.macs
        self.occupancy = 1.0 - layer.activation_sparsity
        self.sparse = bool(sparse and pe.supports_sparse)
        throughput = pe.effective_throughput(precision) * _SUSTAINED_FRACTION
        if layer.is_spiking:
            throughput *= _SNN_EFFICIENCY
        self.throughput = throughput
        self.activation_bytes = layer.activation_bytes(precision)
        self.weight_bytes = layer.weight_bytes(precision)
        self.bandwidth = pe.memory_bandwidth
        self.overhead = pe.kernel_launch_overhead

    def evaluate(
        self, occupancy: Optional[float], batch: int
    ) -> Tuple[float, float, float, float]:
        """``(total, data_bytes, compute_time, memory_time)`` of one execution.

        ``occupancy`` is clamped to [0, 1] (``None`` = the layer's static
        occupancy); ``batch`` inputs run back to back.  Sparse work scales
        with the occupancy plus the index-handling overhead, bounded below by
        the minimum sparse fraction and above by the dense work, and sparse
        activations move only the non-zero payload plus indices.
        """
        if batch < 1:
            raise ValueError("batch must be >= 1")
        if occupancy is None:
            occupancy = self.occupancy
        elif occupancy < 0.0:
            occupancy = 0.0
        elif occupancy > 1.0:
            occupancy = 1.0
        dense_macs = self.macs * batch
        activation = self.activation_bytes * batch
        if self.sparse:
            fraction = occupancy * (1.0 + _SPARSE_OVERHEAD)
            if fraction < _MIN_SPARSE_FRACTION:
                fraction = _MIN_SPARSE_FRACTION
            elif fraction > 1.0:
                fraction = 1.0
            work = dense_macs * fraction
            activation = activation * occupancy * 1.5
        else:
            work = dense_macs
        compute_time = work / self.throughput
        data_bytes = self.weight_bytes + activation
        memory_time = data_bytes / self.bandwidth
        slowest = memory_time if memory_time > compute_time else compute_time
        return slowest + self.overhead, data_bytes, compute_time, memory_time


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
        roofline = Roofline(layer, pe, precision, sparse)
        total, data_bytes, compute_time, memory_time = roofline.evaluate(occupancy, batch)
        return LatencyEstimate(
            compute_time, memory_time, roofline.overhead, data_bytes, total
        )
