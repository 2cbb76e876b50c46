"""Layer descriptors for the networks of the paper's Table 1.

A :class:`LayerSpec` captures everything the rest of the framework needs to
reason about one network layer:

* its *workload* — multiply-accumulate count, parameter count and activation
  sizes, used by the hardware latency/energy model and by the Network Mapper;
* its *nature* — ANN vs SNN, which constrains the processing elements it may
  run on (the DLA cannot execute custom spiking ops) and how activation
  sparsity scales the effective work.

Layer kinds cover the building blocks of the six evaluated networks:
convolutions, spiking convolutions (Conv + LIF), transposed convolutions for
the decoder halves of the U-Net style flow/depth networks, pooling, fully
connected heads and element-wise fusion layers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Tuple

from .quantization import Precision

__all__ = ["LayerKind", "LayerSpec"]


class LayerKind(Enum):
    """Supported layer types."""

    CONV2D = "conv2d"
    CONV_LIF = "conv_lif"          # spiking convolution (Conv + leaky integrate-and-fire)
    DECONV2D = "deconv2d"          # transposed convolution (decoder upsampling)
    DECONV_LIF = "deconv_lif"      # spiking transposed convolution
    POOL = "pool"
    FC = "fc"
    ELEMENTWISE = "elementwise"    # residual add / sensor fusion merge
    INPUT = "input"                # pseudo-layer marking a network input
    OUTPUT = "output"              # pseudo-layer marking a network output

    @property
    def is_spiking(self) -> bool:
        """True for SNN layers (LIF dynamics)."""
        return self in (LayerKind.CONV_LIF, LayerKind.DECONV_LIF)

    @property
    def is_compute(self) -> bool:
        """True for layers that perform real arithmetic work."""
        return self not in (LayerKind.INPUT, LayerKind.OUTPUT)


@dataclass(frozen=True)
class LayerSpec:
    """Description of a single network layer.

    Parameters
    ----------
    name:
        Unique name within its network, e.g. ``"enc1"``.
    kind:
        The :class:`LayerKind`.
    in_channels, out_channels:
        Channel counts.
    in_height, in_width:
        Spatial size of the input activation.
    kernel_size, stride:
        Convolution geometry (ignored for FC / element-wise layers).
    timesteps:
        Number of SNN timesteps the layer is unrolled over (1 for ANN layers).
        SNN layers repeat their computation once per timestep.
    activation_sparsity:
        Expected fraction of *zero* activations at the layer input.  Event
        data and spiking activations are highly sparse (paper Figure 1);
        sparse-aware execution skips that fraction of the work.

    The derived workload numbers (output size, parameter, MAC and
    activation counts) depend only on these frozen fields, so each is
    computed once per spec and cached on the instance: the roofline model
    reads them on every cost-table miss.
    """

    name: str
    kind: LayerKind
    in_channels: int = 1
    out_channels: int = 1
    in_height: int = 260
    in_width: int = 346
    kernel_size: int = 3
    stride: int = 1
    timesteps: int = 1
    activation_sparsity: float = 0.0

    def __post_init__(self) -> None:
        if self.kind.is_compute:
            if self.in_channels <= 0 or self.out_channels <= 0:
                raise ValueError(f"layer {self.name}: channel counts must be positive")
            if self.in_height <= 0 or self.in_width <= 0:
                raise ValueError(f"layer {self.name}: spatial size must be positive")
            if self.kernel_size <= 0 or self.stride <= 0:
                raise ValueError(f"layer {self.name}: kernel/stride must be positive")
        if self.timesteps < 1:
            raise ValueError(f"layer {self.name}: timesteps must be >= 1")
        if not 0.0 <= self.activation_sparsity < 1.0:
            raise ValueError(f"layer {self.name}: activation_sparsity must be in [0, 1)")

    # ------------------------------------------------------------------
    # shapes
    # ------------------------------------------------------------------
    @property
    def is_spiking(self) -> bool:
        """True if this layer contains LIF dynamics."""
        return self.kind.is_spiking

    @cached_property
    def out_height(self) -> int:
        """Output activation height."""
        if self.kind in (LayerKind.CONV2D, LayerKind.CONV_LIF, LayerKind.POOL):
            return max(self.in_height // self.stride, 1)
        if self.kind in (LayerKind.DECONV2D, LayerKind.DECONV_LIF):
            return self.in_height * self.stride
        return self.in_height if self.kind is not LayerKind.FC else 1

    @cached_property
    def out_width(self) -> int:
        """Output activation width."""
        if self.kind in (LayerKind.CONV2D, LayerKind.CONV_LIF, LayerKind.POOL):
            return max(self.in_width // self.stride, 1)
        if self.kind in (LayerKind.DECONV2D, LayerKind.DECONV_LIF):
            return self.in_width * self.stride
        return self.in_width if self.kind is not LayerKind.FC else 1

    @property
    def output_shape(self) -> Tuple[int, int, int]:
        """``(C, H, W)`` of the output activation."""
        return (self.out_channels, self.out_height, self.out_width)

    # ------------------------------------------------------------------
    # workload
    # ------------------------------------------------------------------
    @cached_property
    def num_parameters(self) -> int:
        """Number of weights (+ biases) in the layer."""
        if self.kind in (
            LayerKind.CONV2D,
            LayerKind.CONV_LIF,
            LayerKind.DECONV2D,
            LayerKind.DECONV_LIF,
        ):
            return (
                self.in_channels * self.out_channels * self.kernel_size**2
                + self.out_channels
            )
        if self.kind is LayerKind.FC:
            return (
                self.in_channels * self.in_height * self.in_width * self.out_channels
                + self.out_channels
            )
        return 0

    @cached_property
    def macs(self) -> int:
        """Dense multiply-accumulate count for one inference (all timesteps)."""
        if self.kind in (LayerKind.CONV2D, LayerKind.CONV_LIF):
            per_step = (
                self.out_height
                * self.out_width
                * self.out_channels
                * self.in_channels
                * self.kernel_size**2
            )
        elif self.kind in (LayerKind.DECONV2D, LayerKind.DECONV_LIF):
            per_step = (
                self.in_height
                * self.in_width
                * self.out_channels
                * self.in_channels
                * self.kernel_size**2
            )
        elif self.kind is LayerKind.FC:
            per_step = self.in_channels * self.in_height * self.in_width * self.out_channels
        elif self.kind is LayerKind.POOL:
            per_step = self.out_height * self.out_width * self.out_channels * self.kernel_size**2
        elif self.kind is LayerKind.ELEMENTWISE:
            per_step = self.out_channels * self.out_height * self.out_width
        else:
            per_step = 0
        return per_step * self.timesteps

    @property
    def effective_macs(self) -> int:
        """MACs after skipping the zero-activation fraction.

        This is the work a sparsity-aware implementation (sparse libraries on
        the GPU/CPU, or event-driven SNN execution) actually performs; it is
        what E2SF enables the platform to exploit.
        """
        return int(round(self.macs * (1.0 - self.activation_sparsity)))

    @cached_property
    def input_activation_elements(self) -> int:
        """Number of scalars in the input activation (all timesteps)."""
        return self.in_channels * self.in_height * self.in_width * self.timesteps

    @cached_property
    def output_activation_elements(self) -> int:
        """Number of scalars in the output activation (all timesteps)."""
        return self.out_channels * self.out_height * self.out_width * self.timesteps

    def activation_bytes(self, precision: Precision) -> int:
        """Bytes of input + output activations at the given precision."""
        total = self.input_activation_elements + self.output_activation_elements
        return int(total * precision.bytes_per_element)

    def weight_bytes(self, precision: Precision) -> int:
        """Bytes of parameters at the given precision."""
        return int(self.num_parameters * precision.bytes_per_element)

    def output_bytes(self, precision: Precision) -> int:
        """Bytes of the output activation alone (what must cross PEs)."""
        return int(self.output_activation_elements * precision.bytes_per_element)

    def with_sparsity(self, activation_sparsity: float) -> "LayerSpec":
        """Return a copy with a different expected activation sparsity."""
        return replace(self, activation_sparsity=activation_sparsity)
