"""Precision types and linear quantization.

The Network Mapper searches over per-layer precision (paper Section 4.3):
candidates assign each layer one of the precisions supported by its
processing element, the pretrained network is "quantized linearly based on
the layer bit-widths" and evaluated on a validation subset.  This module
provides the precision enumeration, symmetric linear quantization of numpy
tensors and the resulting quantization error — the genuine mechanism behind
the accuracy-degradation constraint in Equation 2.
"""

from __future__ import annotations

from enum import Enum
from typing import Tuple

import numpy as np

__all__ = ["Precision", "quantize", "dequantize", "fake_quantize"]


class Precision(Enum):
    """Numeric precision of a layer's weights and activations."""

    FP32 = "fp32"
    FP16 = "fp16"
    INT8 = "int8"

    @property
    def bits(self) -> int:
        """Bit width of one element."""
        return {"fp32": 32, "fp16": 16, "int8": 8}[self.value]

    @property
    def bytes_per_element(self) -> float:
        """Storage size of one element in bytes."""
        return self.bits / 8.0

    @property
    def relative_throughput(self) -> float:
        """Throughput multiplier relative to FP32 on a typical edge GPU.

        Tensor-core style hardware roughly doubles math throughput per
        halving of the operand width (FP16 = 2x, INT8 = 4x).
        """
        return {"fp32": 1.0, "fp16": 2.0, "int8": 4.0}[self.value]

    def __lt__(self, other: "Precision") -> bool:
        return self.bits < other.bits

    @classmethod
    def ordered(cls) -> Tuple["Precision", ...]:
        """Precisions from lowest to highest bit width."""
        return (cls.INT8, cls.FP16, cls.FP32)


def quantize(tensor: np.ndarray, precision: Precision) -> Tuple[np.ndarray, float]:
    """Symmetric linear quantization of ``tensor`` to ``precision``.

    Returns ``(codes, scale)``.  For floating point precisions the tensor is
    cast (FP16) or returned unchanged (FP32) with ``scale = 1``.
    """
    tensor = np.asarray(tensor, dtype=np.float64)
    if precision is Precision.FP32:
        return tensor.copy(), 1.0
    if precision is Precision.FP16:
        return tensor.astype(np.float16).astype(np.float64), 1.0
    max_abs = float(np.max(np.abs(tensor))) if tensor.size else 0.0
    if max_abs == 0.0:
        return np.zeros_like(tensor), 1.0
    qmax = 127.0
    scale = max_abs / qmax
    codes = np.clip(np.round(tensor / scale), -qmax, qmax)
    return codes, scale


def dequantize(codes: np.ndarray, scale: float) -> np.ndarray:
    """Invert :func:`quantize` for integer codes."""
    return np.asarray(codes, dtype=np.float64) * scale


def fake_quantize(tensor: np.ndarray, precision: Precision) -> np.ndarray:
    """Quantize then immediately dequantize (simulated low-precision execution).

    This is how the reproduction models running a layer at reduced precision:
    values pass through the INT8/FP16 grid, so downstream computation sees the
    rounding error exactly as the real accelerator would.
    """
    if precision is Precision.FP32:
        return np.asarray(tensor, dtype=np.float64).copy()
    if precision is Precision.FP16:
        return np.asarray(tensor, dtype=np.float16).astype(np.float64)
    codes, scale = quantize(tensor, precision)
    return dequantize(codes, scale)
