"""Configuration objects for the integrated Ev-Edge pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .._checks import require_count
from ..nn.quantization import Precision
from .dsfa import DSFAConfig

__all__ = ["OptimizationLevel", "EvEdgeConfig"]


class OptimizationLevel(Enum):
    """Which Ev-Edge optimizations are enabled (Figure 8's incremental bars)."""

    BASELINE = "all-gpu-dense"        # dense frames, all layers on the GPU
    E2SF = "e2sf"                     # sparse frames, all layers on the GPU
    E2SF_DSFA = "e2sf+dsfa"           # sparse frames + dynamic aggregation
    FULL = "e2sf+dsfa+nmp"            # sparse frames + aggregation + network mapper

    @property
    def uses_sparse(self) -> bool:
        """True when E2SF sparse frames are used."""
        return self is not OptimizationLevel.BASELINE

    @property
    def uses_dsfa(self) -> bool:
        """True when DSFA merging is active."""
        return self in (OptimizationLevel.E2SF_DSFA, OptimizationLevel.FULL)

    @property
    def uses_nmp(self) -> bool:
        """True when the Network Mapper's mapping is used."""
        return self is OptimizationLevel.FULL


@dataclass(frozen=True)
class EvEdgeConfig:
    """End-to-end configuration of the Ev-Edge inference pipeline.

    Attributes
    ----------
    num_bins:
        ``nB`` — event bins per grayscale frame interval (E2SF temporal
        resolution).
    dsfa:
        DSFA thresholds and merge mode.
    baseline_precision:
        Precision of the all-GPU baseline and of non-NMP levels.
    optimization:
        Which subset of the three optimizations is enabled.
    """

    num_bins: int = 5
    dsfa: DSFAConfig = field(default_factory=DSFAConfig)
    baseline_precision: Precision = Precision.FP32
    optimization: OptimizationLevel = OptimizationLevel.FULL

    def __post_init__(self) -> None:
        require_count("num_bins", self.num_bins, 1)
