"""Neural network substrate: layers, graphs, occupancy, quantization and surrogates."""

from .accuracy import TaskAccuracyEvaluator, TaskSample, map_layer_precisions_to_stages
from .graph import LayerGraph, MultiTaskGraph, TaskSpec
from .layers import LayerKind, LayerSpec
from .quantization import (
    Precision,
    dequantize,
    fake_quantize,
    quantize,
)
from .calibration import (
    CalibrationResult,
    estimate_firing_fractions,
    fit_firing_fractions,
)
from .occupancy import (
    OccupancyProfile,
    combine_supports,
    layer_output_occupancy,
    propagate_occupancy_graph,
)
from .surrogate import (
    DepthSurrogate,
    FlowSurrogate,
    SegmentationSurrogate,
    SurrogateResult,
    TrackingSurrogate,
)

__all__ = [
    "LayerKind",
    "LayerSpec",
    "LayerGraph",
    "MultiTaskGraph",
    "TaskSpec",
    "OccupancyProfile",
    "combine_supports",
    "layer_output_occupancy",
    "propagate_occupancy_graph",
    "CalibrationResult",
    "estimate_firing_fractions",
    "fit_firing_fractions",
    "Precision",
    "quantize",
    "dequantize",
    "fake_quantize",
    "FlowSurrogate",
    "SegmentationSurrogate",
    "DepthSurrogate",
    "TrackingSurrogate",
    "SurrogateResult",
    "TaskAccuracyEvaluator",
    "TaskSample",
    "map_layer_precisions_to_stages",
]
