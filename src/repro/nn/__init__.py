"""Neural network substrate: layers, graphs, SNN dynamics, quantization and surrogates."""

from .accuracy import TaskAccuracyEvaluator, TaskSample, map_layer_precisions_to_stages
from .graph import LayerGraph, MultiTaskGraph, TaskSpec
from .layers import LayerKind, LayerSpec
from .quantization import (
    Precision,
    dequantize,
    fake_quantize,
    quantization_error,
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
from .snn import LIFParameters, LIFState, lif_run, lif_step, spike_rate
from .sparse_conv import (
    dense_conv2d,
    dense_conv2d_macs,
    sparse_conv2d,
    sparse_conv2d_macs,
    submanifold_conv2d,
)
from .surrogate import (
    DepthSurrogate,
    FlowSurrogate,
    SegmentationSurrogate,
    SurrogateResult,
    TrackingSurrogate,
    surrogate_for_task,
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
    "quantization_error",
    "LIFParameters",
    "LIFState",
    "lif_step",
    "lif_run",
    "spike_rate",
    "dense_conv2d",
    "dense_conv2d_macs",
    "sparse_conv2d",
    "sparse_conv2d_macs",
    "submanifold_conv2d",
    "FlowSurrogate",
    "SegmentationSurrogate",
    "DepthSurrogate",
    "TrackingSurrogate",
    "SurrogateResult",
    "surrogate_for_task",
    "TaskAccuracyEvaluator",
    "TaskSample",
    "map_layer_precisions_to_stages",
]
