"""Event frame representations: dense frames, sparse COO frames and conversions."""

from .dense import (
    assign_event_bins,
    bin_boundaries,
    discretized_event_bins,
    ev_flownet_frame,
    event_count_frame,
    frame_occupancy,
    time_surface,
)
from .encoding import (
    ConversionCost,
    decode_cost,
    dense_to_sparse,
    encode_cost,
    events_to_sparse_cost,
    sparse_to_dense,
)
from .sparse import SparseFrame, SparseFrameBatch
from .stack import FrameStack, segment_add, segment_average

__all__ = [
    "SparseFrame",
    "SparseFrameBatch",
    "FrameStack",
    "segment_add",
    "segment_average",
    "event_count_frame",
    "time_surface",
    "ev_flownet_frame",
    "discretized_event_bins",
    "bin_boundaries",
    "assign_event_bins",
    "frame_occupancy",
    "ConversionCost",
    "dense_to_sparse",
    "sparse_to_dense",
    "encode_cost",
    "decode_cost",
    "events_to_sparse_cost",
]
