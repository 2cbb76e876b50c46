"""Event frame representations: dense event bins, sparse COO frames and conversion costs."""

from .dense import assign_event_bins, discretized_event_bins
from .encoding import ConversionCost, encode_cost, events_to_sparse_cost
from .sparse import SparseFrame, SparseFrameBatch
from .stack import FrameStack

__all__ = [
    "SparseFrame",
    "SparseFrameBatch",
    "FrameStack",
    "discretized_event_bins",
    "assign_event_bins",
    "ConversionCost",
    "encode_cost",
    "events_to_sparse_cost",
]
