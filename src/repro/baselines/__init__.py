"""Baselines: static aggregation and multi-stream references."""

from .multi_stream import run_streams_isolated, run_streams_unbatched
from .static_agg import CountBasedAggregator, FixedIntervalAggregator

__all__ = [
    "CountBasedAggregator",
    "FixedIntervalAggregator",
    "run_streams_isolated",
    "run_streams_unbatched",
]
