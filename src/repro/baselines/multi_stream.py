"""Multi-stream baselines for the traffic simulator.

Two reference points bracket :class:`~repro.runtime.streams.
MultiStreamSimulator` results:

* :func:`run_streams_isolated` — every stream gets the whole platform to
  itself (no contention, no cross-stream batching).  This is the
  infeasible upper bound: N sensors would need N boards.
* :func:`run_streams_unbatched` — all streams share one platform but
  cross-stream batching is disabled (``max_merge_streams=1``), isolating
  how much of the shared-platform throughput comes from merging.

Both baselines cost on the default latency and energy models, like the
simulator they bracket, and default to ``cost_mode="profile"`` — the same
propagated per-layer occupancy semantics that simulator runs under (a
bracket costed on different semantics than its subject would not bracket
anything).  The mode is recorded in every returned report
(``PipelineReport.cost_mode`` / ``MultiStreamReport.cost_mode``); pass
``cost_mode="flat"`` for the seed-identical scalar path.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..core.pipeline import EvEdgePipeline, PipelineReport
from ..hw.pe import Platform
from ..runtime.streams import MultiStreamReport, MultiStreamSimulator, StreamSource

__all__ = ["run_streams_isolated", "run_streams_unbatched"]


def run_streams_isolated(
    sources: Sequence[StreamSource],
    platform: Platform,
    cost_mode: str = "profile",
) -> Dict[str, PipelineReport]:
    """Run every stream on a private copy of the platform (no contention).

    Each stream is simulated independently with the single-stream pipeline,
    as if it owned the hardware outright — the per-stream latency floor the
    shared-platform simulation is compared against.  Each returned report
    records the ``cost_mode`` it was costed under.
    """
    reports: Dict[str, PipelineReport] = {}
    for source in sources:
        pipeline = EvEdgePipeline(
            source.network,
            platform,
            config=source.config,
            mapping=source.mapping,
            cost_mode=cost_mode,
        )
        reports[source.name] = pipeline.run(source.sequence)
    return reports


def run_streams_unbatched(
    sources: Sequence[StreamSource],
    platform: Platform,
    cost_mode: str = "profile",
) -> MultiStreamReport:
    """Share one platform across streams with cross-stream batching disabled."""
    return MultiStreamSimulator(
        platform, sources, max_merge_streams=1, cost_mode=cost_mode
    ).run()
