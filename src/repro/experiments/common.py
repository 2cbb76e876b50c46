"""Shared configuration and helpers for the experiment harnesses.

Every experiment module exposes a ``run_*`` function returning plain
dictionaries/lists (so the benchmark harness can print the same rows the
paper reports) plus a ``format_*`` helper producing a human-readable table.
The ``scale`` / ``duration`` knobs exist so that the benchmarks run in
seconds instead of minutes while preserving the statistics the figures rely
on; the defaults reproduce the full-size study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["ExperimentSettings", "format_table", "traffic_mix"]


@dataclass(frozen=True)
class ExperimentSettings:
    """Common knobs shared by the experiment harnesses.

    Attributes
    ----------
    scale:
        Spatial scale of the generated sequences (1.0 = full DAVIS 346x260).
    duration:
        Sequence duration in seconds.
    num_bins:
        E2SF bins per grayscale frame interval.
    seed:
        RNG seed for sequence generation and the searches.
    network_resolution:
        (height, width) at which the model-zoo networks are instantiated for
        the platform simulation.
    """

    scale: float = 0.25
    duration: float = 1.0
    num_bins: int = 10
    seed: int = 0
    network_resolution: Sequence[int] = (260, 346)
    num_streams: int = 4


def format_table(rows: List[Dict[str, object]], columns: Sequence[str]) -> str:
    """Render a list of dicts as an aligned text table."""
    if not rows:
        return "(no data)"
    widths = {c: len(c) for c in columns}
    rendered: List[List[str]] = []
    for row in rows:
        cells = []
        for c in columns:
            value = row.get(c, "")
            if isinstance(value, float):
                text = f"{value:.3f}"
            else:
                text = str(value)
            widths[c] = max(widths[c], len(text))
            cells.append(text)
        rendered.append(cells)
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    separator = "  ".join("-" * widths[c] for c in columns)
    lines = [header, separator]
    for cells in rendered:
        lines.append("  ".join(cell.ljust(widths[c]) for cell, c in zip(cells, columns)))
    return "\n".join(lines)


# Default heterogeneous traffic recipe: (network, sequence) pairs cycled by
# :func:`traffic_mix`.  The networks cover both SNN- and ANN-style workloads
# and the sequences cover bursty drone, steady driving and high-speed motion.
_TRAFFIC_RECIPE: Tuple[Tuple[str, str], ...] = (
    ("spikeflownet", "indoor_flying1"),
    ("dotie", "high_speed_disk"),
    ("halsie", "indoor_flying2"),
    ("e2depth", "town10"),
)
# Seconds between consecutive stream joins of a traffic mix.
_TRAFFIC_STAGGER = 0.004


def traffic_mix(
    num_streams: Optional[int] = None,
    settings: Optional[ExperimentSettings] = None,
    network_resolution: Tuple[int, int] = (64, 64),
):
    """Build ``num_streams`` heterogeneous :class:`StreamSource` objects.

    Streams cycle through the default network/sequence recipe, reuse one
    generated sequence and one built network per recipe entry, run at
    E2SF+DSFA, and are phase-staggered by ``_TRAFFIC_STAGGER`` (4 ms) so
    arrivals interleave instead of colliding.  ``num_streams`` defaults to
    ``settings.num_streams``.  Used by the multi-stream benchmark and
    examples.
    """
    from ..core.config import EvEdgeConfig, OptimizationLevel
    from ..events.datasets import generate_sequence
    from ..models.zoo import build_network
    from ..runtime.streams import StreamSource

    settings = settings or ExperimentSettings()
    if num_streams is None:
        num_streams = settings.num_streams
    if num_streams < 1:
        raise ValueError("num_streams must be >= 1")
    height, width = network_resolution
    config = EvEdgeConfig(
        num_bins=settings.num_bins, optimization=OptimizationLevel.E2SF_DSFA
    )
    networks: Dict[str, object] = {}
    sequences: Dict[str, object] = {}
    sources = []
    for i in range(num_streams):
        net_name, seq_name = _TRAFFIC_RECIPE[i % len(_TRAFFIC_RECIPE)]
        if net_name not in networks:
            networks[net_name] = build_network(net_name, height, width)
        if seq_name not in sequences:
            sequences[seq_name] = generate_sequence(
                seq_name,
                scale=settings.scale,
                duration=settings.duration,
                seed=settings.seed + i % len(_TRAFFIC_RECIPE),
            )
        sources.append(
            StreamSource(
                name=f"s{i:02d}:{net_name}",
                sequence=sequences[seq_name],
                network=networks[net_name],
                config=config,
                start_offset=_TRAFFIC_STAGGER * i,
            )
        )
    return sources
