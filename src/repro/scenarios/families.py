"""Built-in workload families: spec → ``StreamSource`` list compilers.

Each family is a pure function of its :class:`~repro.scenarios.spec.
ScenarioSpec` — every random draw (join times, sequence choices, skew)
derives from ``spec.seed``, so the same spec always compiles to the same
traffic and a :class:`~repro.runtime.streams.MultiStreamSimulator` run over
it is bit-for-bit reproducible (the property the sweep cache and the
determinism tests rely on).

Families shipped here:

=================  =====================================================
``steady``         Evenly staggered streams over steady driving footage.
``bursty``         Poisson (exponential inter-arrival) stream joins over
                   bursty drone footage.
``diurnal``        Join times follow a sinusoidal load curve (peak-hour
                   clustering), like a day/night traffic profile.
``churn``          Scheduled joins *and* early leaves: part of the fleet
                   departs mid-life (``StreamSource.stop_time``) while
                   late joiners replace it.
``hotspot``        Zipf-skewed network/sequence choice: most streams pile
                   onto one signature, stressing cross-stream batching.
``mixed_fleet``    The optimization ladder (baseline → E2SF → +DSFA →
                   +NMP) cycled across streams on shared hardware.
=================  =====================================================
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from ..core.config import EvEdgeConfig, OptimizationLevel
from ..events.datasets import generate_sequence
from ..models.zoo import build_network
from ..runtime.streams import StreamSource
from .spec import ScenarioSpec

__all__ = [
    "compile_steady",
    "compile_bursty",
    "compile_diurnal",
    "compile_churn",
    "compile_hotspot",
    "compile_mixed_fleet",
    "BUILTIN_FAMILIES",
    "DEFAULT_SEQUENCE_POOL",
]

# (network, sequence) recipes: steady scenes for the steady/diurnal families,
# bursty drone scenes for the arrival-process families.
_STEADY_RECIPE: Tuple[Tuple[str, str], ...] = (
    ("spikeflownet", "outdoor_day1"),
    ("e2depth", "town10"),
    ("halsie", "outdoor_day1"),
    ("dotie", "calibration_bars"),
)
_BURSTY_RECIPE: Tuple[Tuple[str, str], ...] = (
    ("spikeflownet", "indoor_flying1"),
    ("dotie", "high_speed_disk"),
    ("halsie", "indoor_flying2"),
    ("adaptive_spikenet", "indoor_flying3"),
)


def _rng(spec: ScenarioSpec, salt: str) -> np.random.Generator:
    """Deterministic per-(spec, salt) generator."""
    digest = hashlib.sha256(salt.encode("utf-8")).digest()
    return np.random.default_rng([spec.seed, int.from_bytes(digest[:4], "big")])


# Streams of one family share rendered sequences: stream ``i`` draws its
# sequence seed from a pool of ``sequence_pool`` seeds (param override per
# spec) instead of a distinct seed per stream, so a 1024-stream fleet renders
# a handful of sequences instead of 1024.  Fleets no larger than the pool
# are unaffected (``i % pool == i``).
DEFAULT_SEQUENCE_POOL = 8


# Sequence generation is the expensive part of a compile; large fleets used
# to thrash the old fixed 64-entry cache.  Every miss looks up the module
# global ``generate_sequence``, so a wrapper installed there (perfbench's
# ``events.generate`` span) sees each render.
@lru_cache(maxsize=256)
def _sequence(name: str, scale: float, duration: float, seed: int):
    """Memoized event-sequence generation (the expensive part of a compile)."""
    return generate_sequence(name, scale=scale, duration=duration, seed=seed)


@lru_cache(maxsize=32)
def _network(name: str, height: int, width: int):
    return build_network(name, height, width)


def _level(spec: ScenarioSpec, default: OptimizationLevel = OptimizationLevel.E2SF_DSFA) -> OptimizationLevel:
    """The optimization level a spec asks for (param ``optimization``)."""
    value = spec.param("optimization")
    if value is None:
        return default
    return OptimizationLevel(value)


def _make_source(
    spec: ScenarioSpec,
    index: int,
    net_name: str,
    seq_name: str,
    start_offset: float,
    stop_time=None,
    level: OptimizationLevel = None,
    seq_seed: int = None,
) -> StreamSource:
    height, width = spec.network_resolution
    config = EvEdgeConfig(
        num_bins=spec.num_bins,
        optimization=level if level is not None else _level(spec),
    )
    if seq_seed is not None:
        seed = seq_seed
    else:
        pool = int(spec.param("sequence_pool", DEFAULT_SEQUENCE_POOL))
        if pool < 1:
            raise ValueError("sequence_pool must be >= 1")
        # Same-family streams share rendered sequences through the seed
        # pool; combined with the lru cache this caps sequence generation
        # per compile at ``pool`` renders regardless of fleet size.
        seed = spec.seed + (index % pool)
    return StreamSource(
        name=f"{spec.name}:{index:02d}:{net_name}",
        sequence=_sequence(seq_name, spec.scale, spec.duration, seed),
        network=_network(net_name, height, width),
        config=config,
        start_offset=float(start_offset),
        stop_time=None if stop_time is None else float(stop_time),
    )


def _cycle(recipe: Sequence[Tuple[str, str]], index: int) -> Tuple[str, str]:
    return recipe[index % len(recipe)]


# ----------------------------------------------------------------------
# the families
# ----------------------------------------------------------------------
def compile_steady(spec: ScenarioSpec) -> List[StreamSource]:
    """Evenly phase-staggered streams over steady footage."""
    stagger = float(spec.param("stagger", 0.004))
    sources = []
    for i in range(spec.num_streams):
        net, seq = _cycle(_STEADY_RECIPE, i)
        sources.append(_make_source(spec, i, net, seq, start_offset=stagger * i))
    return sources


def compile_bursty(spec: ScenarioSpec) -> List[StreamSource]:
    """Poisson stream arrivals: exponential inter-arrival join times."""
    rng = _rng(spec, "bursty")
    mean_gap = float(spec.param("mean_gap", spec.duration / max(spec.num_streams, 1)))
    joins = np.cumsum(rng.exponential(mean_gap, size=spec.num_streams))
    joins -= joins[0]  # the first stream anchors the scenario at t=0
    sources = []
    for i in range(spec.num_streams):
        net, seq = _cycle(_BURSTY_RECIPE, i)
        sources.append(_make_source(spec, i, net, seq, start_offset=joins[i]))
    return sources


def compile_diurnal(spec: ScenarioSpec) -> List[StreamSource]:
    """Stream joins following a sinusoidal load curve (diurnal profile).

    Join times are the inverse-CDF samples of a rate curve
    ``r(t) = 1 + amplitude * sin(2*pi*t/period - pi/2)`` over one period, so
    streams cluster around the peak of the curve the way user traffic
    clusters around peak hours.
    """
    amplitude = float(spec.param("amplitude", 0.9))
    if not 0 <= amplitude <= 1:
        raise ValueError("diurnal amplitude must be in [0, 1]")
    period = float(spec.param("period", 2.0 * spec.duration))
    rng = _rng(spec, "diurnal")
    grid = np.linspace(0.0, period, 512)
    rate = 1.0 + amplitude * np.sin(2.0 * np.pi * grid / period - np.pi / 2.0)
    cdf = np.cumsum(rate)
    cdf = (cdf - cdf[0]) / (cdf[-1] - cdf[0])
    # Deterministic quantiles with a small seeded jitter so ties never stack
    # every stream on one instant.
    quantiles = (np.arange(spec.num_streams) + 0.5) / spec.num_streams
    quantiles = np.clip(
        quantiles + rng.uniform(-0.2, 0.2, size=spec.num_streams) / spec.num_streams,
        0.0,
        1.0,
    )
    joins = np.interp(np.sort(quantiles), cdf, grid)
    sources = []
    for i in range(spec.num_streams):
        net, seq = _cycle(_STEADY_RECIPE, i)
        sources.append(_make_source(spec, i, net, seq, start_offset=joins[i]))
    return sources


def compile_churn(spec: ScenarioSpec) -> List[StreamSource]:
    """Scheduled joins and early leaves: half the fleet churns mid-life.

    Odd-indexed streams leave after ``lifetime_fraction`` of their footage
    (their ``stop_time`` truncates the stream), modelling sensors that
    detach while replacements are still joining.
    """
    lifetime_fraction = float(spec.param("lifetime_fraction", 0.5))
    if not 0 < lifetime_fraction <= 1:
        raise ValueError("churn lifetime_fraction must be in (0, 1]")
    window = float(spec.param("join_window", spec.duration))
    gap = window / max(spec.num_streams, 1)
    sources = []
    for i in range(spec.num_streams):
        net, seq = _cycle(_BURSTY_RECIPE, i)
        join = gap * i
        stop = join + lifetime_fraction * spec.duration if i % 2 else None
        sources.append(
            _make_source(spec, i, net, seq, start_offset=join, stop_time=stop)
        )
    return sources


def compile_hotspot(spec: ScenarioSpec) -> List[StreamSource]:
    """Zipf-skewed workload choice: most streams hammer one signature.

    Stream counts follow the Zipf weights by largest-remainder allocation
    rather than sampling, so the concentration property holds for *every*
    seed; the seed only jitters the join offsets.
    """
    alpha = float(spec.param("alpha", 1.6))
    if alpha <= 0:
        raise ValueError("hotspot alpha must be positive")
    rng = _rng(spec, "hotspot")
    stagger = float(spec.param("stagger", 0.002))
    ranks = np.arange(1, len(_BURSTY_RECIPE) + 1, dtype=np.float64)
    weights = ranks**-alpha
    weights /= weights.sum()
    ideal = weights * spec.num_streams
    counts = np.floor(ideal).astype(int)
    for i in np.argsort(-(ideal - counts))[: spec.num_streams - counts.sum()]:
        counts[i] += 1
    jitter = rng.uniform(0.0, stagger, size=spec.num_streams)
    sources = []
    index = 0
    for choice, count in enumerate(counts):
        net, seq = _BURSTY_RECIPE[choice]
        for _ in range(count):
            # Streams sharing a recipe entry share the generated sequence and
            # the network object, so they collapse onto one signature server —
            # the hot spot cross-stream batching exists to absorb.
            sources.append(
                _make_source(
                    spec,
                    index,
                    net,
                    seq,
                    start_offset=stagger * index + jitter[index],
                    seq_seed=spec.seed + choice,
                )
            )
            index += 1
    return sources


def compile_mixed_fleet(spec: ScenarioSpec) -> List[StreamSource]:
    """The optimization ladder cycled across streams sharing the platform."""
    ladder = (
        OptimizationLevel.BASELINE,
        OptimizationLevel.E2SF,
        OptimizationLevel.E2SF_DSFA,
        OptimizationLevel.FULL,
    )
    stagger = float(spec.param("stagger", 0.003))
    sources = []
    for i in range(spec.num_streams):
        net, seq = _cycle(_BURSTY_RECIPE, i)
        sources.append(
            _make_source(
                spec,
                i,
                net,
                seq,
                start_offset=stagger * i,
                level=ladder[i % len(ladder)],
            )
        )
    return sources


BUILTIN_FAMILIES = {
    "steady": (compile_steady, "Evenly staggered streams over steady footage"),
    "bursty": (compile_bursty, "Poisson stream joins over bursty drone footage"),
    "diurnal": (compile_diurnal, "Joins clustered by a sinusoidal load curve"),
    "churn": (compile_churn, "Scheduled joins and early leaves (stream churn)"),
    "hotspot": (compile_hotspot, "Zipf-skewed load piling onto one signature"),
    "mixed_fleet": (compile_mixed_fleet, "Optimization ladder cycled across streams"),
}
