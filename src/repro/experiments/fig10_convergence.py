"""Figure 10: NMP search convergence and strategy comparison.

(a) the best fitness per generation of the evolutionary search on the mixed
SNN-ANN configuration, showing latency and accuracy degradation being
minimised simultaneously; (b) the latency of the configuration found by the
evolutionary search versus random sampling of the same number of candidates
(the paper reports the evolutionary result is 1.42x faster).

Since the search-engine refactor the comparison spans all four registered
strategies — evolutionary, random, simulated annealing and greedy layer-wise
local search — running through ONE :class:`~repro.core.nmp.search.
MapperEngine` and one shared fitness evaluator under an equal evaluation
budget (``generations x population_size`` requested evaluations each).  The
evolutionary and random runs use the plain configuration, so their results
are bit-for-bit the pre-refactor Figure 10 results for a given seed (each
run draws a fresh RNG from the seed, so this holds in any strategy order).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..core.nmp.search import MapperEngine, NMPConfig, make_strategy
from ..hw.jetson import jetson_xavier_agx
from ..hw.pe import Platform
from ..hw.profiler import PlatformProfiler
from ..models.zoo import build_network
from ..nn.graph import MultiTaskGraph, TaskSpec
from .common import ExperimentSettings
from .fig9_multi_task import MULTI_TASK_CONFIGS

__all__ = ["DEFAULT_STRATEGIES", "run_fig10", "format_fig10"]

#: Each run draws a fresh RNG from the config seed and the shared fitness
#: cache is value-preserving, so strategy order does not affect results.
DEFAULT_STRATEGIES = ("evolutionary", "random", "annealing", "greedy")


def run_fig10(
    settings: ExperimentSettings = ExperimentSettings(),
    platform: Optional[Platform] = None,
    config_name: str = "mixed_snn_ann",
    nmp_config: Optional[NMPConfig] = None,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
) -> Dict[str, object]:
    """Run every search strategy on the mixed SNN-ANN config with one engine."""
    platform = platform or jetson_xavier_agx()
    networks = MULTI_TASK_CONFIGS[config_name]
    graph = MultiTaskGraph(
        [TaskSpec(build_network(name, *settings.network_resolution)) for name in networks]
    )
    profile = PlatformProfiler(platform).profile(graph)
    nmp_config = nmp_config or NMPConfig(population_size=20, generations=15, seed=settings.seed)
    engine = MapperEngine(graph, platform, profile, nmp_config)
    budget = nmp_config.generations * nmp_config.population_size

    per_strategy: Dict[str, Dict[str, object]] = {}
    for name in strategies:
        if name in ("evolutionary", "random"):
            # The seed's fixed generations x population schedule: exactly
            # ``budget`` requested evaluations, bit-for-bit reproducible.
            run_config = nmp_config
        else:
            # Population shape differs (annealing chains, greedy layer
            # sweeps), so pin the requested-evaluation budget instead.
            run_config = engine.equal_budget_config()
        result = engine.run(make_strategy(name), config=run_config)
        per_strategy[name] = {
            "convergence": result.convergence,
            "latency_ms": result.best_latency * 1e3,
            "fitness": result.best_breakdown.fitness,
            "requested_evaluations": result.requested_evaluations,
            "scheduler_evaluations": result.evaluations,
            "cache_hits": result.cache_hits,
            "generations_run": len(result.history),
            "best_key": result.best_candidate.key(),
        }

    evolutionary = per_strategy.get("evolutionary")
    random_search = per_strategy.get("random")
    out: Dict[str, object] = {
        "config": config_name,
        "generations": nmp_config.generations,
        "population_size": nmp_config.population_size,
        "evaluation_budget": budget,
        "strategies": per_strategy,
    }
    if evolutionary is not None:
        out["evolutionary_convergence"] = evolutionary["convergence"]
        out["evolutionary_latency_ms"] = evolutionary["latency_ms"]
        out["evolutionary_evaluations"] = evolutionary["scheduler_evaluations"]
        out["evolutionary_cache_hits"] = evolutionary["cache_hits"]
    if random_search is not None:
        out["random_convergence"] = random_search["convergence"]
        out["random_latency_ms"] = random_search["latency_ms"]
    if evolutionary is not None and random_search is not None:
        out["evolutionary_vs_random_speedup"] = (
            random_search["latency_ms"] / evolutionary["latency_ms"]
        )
    return out


def format_fig10(result: Dict[str, object]) -> str:
    """Summarise the convergence curves and the strategy comparison."""
    lines = [
        f"configuration: {result['config']}  ({result['generations']} generations x "
        f"{result['population_size']} candidates, budget "
        f"{result['evaluation_budget']} evaluations/strategy)",
    ]
    per_strategy: Dict[str, Dict[str, object]] = result["strategies"]
    for name, stats in per_strategy.items():
        conv = stats["convergence"]
        lines.append(
            f"{name:12s} best fitness per generation: "
            + " ".join(f"{v * 1e3:.2f}" for v in conv[:20])
            + (" ..." if len(conv) > 20 else "")
        )
    lines.append(
        "final latency — "
        + ", ".join(
            f"{name}: {stats['latency_ms']:.2f} ms" for name, stats in per_strategy.items()
        )
    )
    if "evolutionary_vs_random_speedup" in result:
        lines.append(
            f"evolutionary vs random: {result['evolutionary_vs_random_speedup']:.2f}x"
        )
    return "\n".join(lines)
