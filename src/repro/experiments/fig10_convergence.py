"""Figure 10: NMP search convergence and evolutionary vs random search.

(a) the best fitness per generation of the evolutionary search on the mixed
SNN-ANN configuration, showing latency and accuracy degradation being
minimised simultaneously; (b) the latency of the configuration found by the
evolutionary search versus random sampling of the same number of candidates
(the paper reports the evolutionary result is 1.42x faster).

Both searches run through ONE :class:`~repro.core.nmp.search.MapperEngine`
and therefore one shared fitness evaluator, evolutionary first, and each
requests ``generations x population_size`` evaluations.  Each run draws a
fresh RNG from the seed and the fitness cache is value-preserving, so the
order moves only how the random run's evaluations split between the
scheduler and the cache, never a result.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.nmp.search import (
    EvolutionaryStrategy,
    MapperEngine,
    NMPConfig,
    RandomSearchStrategy,
)
from ..hw.jetson import jetson_xavier_agx
from ..hw.pe import Platform
from ..hw.profiler import LayerCostTable
from ..models.zoo import build_network
from ..nn.graph import MultiTaskGraph, TaskSpec
from .common import ExperimentSettings
from .fig9_multi_task import MULTI_TASK_CONFIGS

__all__ = ["run_fig10", "format_fig10"]


def run_fig10(
    settings: ExperimentSettings = ExperimentSettings(),
    platform: Optional[Platform] = None,
    config_name: str = "mixed_snn_ann",
    nmp_config: Optional[NMPConfig] = None,
) -> Dict[str, object]:
    """Run the evolutionary search, then random search, on one engine."""
    platform = platform or jetson_xavier_agx()
    networks = MULTI_TASK_CONFIGS[config_name]
    graph = MultiTaskGraph(
        [TaskSpec(build_network(name, *settings.network_resolution)) for name in networks]
    )
    nmp_config = nmp_config or NMPConfig(population_size=20, generations=15, seed=settings.seed)
    engine = MapperEngine(graph, platform, LayerCostTable(), nmp_config)

    per_strategy: Dict[str, Dict[str, object]] = {}
    for strategy in (EvolutionaryStrategy(), RandomSearchStrategy()):
        result = engine.run(strategy)
        per_strategy[strategy.name] = {
            "convergence": result.convergence,
            "latency_ms": result.best_latency * 1e3,
            "fitness": result.best_breakdown.fitness,
            "requested_evaluations": result.requested_evaluations,
            "scheduler_evaluations": result.evaluations,
            "cache_hits": result.cache_hits,
            "generations_run": len(result.history),
            "best_key": result.best_candidate.key(),
        }

    evolutionary = per_strategy["evolutionary"]
    random_search = per_strategy["random"]
    return {
        "config": config_name,
        "generations": nmp_config.generations,
        "population_size": nmp_config.population_size,
        "evaluation_budget": nmp_config.generations * nmp_config.population_size,
        "strategies": per_strategy,
        "evolutionary_convergence": evolutionary["convergence"],
        "evolutionary_latency_ms": evolutionary["latency_ms"],
        "evolutionary_evaluations": evolutionary["scheduler_evaluations"],
        "evolutionary_cache_hits": evolutionary["cache_hits"],
        "random_convergence": random_search["convergence"],
        "random_latency_ms": random_search["latency_ms"],
        "evolutionary_vs_random_speedup": (
            random_search["latency_ms"] / evolutionary["latency_ms"]
        ),
    }


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
    lines.append(
        f"evolutionary vs random: {result['evolutionary_vs_random_speedup']:.2f}x"
    )
    return "\n".join(lines)
