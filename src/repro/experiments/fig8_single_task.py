"""Figure 8 (+ energy results): single-task speedup over the all-GPU baseline.

For every network of Table 1, the harness runs the integrated pipeline on the
task's dataset stand-in at four optimization levels — the all-GPU dense
baseline, +E2SF, +E2SF+DSFA and full Ev-Edge (+NMP, which for a single task
searches over layer placement and precision) — and reports the latency and
energy improvements of each level over the baseline.

The paper reports 1.28x-2.05x latency and 1.23x-2.15x energy improvements for
the full configuration, with SNN-heavy networks gaining the most.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.config import EvEdgeConfig, OptimizationLevel
from ..core.dsfa import DSFAConfig
from ..core.nmp.search import EvolutionaryStrategy, MapperEngine, NMPConfig
from ..core.pipeline import EvEdgePipeline
from ..events.datasets import generate_sequence
from ..hw.jetson import jetson_xavier_agx
from ..hw.pe import Platform
from ..hw.profiler import PlatformProfiler
from ..models.zoo import build_network
from ..nn.graph import MultiTaskGraph, TaskSpec
from .common import ExperimentSettings, format_table

__all__ = ["NETWORK_SEQUENCES", "run_fig8", "format_fig8"]

# Dataset stand-in used for each network's task (paper Section 5).
NETWORK_SEQUENCES = {
    "spikeflownet": "indoor_flying1",
    "fusionflownet": "indoor_flying1",
    "adaptive_spikenet": "indoor_flying1",
    "halsie": "indoor_flying2",
    "e2depth": "town10",
    "dotie": "high_speed_disk",
}


def _single_task_nmp_mapping(network, platform: Platform, settings: ExperimentSettings):
    """Run a small single-task NMP search (latency objective only).

    The population is warm-started with the all-GPU mapping at every
    precision so the search result is never worse than simply lowering the
    precision of the baseline.
    """
    from ..core.nmp.candidate import MappingCandidate
    from ..nn.quantization import Precision

    graph = MultiTaskGraph([TaskSpec(network)])
    profile = PlatformProfiler(platform).profile(graph)
    gpu = platform.gpu()
    seeds = [
        MappingCandidate.uniform(graph, gpu.name, precision)
        for precision in Precision.ordered()
        if gpu.supports_precision(precision)
    ]
    engine = MapperEngine(
        graph,
        platform,
        profile,
        NMPConfig(population_size=16, generations=10, seed=settings.seed),
    )
    return engine.run(EvolutionaryStrategy(), initial_candidates=seeds).best_candidate


def run_fig8(
    settings: ExperimentSettings = ExperimentSettings(),
    networks: Optional[List[str]] = None,
    platform: Optional[Platform] = None,
) -> List[Dict[str, object]]:
    """Latency/energy of every optimization level for every network."""
    platform = platform or jetson_xavier_agx()
    networks = networks or list(NETWORK_SEQUENCES)
    rows: List[Dict[str, object]] = []
    for name in networks:
        network = build_network(name, *settings.network_resolution)
        sequence = generate_sequence(
            NETWORK_SEQUENCES[name],
            scale=settings.scale,
            duration=settings.duration,
            seed=settings.seed,
        )
        # Semantic segmentation limits merge aggressiveness (pixel-accurate
        # output), reflected in a tighter density threshold.
        dsfa = DSFAConfig(
            event_buffer_size=8,
            merge_bucket_size=4,
            max_time_delay=0.05,
            max_density_change=0.1 if network.task == "semantic_segmentation" else 0.5,
            inference_queue_depth=2,
        )
        nmp_mapping = _single_task_nmp_mapping(network, platform, settings)
        levels = {
            OptimizationLevel.BASELINE: None,
            OptimizationLevel.E2SF: None,
            OptimizationLevel.E2SF_DSFA: None,
            OptimizationLevel.FULL: nmp_mapping,
        }
        reports = {}
        for level, mapping in levels.items():
            config = EvEdgeConfig(num_bins=settings.num_bins, dsfa=dsfa, optimization=level)
            # Profile-mode costing: every level (baseline included) is costed
            # on propagated per-layer occupancies, so the reported ratios
            # compare like with like.
            pipeline = EvEdgePipeline(
                network, platform, config, mapping=mapping, cost_mode="profile"
            )
            reports[level] = pipeline.run(sequence)
        base = reports[OptimizationLevel.BASELINE]
        row: Dict[str, object] = {
            "network": name,
            "type": network.network_type,
            "sequence": NETWORK_SEQUENCES[name],
            "cost_mode": base.cost_mode,
            "baseline_latency_ms": base.mean_latency * 1e3,
            "baseline_energy_j": base.total_energy,
        }
        for level in (OptimizationLevel.E2SF, OptimizationLevel.E2SF_DSFA, OptimizationLevel.FULL):
            report = reports[level]
            label = level.value.replace("+", "_")
            row[f"speedup_{label}"] = (
                base.mean_latency / report.mean_latency if report.mean_latency > 0 else float("inf")
            )
            row[f"energy_gain_{label}"] = (
                base.total_energy / report.total_energy if report.total_energy > 0 else float("inf")
            )
        row["ev_edge_speedup"] = row["speedup_e2sf_dsfa_nmp"]
        row["ev_edge_energy_gain"] = row["energy_gain_e2sf_dsfa_nmp"]
        rows.append(row)
    return rows


def format_fig8(rows: List[Dict[str, object]]) -> str:
    """Render the single-task speedup table."""
    return format_table(
        rows,
        [
            "network",
            "type",
            "baseline_latency_ms",
            "speedup_e2sf",
            "speedup_e2sf_dsfa",
            "ev_edge_speedup",
            "ev_edge_energy_gain",
        ],
    )
