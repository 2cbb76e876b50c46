"""Figure 9: multi-task latency of NMP vs round-robin scheduling.

The paper evaluates three concurrent-execution configurations — all-ANN
(EV-FlowNet + E2Depth), all-SNN (DOTIE + Adaptive-SpikeNet) and a mixed
SNN-ANN set (Fusion-FlowNet + HALSIE + DOTIE + E2Depth) — and compares the
Network Mapper against RR-Network and RR-Layer round-robin policies, plus the
full-precision-only variant Ev-Edge-NMP-FP.  Reported results: NMP is
1.43x-1.81x faster than RR-Network, 1.24x-1.41x faster than RR-Layer, and
NMP-FP is 1.05x-1.22x slower than NMP but still ahead of both baselines.

Per configuration ONE :class:`~repro.core.nmp.search.MapperEngine` (and
therefore one fitness evaluator, fitness cache and flattened schedule) runs
both the mixed-precision and the FP-only search, and the round-robin
baselines are evaluated through the same evaluator — so their fitness is
already cached when they re-enter the searches as warm-start seeds.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from ..core.nmp.candidate import MappingCandidate
from ..core.nmp.search import EvolutionaryStrategy, MapperEngine, NMPConfig
from ..hw.jetson import DLA_NAME, GPU_NAME, jetson_xavier_agx
from ..hw.pe import Platform
from ..hw.profiler import LayerCostTable
from ..models.zoo import build_network
from ..nn.graph import MultiTaskGraph, TaskSpec
from ..nn.quantization import Precision
from ..runtime.schedulers import rr_layer_mapping, rr_network_mapping
from .common import ExperimentSettings, format_table

__all__ = ["MULTI_TASK_CONFIGS", "run_fig9", "format_fig9"]

# The three concurrent-execution scenarios of the paper.
MULTI_TASK_CONFIGS = {
    "all_ann": ["evflownet", "e2depth"],
    "all_snn": ["dotie", "adaptive_spikenet"],
    "mixed_snn_ann": ["fusionflownet", "halsie", "dotie", "e2depth"],
}


def _build_graph(networks: List[str], settings: ExperimentSettings) -> MultiTaskGraph:
    tasks = [
        TaskSpec(build_network(name, *settings.network_resolution)) for name in networks
    ]
    return MultiTaskGraph(tasks)


def run_fig9(
    settings: ExperimentSettings = ExperimentSettings(),
    configs: Optional[Dict[str, List[str]]] = None,
    platform: Optional[Platform] = None,
    nmp_config: Optional[NMPConfig] = None,
) -> List[Dict[str, object]]:
    """Latency of NMP, NMP-FP, RR-Network and RR-Layer per configuration."""
    platform = platform or jetson_xavier_agx()
    configs = configs or MULTI_TASK_CONFIGS
    nmp_config = nmp_config or NMPConfig(population_size=20, generations=12, seed=settings.seed)
    rows: List[Dict[str, object]] = []
    for config_name, networks in configs.items():
        graph = _build_graph(networks, settings)
        engine = MapperEngine(graph, platform, LayerCostTable(), config=nmp_config)

        # Round-robin baselines cycle over the devices TensorRT deploys
        # networks on (GPU + DLA) at the Jetson's default FP16 precision.
        rr_devices = [name for name in (GPU_NAME, DLA_NAME) if name in platform]
        rr_network_candidate = rr_network_mapping(
            graph, platform, precision=Precision.FP16, devices=rr_devices
        )
        rr_layer_candidate = rr_layer_mapping(
            graph, platform, precision=Precision.FP16, devices=rr_devices
        )
        # Evaluating the baselines through the shared evaluator caches their
        # fitness, so the searches' warm starts below are free cache hits.
        rr_network_latency = engine.evaluator.evaluate(rr_network_candidate).max_task_latency
        rr_layer_latency = engine.evaluator.evaluate(rr_layer_candidate).max_task_latency

        gpu = platform.gpu()
        fp_seeds = [
            MappingCandidate.uniform(graph, gpu.name, Precision.FP32),
            rr_network_candidate,
            rr_layer_candidate,
        ]
        mixed_seeds = fp_seeds + [
            MappingCandidate.uniform(graph, gpu.name, Precision.FP16),
            MappingCandidate.uniform(graph, gpu.name, Precision.INT8),
        ]
        nmp = engine.run(EvolutionaryStrategy(), initial_candidates=mixed_seeds)
        nmp_fp = engine.run(
            EvolutionaryStrategy(),
            initial_candidates=fp_seeds,
            config=replace(nmp_config, full_precision_only=True),
        )

        nmp_latency = nmp.best_latency
        nmp_fp_latency = nmp_fp.best_latency
        rows.append(
            {
                "config": config_name,
                "networks": "+".join(networks),
                "nmp_latency_ms": nmp_latency * 1e3,
                "nmp_fp_latency_ms": nmp_fp_latency * 1e3,
                "rr_network_latency_ms": rr_network_latency * 1e3,
                "rr_layer_latency_ms": rr_layer_latency * 1e3,
                "speedup_vs_rr_network": rr_network_latency / nmp_latency,
                "speedup_vs_rr_layer": rr_layer_latency / nmp_latency,
                "nmp_fp_slowdown": nmp_fp_latency / nmp_latency,
            }
        )
    return rows


def format_fig9(rows: List[Dict[str, object]]) -> str:
    """Render the multi-task comparison table."""
    return format_table(
        rows,
        [
            "config",
            "nmp_latency_ms",
            "nmp_fp_latency_ms",
            "rr_layer_latency_ms",
            "rr_network_latency_ms",
            "speedup_vs_rr_layer",
            "speedup_vs_rr_network",
            "nmp_fp_slowdown",
        ],
    )
