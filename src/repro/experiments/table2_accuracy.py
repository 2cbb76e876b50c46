"""Table 2: task accuracy of the baseline versus Ev-Edge.

The paper's Table 2 lists, per network, the task metric of the full-precision
baseline and of the Ev-Edge configuration (DSFA merging + the precision mix
chosen by NMP), showing only minimal degradation.  The reproduction measures
the same two columns with the surrogate estimators: the baseline runs at full
precision on unmerged bins; the Ev-Edge configuration quantizes the surrogate
stages to a representative NMP precision mix and merges bins per DSFA.

Absolute metric values differ from the paper (different networks, synthetic
data — see the README's "Substitutions" section), but the *pattern* — small
degradations in the direction the paper reports — is what the table checks.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..nn.accuracy import TaskAccuracyEvaluator
from ..nn.quantization import Precision
from .common import ExperimentSettings, format_table

__all__ = ["TABLE2_NETWORKS", "PAPER_TABLE2", "run_table2", "format_table2"]

# network -> (task, metric name, lower_is_better)
TABLE2_NETWORKS = {
    "spikeflownet": ("optical_flow", "AEE", True),
    "fusionflownet": ("optical_flow", "AEE", True),
    "adaptive_spikenet": ("optical_flow", "AEE", True),
    "halsie": ("semantic_segmentation", "mIOU", False),
    "e2depth": ("depth_estimation", "AvgError", True),
    "dotie": ("object_tracking", "IoU", False),
}

# Paper Table 2 reference values: (baseline, ev_edge).
PAPER_TABLE2 = {
    "spikeflownet": (0.93, 0.96),
    "fusionflownet": (0.72, 0.79),
    "adaptive_spikenet": (1.27, 1.36),
    "halsie": (66.31, 64.18),
    "e2depth": (0.61, 0.63),
    "dotie": (0.86, 0.82),
}

# A representative Ev-Edge configuration: NMP chooses reduced precision for
# the middle/late stages and DSFA merges pairs of bins.
_EV_EDGE_STAGE_PRECISIONS = {
    "optical_flow": [Precision.FP16, Precision.INT8, Precision.FP16],
    "semantic_segmentation": [Precision.FP16, Precision.INT8, Precision.INT8],
    "depth_estimation": [Precision.FP16, Precision.INT8, Precision.FP16],
    "object_tracking": [Precision.INT8, Precision.INT8],
}
_EV_EDGE_MERGE_FACTOR = 2


def run_table2(
    settings: ExperimentSettings = ExperimentSettings(),
    networks: Optional[List[str]] = None,
) -> List[Dict[str, object]]:
    """Baseline vs Ev-Edge accuracy per network."""
    networks = networks or list(TABLE2_NETWORKS)
    evaluators: Dict[str, TaskAccuracyEvaluator] = {}
    rows: List[Dict[str, object]] = []
    for name in networks:
        task, metric, lower_is_better = TABLE2_NETWORKS[name]
        if task not in evaluators:
            evaluators[task] = TaskAccuracyEvaluator(
                task, scale=max(settings.scale, 0.15), num_intervals=4, seed=settings.seed
            )
        evaluator = evaluators[task]
        baseline = evaluator.baseline()
        ev_edge = evaluator.evaluate(
            _EV_EDGE_STAGE_PRECISIONS[task], merge_factor=_EV_EDGE_MERGE_FACTOR
        )
        paper_baseline, paper_ev_edge = PAPER_TABLE2[name]
        rows.append(
            {
                "network": name,
                "metric": metric,
                "lower_is_better": lower_is_better,
                "baseline": baseline,
                "ev_edge": ev_edge,
                "degradation": evaluator.degradation(
                    _EV_EDGE_STAGE_PRECISIONS[task], merge_factor=_EV_EDGE_MERGE_FACTOR
                ),
                "paper_baseline": paper_baseline,
                "paper_ev_edge": paper_ev_edge,
            }
        )
    return rows


def format_table2(rows: List[Dict[str, object]]) -> str:
    """Render the accuracy comparison table."""
    return format_table(
        rows,
        [
            "network",
            "metric",
            "baseline",
            "ev_edge",
            "degradation",
            "paper_baseline",
            "paper_ev_edge",
        ],
    )
