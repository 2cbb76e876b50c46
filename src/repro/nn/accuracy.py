"""Task accuracy evaluation under mixed precision and frame aggregation.

The Network Mapper's fitness function (paper Equation 2) constrains the
accuracy degradation of every task.  The paper measures that degradation by
linearly quantizing the pretrained network per the candidate's layer
bit-widths and evaluating on a sampled subset of the validation set.

This module reproduces that protocol with the surrogate estimators: a
:class:`TaskAccuracyEvaluator` owns a small validation set of synthetic
intervals (event bins + ground truth), evaluates a surrogate with a given
per-stage precision assignment and aggregation level, and reports both the
raw metric and the normalised degradation used by NMP.  Results are cached,
mirroring the paper's fitness-score caching optimisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..events.datasets import generate_sequence
from ..frames.dense import discretized_event_bins
from ..metrics import (
    average_depth_error,
    average_endpoint_error,
    box_iou,
    mean_iou,
)
from .quantization import Precision
from .surrogate import (
    DepthSurrogate,
    FlowSurrogate,
    SegmentationSurrogate,
    TrackingSurrogate,
)

__all__ = ["TaskSample", "TaskAccuracyEvaluator", "map_layer_precisions_to_stages"]

_TASK_SEQUENCE = {
    "optical_flow": "indoor_flying1",
    "semantic_segmentation": "indoor_flying2",
    "depth_estimation": "town10",
    "object_tracking": "high_speed_disk",
}

_LOWER_IS_BETTER = {
    "optical_flow": True,
    "semantic_segmentation": False,
    "depth_estimation": True,
    "object_tracking": False,
}


@dataclass
class TaskSample:
    """One validation sample: binned events plus the matching ground truth."""

    bins: np.ndarray
    flow: np.ndarray
    depth: np.ndarray
    segmentation: np.ndarray


def map_layer_precisions_to_stages(
    layer_precisions: Sequence[Precision], num_stages: int
) -> List[Precision]:
    """Collapse a per-layer precision assignment onto surrogate stages.

    The real networks have many layers; the surrogates have a handful of
    stages.  Layers are partitioned into ``num_stages`` contiguous groups and
    each group contributes its *lowest* precision (the most aggressive
    quantization dominates the error of that part of the network).
    """
    layer_precisions = list(layer_precisions)
    if not layer_precisions:
        return [Precision.FP32] * num_stages
    groups = np.array_split(np.arange(len(layer_precisions)), num_stages)
    stage_precisions = []
    for group in groups:
        if group.size == 0:
            stage_precisions.append(Precision.FP32)
            continue
        members = [layer_precisions[i] for i in group]
        stage_precisions.append(min(members, key=lambda p: p.bits))
    return stage_precisions


class TaskAccuracyEvaluator:
    """Measure surrogate accuracy for a task under precision / aggregation choices.

    Parameters
    ----------
    task:
        One of ``optical_flow``, ``semantic_segmentation``,
        ``depth_estimation``, ``object_tracking``.
    num_bins:
        Event bins per frame interval fed to the surrogate at baseline.
    scale:
        Spatial scale of the generated validation sequence (kept small so
        evaluation inside the NMP search loop stays fast).
    num_intervals:
        Number of validation intervals to keep.
    seed:
        RNG seed for sequence generation and subset sampling.
    """

    def __init__(
        self,
        task: str,
        num_bins: int = 8,
        scale: float = 0.2,
        num_intervals: int = 6,
        seed: int = 0,
    ) -> None:
        if task not in _TASK_SEQUENCE:
            raise KeyError(f"unknown task '{task}'")
        if num_bins < 1:
            raise ValueError("num_bins must be >= 1")
        self.task = task
        self.num_bins = num_bins
        self.scale = scale
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._samples = self._build_samples(num_intervals)
        self._cache: Dict[Tuple, float] = {}
        self._baseline: Optional[float] = None

    # ------------------------------------------------------------------
    # validation set construction
    # ------------------------------------------------------------------
    def _build_samples(self, num_intervals: int) -> List[TaskSample]:
        sequence = generate_sequence(
            _TASK_SEQUENCE[self.task], scale=self.scale, seed=self.seed
        )
        samples: List[TaskSample] = []
        count = min(num_intervals, sequence.num_intervals)
        for i in range(count):
            t0 = sequence.frames[i].timestamp
            t1 = sequence.frames[i + 1].timestamp
            bins = discretized_event_bins(sequence.events, t0, t1, self.num_bins)
            gt = sequence.ground_truth[i]
            samples.append(
                TaskSample(
                    bins=bins,
                    flow=gt.flow,
                    depth=gt.depth,
                    segmentation=gt.segmentation,
                )
            )
        if not samples:
            raise RuntimeError("validation sequence produced no intervals")
        return samples

    @property
    def lower_is_better(self) -> bool:
        """True when a smaller metric value means higher accuracy."""
        return _LOWER_IS_BETTER[self.task]

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _aggregate_bins(self, bins: np.ndarray, merge_factor: int) -> np.ndarray:
        """Merge (cAdd) groups of ``merge_factor`` consecutive bins."""
        if merge_factor <= 1:
            return bins
        num_bins = bins.shape[0]
        groups = [
            bins[i : i + merge_factor].sum(axis=0)
            for i in range(0, num_bins, merge_factor)
        ]
        return np.stack(groups, axis=0)

    def _score_sample(
        self,
        sample: TaskSample,
        stage_precisions: Sequence[Precision],
        merge_factor: int,
    ) -> float:
        bins = self._aggregate_bins(sample.bins, merge_factor)
        if self.task == "optical_flow":
            result = FlowSurrogate().predict(bins, stage_precisions)
            return average_endpoint_error(result.prediction, sample.flow, result.valid_mask)
        if self.task == "semantic_segmentation":
            result = SegmentationSurrogate().predict(bins, stage_precisions)
            return mean_iou(result.prediction, (sample.segmentation > 0).astype(np.int32), 2)
        if self.task == "depth_estimation":
            result = DepthSurrogate().predict(
                bins, stage_precisions, reference_depth=sample.depth
            )
            return average_depth_error(result.prediction, sample.depth, result.valid_mask)
        surrogate = TrackingSurrogate()
        result = surrogate.predict(bins, stage_precisions)
        predicted_box = TrackingSurrogate.bounding_box(result.prediction)
        truth_box = TrackingSurrogate.bounding_box(sample.segmentation > 0)
        return box_iou(predicted_box, truth_box)

    def evaluate(
        self,
        stage_precisions: Optional[Sequence[Precision]] = None,
        merge_factor: int = 1,
        subset: Optional[int] = None,
    ) -> float:
        """Return the task metric for the given configuration.

        ``subset`` evaluates only a random sample of the validation
        intervals, the paper's complexity-reduction trick for the search.
        Results are cached per configuration.
        """
        stage_precisions = tuple(stage_precisions or ())
        key = (stage_precisions, merge_factor, subset)
        if key in self._cache:
            return self._cache[key]
        samples = self._samples
        if subset is not None and subset < len(samples):
            idx = self._rng.choice(len(samples), size=subset, replace=False)
            samples = [self._samples[i] for i in idx]
        precisions = list(stage_precisions) if stage_precisions else None
        scores = [
            self._score_sample(s, precisions, merge_factor) for s in samples
        ]
        scores = [s for s in scores if np.isfinite(s)]
        value = float(np.mean(scores)) if scores else float("nan")
        self._cache[key] = value
        return value

    def baseline(self) -> float:
        """Full-precision, no-aggregation accuracy (the paper's 'Baseline' column)."""
        if self._baseline is None:
            self._baseline = self.evaluate()
        return self._baseline

    def degradation(
        self,
        stage_precisions: Optional[Sequence[Precision]] = None,
        merge_factor: int = 1,
        subset: Optional[int] = None,
    ) -> float:
        """Normalised accuracy degradation vs. the full-precision baseline.

        Defined as ``|acc_base - acc_search| / |acc_base|`` (Equation 2's
        ``delta A_n``), clipped at 0 when the configuration happens to do
        better than the baseline.
        """
        base = self.baseline()
        value = self.evaluate(stage_precisions, merge_factor, subset)
        if not np.isfinite(base) or not np.isfinite(value) or base == 0:
            return 0.0
        if self.lower_is_better:
            delta = value - base
        else:
            delta = base - value
        return max(float(delta / abs(base)), 0.0)
