"""Surrogate event-vision algorithms used for accuracy experiments.

The paper evaluates accuracy of six pretrained networks (Table 2).  Those
pretrained weights are not available offline, so the reproduction uses
*surrogate algorithms*: real (not mocked) event-based estimators for each
task, operating on the same binned/sparse event representations, whose
accuracy genuinely degrades when

* intermediate tensors are quantized to lower precision (the NMP precision
  search), and
* event frames are merged more aggressively (the DSFA granularity trade-off).

Each surrogate exposes named *stages*; the per-stage precision list plays the
role of the per-layer precision assignment of the real networks.  Ground
truth comes from the synthetic scene generators, so the reported AEE / mIOU /
average depth error are measured, not modelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .quantization import Precision, fake_quantize

__all__ = [
    "SurrogateResult",
    "FlowSurrogate",
    "SegmentationSurrogate",
    "DepthSurrogate",
    "TrackingSurrogate",
]


@dataclass
class SurrogateResult:
    """Prediction plus the per-pixel validity mask used for scoring."""

    prediction: np.ndarray
    valid_mask: np.ndarray


def _resolve_precisions(
    stages: Sequence[str], precisions: Optional[Sequence[Precision]]
) -> List[Precision]:
    if precisions is None:
        return [Precision.FP32] * len(stages)
    precisions = list(precisions)
    if len(precisions) != len(stages):
        raise ValueError(
            f"expected {len(stages)} stage precisions, got {len(precisions)}"
        )
    return precisions


def _box_filter(image: np.ndarray, radius: int) -> np.ndarray:
    """Separable box blur via cumulative sums (no scipy dependency needed)."""
    if radius <= 0:
        return image.copy()
    h, w = image.shape
    padded = np.pad(image, radius, mode="edge")
    csum = np.cumsum(np.cumsum(padded, axis=0), axis=1)
    csum = np.pad(csum, ((1, 0), (1, 0)))
    size = 2 * radius + 1
    out = (
        csum[size:, size:]
        - csum[:-size, size:]
        - csum[size:, :-size]
        + csum[:-size, :-size]
    )
    return out[: h, : w] / (size * size)


class FlowSurrogate:
    """Block-centroid optical flow from discretized event bins.

    The estimator splits the event bins of one frame interval into an early
    and a late half, computes the event-count-weighted centroid of each
    spatial block in both halves, and reports their displacement (scaled to
    the full interval) as the block's flow.  More bins give finer temporal
    localisation and therefore lower error; merging bins (DSFA) or quantizing
    the accumulation planes raises the error — the trade-offs the paper's
    Table 2 quantifies.
    """

    stages = ("accumulate", "centroid", "refine")

    def __init__(self, block_size: int = 8) -> None:
        if block_size < 2:
            raise ValueError("block_size must be >= 2")
        self.block_size = block_size

    def predict(
        self,
        bins: np.ndarray,
        precisions: Optional[Sequence[Precision]] = None,
    ) -> SurrogateResult:
        """Estimate flow from ``(B, 2, H, W)`` event bins.

        Returns a ``(2, H, W)`` flow field (pixels per interval) valid where
        events occurred.
        """
        precisions = _resolve_precisions(self.stages, precisions)
        bins = np.asarray(bins, dtype=np.float64)
        if bins.ndim != 4 or bins.shape[1] != 2:
            raise ValueError("expected (B, 2, H, W) event bins")
        num_bins, _, h, w = bins.shape
        counts = bins.sum(axis=1)  # (B, H, W) events per bin regardless of polarity
        counts = fake_quantize(counts, precisions[0])

        half = max(num_bins // 2, 1)
        early = counts[:half].sum(axis=0)
        late = counts[half:].sum(axis=0) if num_bins > 1 else early
        early = fake_quantize(early, precisions[1])
        late = fake_quantize(late, precisions[1])

        bs = self.block_size
        flow = np.zeros((2, h, w), dtype=np.float64)
        valid = np.zeros((h, w), dtype=bool)
        yy, xx = np.mgrid[0:h, 0:w]
        # Temporal separation between the two half-interval centroids, as a
        # fraction of the interval: centroids sit at 1/4 and 3/4.
        separation = 0.5 if num_bins > 1 else 1.0
        for by in range(0, h, bs):
            for bx in range(0, w, bs):
                sl = (slice(by, by + bs), slice(bx, bx + bs))
                e_mass = early[sl].sum()
                l_mass = late[sl].sum()
                if e_mass <= 0 or l_mass <= 0:
                    continue
                ex = (early[sl] * xx[sl]).sum() / e_mass
                ey = (early[sl] * yy[sl]).sum() / e_mass
                lx = (late[sl] * xx[sl]).sum() / l_mass
                ly = (late[sl] * yy[sl]).sum() / l_mass
                flow[0][sl] = (lx - ex) / separation
                flow[1][sl] = (ly - ey) / separation
                valid[sl] = (early[sl] + late[sl]) > 0
        flow = fake_quantize(flow, precisions[2])
        return SurrogateResult(prediction=flow, valid_mask=valid)


class SegmentationSurrogate:
    """Foreground/background segmentation from smoothed event density.

    Moving objects generate events; the static background (mostly) does not.
    The surrogate smooths the event-count frame and thresholds it at a
    fraction of its mean to produce a foreground mask, which is scored as a
    two-class mIOU against the ground-truth object masks.
    """

    stages = ("accumulate", "smooth", "threshold")

    def __init__(self, smoothing_radius: int = 3, threshold_scale: float = 1.0) -> None:
        if smoothing_radius < 0:
            raise ValueError("smoothing_radius must be non-negative")
        if threshold_scale <= 0:
            raise ValueError("threshold_scale must be positive")
        self.smoothing_radius = smoothing_radius
        self.threshold_scale = threshold_scale

    def predict(
        self,
        bins: np.ndarray,
        precisions: Optional[Sequence[Precision]] = None,
    ) -> SurrogateResult:
        """Segment ``(B, 2, H, W)`` event bins into a binary foreground mask."""
        precisions = _resolve_precisions(self.stages, precisions)
        bins = np.asarray(bins, dtype=np.float64)
        counts = bins.sum(axis=(0, 1))  # (H, W)
        counts = fake_quantize(counts, precisions[0])
        smooth = _box_filter(counts, self.smoothing_radius)
        smooth = fake_quantize(smooth, precisions[1])
        active_mean = smooth[smooth > 0].mean() if (smooth > 0).any() else 0.0
        threshold = self.threshold_scale * 0.5 * active_mean
        threshold = float(fake_quantize(np.array([threshold]), precisions[2])[0])
        mask = (smooth > threshold).astype(np.int32)
        return SurrogateResult(prediction=mask, valid_mask=np.ones_like(mask, dtype=bool))


class DepthSurrogate:
    """Monocular depth from motion parallax.

    For a translating camera, image motion is inversely proportional to
    depth.  The surrogate reuses :class:`FlowSurrogate` and maps flow
    magnitude to depth with a scale calibrated on the median, reporting the
    average absolute log error on event pixels (the metric style of
    Hidalgo-Carrio et al.).
    """

    stages = ("accumulate", "flow", "invert")

    def __init__(self, block_size: int = 8, min_flow: float = 0.05) -> None:
        self.flow_surrogate = FlowSurrogate(block_size=block_size)
        self.min_flow = min_flow

    def predict(
        self,
        bins: np.ndarray,
        precisions: Optional[Sequence[Precision]] = None,
        reference_depth: Optional[np.ndarray] = None,
    ) -> SurrogateResult:
        """Estimate a depth map from ``(B, 2, H, W)`` event bins."""
        precisions = _resolve_precisions(self.stages, precisions)
        flow_result = self.flow_surrogate.predict(
            bins, precisions=[precisions[0], precisions[1], precisions[1]]
        )
        magnitude = np.sqrt(flow_result.prediction[0] ** 2 + flow_result.prediction[1] ** 2)
        valid = flow_result.valid_mask & (magnitude > self.min_flow)
        depth = np.full(magnitude.shape, np.inf)
        if valid.any():
            scale = 1.0
            if reference_depth is not None:
                finite = valid & np.isfinite(reference_depth)
                if finite.any():
                    scale = float(
                        np.median(reference_depth[finite] * magnitude[finite])
                    )
            depth[valid] = scale / magnitude[valid]
        depth = fake_quantize(np.where(np.isfinite(depth), depth, 0.0), precisions[2])
        depth = np.where(depth > 0, depth, np.inf)
        return SurrogateResult(prediction=depth, valid_mask=valid)


class TrackingSurrogate:
    """DOTIE-style object localisation through temporal isolation of events.

    A single-layer spiking accumulator: per-pixel event counts leak over the
    bins and only pixels whose accumulated activity crosses a threshold
    "spike" (temporal isolation).  The spiking pixels are then spatially
    isolated by keeping the largest connected component, which is summarised
    by a bounding box and scored as IoU against the tightest box around the
    ground-truth moving objects.
    """

    stages = ("integrate", "threshold")

    def __init__(self, leak: float = 0.8, threshold_percentile: float = 60.0) -> None:
        if not 0.0 <= leak <= 1.0:
            raise ValueError("leak must be in [0, 1]")
        if not 0.0 < threshold_percentile < 100.0:
            raise ValueError("threshold_percentile must be in (0, 100)")
        self.leak = leak
        self.threshold_percentile = threshold_percentile

    def predict(
        self,
        bins: np.ndarray,
        precisions: Optional[Sequence[Precision]] = None,
    ) -> SurrogateResult:
        """Return a binary object mask from ``(B, 2, H, W)`` event bins."""
        from scipy import ndimage

        precisions = _resolve_precisions(self.stages, precisions)
        bins = np.asarray(bins, dtype=np.float64)
        num_bins = bins.shape[0]
        membrane = np.zeros(bins.shape[2:], dtype=np.float64)
        for b in range(num_bins):
            membrane = self.leak * membrane + bins[b].sum(axis=0)
            membrane = fake_quantize(membrane, precisions[0])
        # Smooth so the ring of edge events around the object becomes one blob,
        # then threshold relative to the active-pixel distribution.
        smoothed = _box_filter(membrane, 2)
        active = smoothed[smoothed > 0]
        if active.size:
            threshold = float(np.percentile(active, self.threshold_percentile))
        else:
            threshold = 0.0
        threshold = float(fake_quantize(np.array([threshold]), precisions[1])[0])
        mask = (smoothed > threshold).astype(np.int32)
        # Spatial isolation: keep the largest connected blob of spiking pixels.
        labels, count = ndimage.label(mask)
        if count > 1:
            sizes = ndimage.sum_labels(mask, labels, index=np.arange(1, count + 1))
            mask = (labels == (1 + int(np.argmax(sizes)))).astype(np.int32)
        return SurrogateResult(prediction=mask, valid_mask=np.ones_like(mask, dtype=bool))

    @staticmethod
    def bounding_box(mask: np.ndarray) -> Optional[Tuple[int, int, int, int]]:
        """Return ``(x0, y0, x1, y1)`` of the non-zero region, or None."""
        ys, xs = np.nonzero(mask)
        if ys.size == 0:
            return None
        return (int(xs.min()), int(ys.min()), int(xs.max()) + 1, int(ys.max()) + 1)
