"""Depth estimation metrics."""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["average_depth_error"]


def _validate(predicted: np.ndarray, ground_truth: np.ndarray, mask: Optional[np.ndarray]):
    predicted = np.asarray(predicted, dtype=np.float64)
    ground_truth = np.asarray(ground_truth, dtype=np.float64)
    if predicted.shape != ground_truth.shape:
        raise ValueError("prediction and ground truth must have the same shape")
    valid = np.isfinite(predicted) & np.isfinite(ground_truth) & (ground_truth > 0) & (predicted > 0)
    if mask is not None:
        valid &= np.asarray(mask, dtype=bool)
    return predicted, ground_truth, valid


def average_depth_error(
    predicted: np.ndarray,
    ground_truth: np.ndarray,
    mask: Optional[np.ndarray] = None,
) -> float:
    """Mean absolute log-depth error (the "Avg Error" style metric of E2Depth).

    Computed as ``mean(|log(pred) - log(gt)|)`` over valid pixels; returns
    ``nan`` when no pixel is valid.
    """
    predicted, ground_truth, valid = _validate(predicted, ground_truth, mask)
    if not valid.any():
        return float("nan")
    return float(np.mean(np.abs(np.log(predicted[valid]) - np.log(ground_truth[valid]))))
