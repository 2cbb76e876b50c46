"""Optical flow metrics (AEE)."""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["average_endpoint_error"]


def average_endpoint_error(
    predicted: np.ndarray,
    ground_truth: np.ndarray,
    mask: Optional[np.ndarray] = None,
) -> float:
    """Average endpoint error between ``(2, H, W)`` flow fields.

    The AEE is the mean Euclidean distance between the predicted and true
    flow vectors, evaluated over ``mask`` (typically the pixels where events
    occurred, matching the evaluation protocol of the event-flow papers).
    Returns ``nan`` if the mask is empty.
    """
    predicted = np.asarray(predicted, dtype=np.float64)
    ground_truth = np.asarray(ground_truth, dtype=np.float64)
    if predicted.shape != ground_truth.shape or predicted.ndim != 3 or predicted.shape[0] != 2:
        raise ValueError("flow fields must both have shape (2, H, W)")
    error = np.sqrt(
        (predicted[0] - ground_truth[0]) ** 2 + (predicted[1] - ground_truth[1]) ** 2
    )
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != error.shape:
            raise ValueError("mask shape must match the flow spatial shape")
        if not mask.any():
            return float("nan")
        error = error[mask]
    return float(error.mean())
