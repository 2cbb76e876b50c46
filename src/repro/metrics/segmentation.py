"""Semantic segmentation metrics (mIOU)."""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["confusion_matrix", "mean_iou"]


def confusion_matrix(
    predicted: np.ndarray, ground_truth: np.ndarray, num_classes: Optional[int] = None
) -> np.ndarray:
    """Return the ``(num_classes, num_classes)`` confusion matrix.

    Entry ``[i, j]`` counts pixels with ground-truth class ``i`` predicted as
    class ``j``.
    """
    predicted = np.asarray(predicted).astype(np.int64).ravel()
    ground_truth = np.asarray(ground_truth).astype(np.int64).ravel()
    if predicted.shape != ground_truth.shape:
        raise ValueError("prediction and ground truth must have the same size")
    if predicted.size and (predicted.min() < 0 or ground_truth.min() < 0):
        raise ValueError("class labels must be non-negative")
    if num_classes is None:
        num_classes = int(max(predicted.max(initial=0), ground_truth.max(initial=0))) + 1
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(matrix, (ground_truth, predicted), 1)
    return matrix


def mean_iou(
    predicted: np.ndarray, ground_truth: np.ndarray, num_classes: Optional[int] = None
) -> float:
    """Mean intersection-over-union over the classes present in the ground truth.

    Returned as a percentage (0-100) to match the paper's Table 2 convention
    (e.g. HALSIE mIOU 66.31).
    """
    matrix = confusion_matrix(predicted, ground_truth, num_classes)
    intersection = np.diag(matrix).astype(np.float64)
    union = matrix.sum(axis=0) + matrix.sum(axis=1) - np.diag(matrix)
    present = matrix.sum(axis=1) > 0
    if not present.any():
        return float("nan")
    iou = intersection[present] / np.maximum(union[present], 1)
    return float(iou.mean() * 100.0)
