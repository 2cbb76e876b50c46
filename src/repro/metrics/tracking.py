"""Object tracking metric: bounding-box IoU."""

from __future__ import annotations

from typing import Optional, Tuple

__all__ = ["box_iou"]


def box_iou(
    box_a: Optional[Tuple[int, int, int, int]],
    box_b: Optional[Tuple[int, int, int, int]],
) -> float:
    """Intersection-over-union of two ``(x0, y0, x1, y1)`` boxes.

    Returns 0 if either box is ``None`` or degenerate.
    """
    if box_a is None or box_b is None:
        return 0.0
    ax0, ay0, ax1, ay1 = box_a
    bx0, by0, bx1, by1 = box_b
    if ax1 <= ax0 or ay1 <= ay0 or bx1 <= bx0 or by1 <= by0:
        return 0.0
    ix0, iy0 = max(ax0, bx0), max(ay0, by0)
    ix1, iy1 = min(ax1, bx1), min(ay1, by1)
    inter = max(ix1 - ix0, 0) * max(iy1 - iy0, 0)
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    if union <= 0:
        return 0.0
    return float(inter / union)
