"""Small statistical helpers shared by the experiment harnesses."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["geometric_mean"]


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (the conventional way to average speedups)."""
    values = np.asarray(list(values), dtype=np.float64)
    if values.size == 0:
        return float("nan")
    if np.any(values <= 0):
        raise ValueError("geometric mean requires strictly positive values")
    return float(np.exp(np.mean(np.log(values))))
