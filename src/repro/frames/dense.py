"""Dense event bins: the input representation E2SF avoids building.

State-of-the-art event networks convert raw events into dense image-like
inputs before inference (paper Section 2, Figure 2).  Spike-FlowNet and
Fusion-FlowNet split the events between two grayscale frames into ``nB``
uniformly spaced bins (paper Equation 1):

* :func:`assign_event_bins` maps timestamps to bin indices — the binning
  rule E2SF applies as well;
* :func:`discretized_event_bins` accumulates them into a dense
  ``(nB, 2, H, W)`` tensor, the input of the accuracy surrogates
  (:mod:`repro.nn.accuracy`).
"""

from __future__ import annotations

import numpy as np

from ..events.types import EventStream

__all__ = ["discretized_event_bins", "assign_event_bins"]


def assign_event_bins(
    t: np.ndarray, t_start: float, t_end: float, num_bins: int
) -> np.ndarray:
    """Map event timestamps to bin indices per the paper's Equation 1.

    ``EB_k = floor((t_k - Tstart) / biS)``, clamped so events exactly at
    ``Tend`` fall into the last bin.
    """
    if num_bins < 1:
        raise ValueError("num_bins must be >= 1")
    bis = (t_end - t_start) / num_bins
    if bis <= 0:
        raise ValueError("t_end must be greater than t_start")
    idx = np.floor((np.asarray(t, dtype=np.float64) - t_start) / bis).astype(np.int64)
    return np.clip(idx, 0, num_bins - 1)


def discretized_event_bins(
    stream: EventStream,
    t_start: float,
    t_end: float,
    num_bins: int,
) -> np.ndarray:
    """Discretize events into ``num_bins`` dense two-channel frames.

    Returns a ``(num_bins, 2, H, W)`` tensor — the dense counterpart of what
    E2SF produces sparsely.  This is the representation of Spike-FlowNet /
    Fusion-FlowNet ([7, 11] in the paper).
    """
    window = stream.slice_time(t_start, t_end + 1e-12)
    h, w = stream.geometry.height, stream.geometry.width
    grid = np.zeros((num_bins, 2, h, w), dtype=np.float64)
    if len(window) == 0:
        return grid
    bins = assign_event_bins(window.t, t_start, t_end, num_bins)
    pos = window.p > 0
    np.add.at(grid, (bins[pos], 0, window.y[pos], window.x[pos]), 1.0)
    np.add.at(grid, (bins[~pos], 1, window.y[~pos], window.x[~pos]), 1.0)
    return grid
