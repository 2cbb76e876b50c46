"""Task accuracy metrics used by the paper's Table 2.

* AEE (average endpoint error) for optical flow — lower is better;
* mIOU (mean intersection over union) for segmentation / tracking — higher
  is better;
* average (log) depth error for depth estimation — lower is better.
"""

from .flow import average_endpoint_error
from .segmentation import confusion_matrix, mean_iou
from .depth import average_depth_error
from .tracking import box_iou
from .stats import geometric_mean

__all__ = [
    "average_endpoint_error",
    "mean_iou",
    "confusion_matrix",
    "average_depth_error",
    "box_iou",
    "geometric_mean",
]
