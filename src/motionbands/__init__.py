"""Multi-band temporal activity engine for fixed-camera networks.

Extracts noise-free, short-term in-place, short-term moving, and long-term
isochronal activity from block-motion streams through one filter cascade;
gates expensive detection on activity events; prices robot paths by
learned and live activity; exports ROS-compatible cost maps.
"""

__version__ = "0.1.0"

from .config import BandParams, alpha_from_decay
from .errors import (
    InvalidParameterError,
    RejectedInputError,
    StoreLoadError,
    UnknownSegmentError,
)
from .filters import BandOutputs, CascadeFilter
from .isochron import IsochronalStore, minute_of_day
from .motion import GrayFrame, MotionFrame, extract_motion

__all__ = [
    "BandOutputs",
    "BandParams",
    "CascadeFilter",
    "GrayFrame",
    "InvalidParameterError",
    "IsochronalStore",
    "MotionFrame",
    "RejectedInputError",
    "StoreLoadError",
    "UnknownSegmentError",
    "alpha_from_decay",
    "extract_motion",
    "minute_of_day",
    "__version__",
]
