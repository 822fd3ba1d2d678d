"""Multicast communication models (Ch. 3)."""

from .request import MulticastRequest, random_multicast
from .results import (
    InvalidRouteError,
    MulticastCycle,
    MulticastPath,
    MulticastStar,
    MulticastTree,
    grow_tree,
)

__all__ = [
    "InvalidRouteError",
    "MulticastCycle",
    "MulticastPath",
    "MulticastStar",
    "MulticastTree",
    "MulticastRequest",
    "grow_tree",
    "random_multicast",
]
