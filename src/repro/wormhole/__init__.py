"""Deadlock-free multicast wormhole routing (Ch. 6)."""

from .cdg import (
    combined_cdg,
    fig_6_1_broadcast_deadlock_cdg,
    fig_6_1_requests,
    fig_6_4_requests,
    fig_6_4_xfirst_deadlock_cdg,
    find_cycle,
    full_quadrant_cdg,
    full_star_cdg,
    is_acyclic,
    path_stages,
    route_dependency_edges,
    star_stages,
    tree_stages,
)
from .ecube_tree import broadcast_tree, ecube_step, ecube_tree_route
from .fault_tolerance import (
    Unroutable,
    fault_tolerant_dual_path,
    fault_tolerant_path,
    routability,
)
from .virtual_channels import VirtualChannelStar, virtual_channel_route
from .star_routing import (
    dual_path_route,
    fixed_path_route,
    multi_path_route,
    route_path_through,
    split_high_low,
)
from .subnetworks import (
    QUADRANTS,
    double_channel_xfirst_route,
    partition_destinations,
    quadrant_channels,
    quadrant_levels,
)

__all__ = [
    "QUADRANTS",
    "Unroutable",
    "VirtualChannelStar",
    "broadcast_tree",
    "combined_cdg",
    "double_channel_xfirst_route",
    "dual_path_route",
    "ecube_step",
    "ecube_tree_route",
    "fault_tolerant_dual_path",
    "fault_tolerant_path",
    "fig_6_1_broadcast_deadlock_cdg",
    "fig_6_1_requests",
    "fig_6_4_requests",
    "fig_6_4_xfirst_deadlock_cdg",
    "find_cycle",
    "fixed_path_route",
    "full_quadrant_cdg",
    "full_star_cdg",
    "is_acyclic",
    "multi_path_route",
    "partition_destinations",
    "path_stages",
    "quadrant_channels",
    "quadrant_levels",
    "routability",
    "route_dependency_edges",
    "star_stages",
    "tree_stages",
    "virtual_channel_route",
]
