"""Virtual-channel multi-plane path routing (§8.2, "Adaptive Routing
and Use of Virtual Channels").

The dissertation's closing chapter proposes: *"Instead of partitioning
the network into high-channel and low-channel networks ... the network
may be partitioned into many sub-networks.  The set of destination
nodes then may be distributed to different sub-networks to support
multiple multicast paths."*  This module implements that proposal.

With ``p`` virtual channels per physical channel the network becomes
``p`` independent *planes*, each containing a full high-channel and
low-channel subnetwork under the Hamiltonian labeling.  A multicast's
high (low) destinations are distributed over the planes — round-robin
over the label-sorted list, so each plane's path stays short — and
routed inside their plane with the ordinary routing function R.  Every
plane's CDG is acyclic (same argument as Assertions 2-3), so the scheme
is deadlock-free for any number of planes; the interesting question,
answered by ``benchmarks/bench_ablation_virtual_channels.py``, is how
latency trades against the hot-spot effect as p grows.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..labeling import canonical_labeling
from ..labeling.base import Labeling
from ..models.request import MulticastRequest
from ..models.results import MulticastStar
from ..registry import register_family
from .star_routing import route_path_through, split_high_low


class VirtualChannelStar(MulticastStar):
    """A multicast star whose paths are pinned to virtual-channel
    planes; ``planes[i]`` is the plane index of ``paths[i]``."""

    def __init__(self, topology, source, paths, partition, planes):
        super().__init__(topology, source, paths, partition)
        object.__setattr__(self, "planes", tuple(planes))


def distribute_over_planes(dests: Sequence, num_planes: int) -> list[list]:
    """Round-robin distribution of a label-sorted destination list over
    planes.  Keeps each plane's sublist label-sorted (a subsequence of a
    sorted list) and balances counts within one."""
    groups: list[list] = [[] for _ in range(num_planes)]
    for i, d in enumerate(dests):
        groups[i % num_planes].append(d)
    return [g for g in groups if g]


def _parse_planes(suffix: str):
    """Family-suffix parser for ``virtual-channel-<p>``: non-numeric
    suffixes are not of this family (fall through to unknown-scheme);
    a numeric plane count below one is rejected outright."""
    if not suffix.isdigit():
        return None
    planes = int(suffix)
    if planes < 1:
        raise ValueError("need at least one virtual-channel plane")
    return {"planes": planes}


def vc_cdg_certificate(topology, params=None):
    """Per-plane tagged copies of the high/low star CDG: every plane is
    an independent channel set routed by the same label-monotone rule,
    so the disjoint union certifies all p planes at once."""
    from .star_routing import star_cdg_certificate

    base = star_cdg_certificate(topology)
    planes = params.get("planes", 1) if params else 1
    return {((c1, p), (c2, p)) for p in range(planes) for c1, c2 in base}


@register_family(
    "virtual-channel-",
    parse=_parse_planes,
    kind="dynamic-worm",
    topologies=("mesh2d", "mesh3d", "hypercube", "torus"),
    result_model="star",
    worm_style="vc-star",
    requires_labeling=True,
    deadlock_free=True,
    cdg_certificate=vc_cdg_certificate,
    reference="§8.2 (p virtual-channel planes over the high/low subnetworks)",
)
def virtual_channel_route(
    request: MulticastRequest,
    num_planes: int = 2,
    labeling: Labeling | None = None,
) -> VirtualChannelStar:
    """Multi-plane dual-path routing: up to ``num_planes`` label-sorted
    paths per direction, each in its own virtual-channel plane.

    ``num_planes=1`` degenerates to dual-path routing.
    """
    if num_planes < 1:
        raise ValueError("need at least one virtual-channel plane")
    if labeling is None:
        labeling = canonical_labeling(request.topology)
    high, low = split_high_low(request, labeling)
    paths, partition, planes = [], [], []
    for group in (high, low):
        if not group:
            continue
        for plane, sub in enumerate(distribute_over_planes(group, num_planes)):
            paths.append(route_path_through(labeling, request.source, sub))
            partition.append(tuple(sub))
            planes.append(plane)
    return VirtualChannelStar(
        request.topology, request.source, tuple(paths), tuple(partition), planes
    )
