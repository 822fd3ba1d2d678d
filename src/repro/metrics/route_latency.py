"""Analytic per-destination latency of a multicast route under each
switching technology (Ch. 2 models applied to Ch. 3 routes).

This quantifies Chapter 3's central argument for *which multicast model
fits which switching technology*: under store-and-forward, latency is
linear in hops, so the multicast tree model (shortest path to every
destination) wins; under wormhole/VCT/circuit switching, distance
hardly matters and minimising traffic (Steiner tree) or avoiding
replication (path/star models) is the right objective.
"""

from __future__ import annotations

from statistics import mean

from ..models.request import MulticastRequest
from .switching import LATENCY_MODELS, SwitchingParams


def dest_latencies(
    route,
    request: MulticastRequest,
    switching: str,
    params: SwitchingParams | None = None,
) -> dict:
    """Contention-free delivery latency per destination.

    For path-shaped routes under store-and-forward, a destination ``m``
    hops along the path receives the message after m full packet
    transmissions; under the pipelined technologies only the distance
    term differs.  Tree routes behave identically per destination since
    replication is free at routers.
    """
    model = LATENCY_MODELS[switching]
    if params is None:
        params = SwitchingParams()
    hops = route.dest_hops(request.destinations)
    return {d: model(h, params) for d, h in hops.items()}


def mean_latency(
    route,
    request: MulticastRequest,
    switching: str,
    params: SwitchingParams | None = None,
) -> float:
    """Mean contention-free latency over the destinations."""
    return mean(dest_latencies(route, request, switching, params).values())


def max_latency(
    route,
    request: MulticastRequest,
    switching: str,
    params: SwitchingParams | None = None,
) -> float:
    """Worst-case contention-free latency over the destinations."""
    return max(dest_latencies(route, request, switching, params).values())
