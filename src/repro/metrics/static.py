"""Static multicast route metrics (§7.1).

The static study measures the *traffic* a routing algorithm generates —
the number of link transmissions — independent of network conditions.
A 1-to-k multicast needs at least k transmissions, so the dissertation
plots *additional traffic* = traffic - k.  The figures' sweeps over
random multicast sets (Figs. 7.1-7.7) are :mod:`repro.experiments`.
"""

from __future__ import annotations

from ..models.request import MulticastRequest


def traffic(route) -> int:
    """Number of link transmissions of any route object."""
    return route.traffic


def additional_traffic(route, request: MulticastRequest) -> int:
    """Traffic beyond the k-transmission lower bound (§7.1)."""
    return route.traffic - request.k


def max_hops(route, request: MulticastRequest) -> int:
    """Maximum source-to-destination hop count along the route."""
    return max(route.dest_hops(request.destinations).values())

