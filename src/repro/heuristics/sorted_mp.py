"""The sorted MP/MC heuristic routing algorithm (§5.1, Figs. 5.1-5.2).

A Hamilton cycle ``C`` of the host graph gives every node a position
``h``; destinations are sorted by the source-relative key ``f`` and the
message walks from one destination to the next, at every hop moving to
the neighbor with the largest ``f`` not exceeding the next
destination's ``f``.  Theorem 5.1 shows the selected edges induce a
multicast path; facts F1/F2 guarantee the Hamilton cycle exists for
meshes (one even side) and hypercubes.

The *multicast cycle* variant (for acknowledgement collection, Def. 3.2)
simply appends the source itself as a final destination with key
``m + h(u_0)``.
"""

from __future__ import annotations

from ..labeling.cycle import HamiltonCycleMapping, canonical_cycle
from ..models.request import MulticastRequest
from ..models.results import MulticastCycle, MulticastPath
from ..registry import register
from ..topology.base import Node


def sorted_mp_prepare(
    request: MulticastRequest, mapping: HamiltonCycleMapping
) -> list[Node]:
    """Message preparation (Fig. 5.1): destinations sorted ascending by
    the cycle-position key f."""
    u0 = request.source
    return sorted(request.destinations, key=lambda v: mapping.f(v, u0))


def sorted_mp_next_hop(
    mapping: HamiltonCycleMapping,
    source: Node,
    w: Node,
    target: Node,
    target_key: int | None = None,
) -> Node:
    """Message routing step 3 (Fig. 5.2): from node ``w``, select the
    neighboring node with the largest key f not exceeding the key of the
    next destination ``target``.

    For the MC variant the final destination is the source itself with
    the wrap-around key ``m + h(u_0)`` (passed as ``target_key``); the
    source is then also keyed ``m + h(u_0)`` when it appears as a
    candidate neighbor, so the walk can close the cycle.
    """
    fd = mapping.f(target, source) if target_key is None else target_key
    wrapping_home = target == source
    best = None
    best_f = -1
    for p in mapping.topology.neighbors(w):
        fp = (
            mapping.m + mapping.h(source)
            if wrapping_home and p == source
            else mapping.f(p, source)
        )
        if best_f < fp <= fd:
            best, best_f = p, fp
    if best is None:  # cannot happen for a valid Hamilton cycle (Fact 2)
        raise RuntimeError("sorted MP routing found no admissible neighbor")
    return best


@register(
    "sorted-mp",
    kind="static-route",
    topologies=("mesh2d", "hypercube"),
    result_model="path",
    reference="§5.1 Figs. 5.1-5.2 (Theorem 5.1; meshes need one even side)",
)
def sorted_mp_route(
    request: MulticastRequest, mapping: HamiltonCycleMapping | None = None
) -> MulticastPath:
    """Run the sorted MP algorithm; returns the induced multicast path."""
    if mapping is None:
        mapping = canonical_cycle(request.topology)
    u0 = request.source
    remaining = sorted_mp_prepare(request, mapping)
    nodes = _walk(mapping, u0, [(d, mapping.f(d, u0)) for d in remaining])
    return MulticastPath(request.topology, nodes)


@register(
    "sorted-mc",
    kind="static-route",
    topologies=("mesh2d", "hypercube"),
    result_model="cycle",
    reference="§5.1 (Def. 3.2 acknowledgement cycle variant)",
)
def sorted_mc_route(
    request: MulticastRequest, mapping: HamiltonCycleMapping | None = None
) -> MulticastCycle:
    """Run the sorted MC algorithm: the MP algorithm with the source
    appended as final destination at cycle position ``m + h(u_0)``
    (§5.1, last paragraph).  Returns the induced multicast cycle."""
    if mapping is None:
        mapping = canonical_cycle(request.topology)
    u0 = request.source
    keyed = [(d, mapping.f(d, u0)) for d in sorted_mp_prepare(request, mapping)]
    keyed.append((u0, mapping.m + mapping.h(u0)))
    nodes = _walk(mapping, u0, keyed)
    assert nodes[-1] == u0
    return MulticastCycle(request.topology, nodes[:-1])


def _walk(
    mapping: HamiltonCycleMapping, u0: Node, keyed_dests: list[tuple[Node, int]]
) -> list[Node]:
    """Drive the distributed routing (Fig. 5.2) from node to node,
    collecting the visited node sequence.

    ``keyed_dests`` carries explicit f keys so that the MC variant can
    give the source its wrap-around key ``m + h(u_0)``.
    """
    nodes = [u0]
    w = u0
    queue = list(keyed_dests)
    guard = 0
    while queue:
        target, fkey = queue[0]
        if w == target:
            queue.pop(0)
            continue
        w = sorted_mp_next_hop(mapping, u0, w, target, target_key=fkey)
        nodes.append(w)
        guard += 1
        if guard > 2 * mapping.m + 2:
            raise RuntimeError("sorted MP routing failed to terminate")
    return nodes
