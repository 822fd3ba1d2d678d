"""Routing adapters and workload generation for the dynamic study
(§7.2).

Each multicast routing scheme is adapted into a function that maps a
:class:`MulticastRequest` to the worm injections it causes.  Which
adapter runs is decided by the scheme's registered *worm style* — a
capability declared on its :class:`repro.registry.AlgorithmSpec` — so
:class:`Router` is a thin registry lookup with no per-scheme name
dispatch:

* ``star`` — path-based schemes (dual-path, multi-path, fixed-path)
  yield one :class:`PathSpec` per star path — independent worms;
* ``vc-star`` — the ``virtual-channel-<p>`` family pins each path worm
  to its own virtual-channel plane;
* ``adaptive`` — ``dual-path-adaptive`` worms carry a label-sorted
  itinerary and route hop by hop at simulation time;
* ``xfirst-tree`` — the X-first tree: on double channels one tagged
  :class:`TreeSpec` per quadrant subnetwork (§6.2's deadlock-free
  deployment), on single channels the plain §6.1 tree the deadlock
  demonstrations wedge;
* ``tree`` — the deadlock-prone e-cube tree (hypercubes) as a single
  untagged :class:`TreeSpec`;
* ``vct-tree`` — the buffered-replication VCT router of ref. [21].
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

from ..heuristics.xfirst import xfirst_route
from ..labeling import canonical_labeling
from ..models.request import MulticastRequest
from ..registry import AlgorithmSpec, get as get_spec, register_spec
from ..topology.hypercube import Hypercube
from ..wormhole.cdg import tree_stages
from ..wormhole.ecube_tree import ecube_tree_route
from ..wormhole.star_routing import split_high_low
from ..wormhole.subnetworks import partition_destinations, quadrant_levels


@dataclass(frozen=True)
class PathSpec:
    """One path worm: the node sequence and which nodes latch a copy.

    ``plane`` pins the worm to a virtual-channel plane (§8.2 extension);
    ``None`` uses the physical channels directly."""

    nodes: tuple
    destinations: frozenset
    plane: int | None = None


@dataclass(frozen=True)
class AdaptiveSpec:
    """One adaptive path worm (§8.2): routed hop by hop at simulation
    time; carries the label-sorted destination itinerary."""

    source: object
    destinations: tuple  # label-sorted travel order


@dataclass(frozen=True)
class VCTTreeSpec:
    """One buffered-replication VCT multicast tree (the ref. [21]
    router style): arcs + source + destinations."""

    source: object
    arcs: tuple
    destinations: frozenset


@dataclass(frozen=True)
class TreeSpec:
    """One lockstep tree worm: arcs grouped by depth (optionally tagged
    with a subnetwork name) and the destinations reached per level."""

    levels: tuple  # tuple of tuples of arcs
    dest_levels: tuple  # tuple of frozensets


def _star_to_specs(star) -> list[PathSpec]:
    return [
        PathSpec(tuple(path), frozenset(group))
        for path, group in zip(star.paths, star.partition)
    ]


def _tree_to_spec(tree, destinations, tag=None) -> TreeSpec:
    levels = tree_stages(tree, tag=tag)
    dset = set(destinations)
    dest_levels = []
    for level in levels:
        heads = {arc[1] for arc in level}
        dest_levels.append(frozenset(heads & dset))
    return TreeSpec(
        tuple(tuple(level) for level in levels), tuple(dest_levels)
    )


# ----------------------------------------------------------------------
# Worm adapters, keyed by the registry's ``worm_style`` capability.
# ----------------------------------------------------------------------

_WORM_ADAPTERS: dict[str, Callable] = {}


def worm_adapter(style: str):
    """Register the injection adapter for one ``worm_style``."""

    def decorate(fn: Callable) -> Callable:
        _WORM_ADAPTERS[style] = fn
        return fn

    return decorate


@worm_adapter("star")
def _star_worms(router: "Router", request: MulticastRequest) -> list:
    # path routes are computed per message and used unchecked, like
    # every route inside the program: the tests, the registry
    # conformance suite and `certify --all` check the routers.
    if router.routes_around_faults:
        blocked = router.fault_state.blocked_links(router.topology)
        if blocked:
            from ..wormhole.fault_tolerance import Unroutable

            # source routing sees the network's current fault state and
            # detours around it; when no monotone detour exists the
            # message is sent best-effort on the plain route (it
            # delivers what it can before dying, and the resilient
            # driver's retry picks up the remainder)
            try:
                star = router.spec.fault_route(request, blocked, router.labeling)
            except Unroutable:
                pass
            else:
                return _star_to_specs(star)
    star = router.spec.fn(request, router.labeling)
    return _star_to_specs(star)


@worm_adapter("vc-star")
def _vc_star_worms(router: "Router", request: MulticastRequest) -> list:
    star = router.spec.fn(request, router.num_planes, router.labeling)
    return [
        PathSpec(tuple(path), frozenset(group), plane)
        for path, group, plane in zip(star.paths, star.partition, star.planes)
    ]


@worm_adapter("adaptive")
def _adaptive_worms(router: "Router", request: MulticastRequest) -> list:
    high, low = split_high_low(request, router.labeling)
    return [
        AdaptiveSpec(request.source, tuple(group))
        for group in (high, low)
        if group
    ]


@worm_adapter("vct-tree")
def _vct_tree_worms(router: "Router", request: MulticastRequest) -> list:
    tree = (
        ecube_tree_route(request)
        if isinstance(router.topology, Hypercube)
        else xfirst_route(request)
    )
    return [
        VCTTreeSpec(request.source, tree.arcs, frozenset(request.destinations))
    ]


@worm_adapter("tree")
def _tree_worms(router: "Router", request: MulticastRequest) -> list:
    return [_tree_to_spec(router.spec.fn(request), request.destinations)]


@worm_adapter("xfirst-tree")
def _xfirst_tree_worms(router: "Router", request: MulticastRequest) -> list:
    if router.channels_per_link >= router.spec.min_channels:
        # double channels: one tree per quadrant subnetwork.  Each
        # quadrant tree delivers only its own quadrant's destinations,
        # even when it passes through another quadrant's destination on
        # a boundary row/column.
        parts = partition_destinations(request.source, request.destinations)
        return [
            TreeSpec(*quadrant_levels(request.source, dlist, quadrant))
            for quadrant, dlist in parts.items()
            if dlist
        ]
    # single channels: the deadlock-prone §6.1 mesh tree.
    return [_tree_to_spec(xfirst_route(request), request.destinations)]


register_spec(
    AlgorithmSpec(
        name="vct-tree",
        kind="dynamic-worm",
        topologies=("mesh2d", "hypercube"),
        worm_style="vct-tree",
        # virtual cut-through buffers the whole message at a blocked
        # node, so a waiting message holds no channels: the channel
        # dependency relation is empty (deadlock moved into buffers,
        # which the structured pool bounds).
        deadlock_free=True,
        cdg_certificate=lambda topology, params=None: frozenset(),
        reference="ref. [21] buffered-replication VCT multicast router (§2.2)",
    )
)


class Router:
    """Maps requests to worm specs for one routing scheme on one
    topology (precomputing the labeling once).

    The scheme name is resolved through :mod:`repro.registry`; the
    spec's ``worm_style`` capability selects the injection adapter, so
    adding a scheme never touches this class.  ``labeling`` overrides
    the canonical labeling — the throughput benchmark passes a
    :class:`~repro.labeling.reference.ReferenceRouting` proxy here to
    route on the uncached baseline path.  Routes are not checked here:
    the tests and the registry conformance suite check the routers.
    ``channels_per_link`` mirrors the simulated network's channel
    multiplicity; the X-first tree uses it to pick between the
    double-channel quadrant subnetworks and the plain single-channel
    tree (one spec, both deployments).  ``fault_state`` (a
    :class:`repro.sim.faults.FaultState`) makes fault-tolerant schemes
    route each message around the *currently* blocked channels; schemes
    without the ``fault_tolerant`` capability ignore it (their worms
    simply die on faults).  ``routes_around_faults`` says which: only
    then can a route change with the fault state, between two calls
    for the same request.
    """

    def __init__(
        self,
        topology,
        scheme: str,
        labeling=None,
        channels_per_link: int = 1,
        fault_state=None,
    ):
        spec = get_spec(scheme)
        if not spec.simulable:
            raise ValueError(
                f"scheme {scheme!r} is {spec.kind} and has no worm adapter; "
                f"the dynamic study needs a dynamic-worm scheme"
            )
        self.spec = spec
        self.topology = topology
        self.scheme = scheme
        self.channels_per_link = channels_per_link
        self.num_planes = spec.params.get("planes", 0)
        self.fault_state = fault_state
        self.routes_around_faults = fault_state is not None and spec.fault_tolerant
        if labeling is None and spec.requires_labeling:
            labeling = canonical_labeling(topology)
        self.labeling = labeling

    def __call__(self, request: MulticastRequest) -> list:
        return _WORM_ADAPTERS[self.spec.worm_style](self, request)
