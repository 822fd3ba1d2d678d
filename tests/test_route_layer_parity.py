"""Parity of the route layer with the code it replaced.

The simulator's routers used to build each route in more time than the
route is long.  The originals are kept here verbatim as references:

* :func:`seed_xfirst_tree_worms` — the double-channel X-first tree
  driven hop by hop (:func:`double_channel_xfirst_step`, kept in
  ``test_tree_walker_parity``, through :func:`repro.models.grow_tree`)
  and turned into levels by ``_tree_to_spec``; the quadrant trees are
  now built in closed form by :func:`repro.wormhole.quadrant_levels`;
* :func:`seed_split_high_low` — three ``label()`` calls per
  destination, where the label table now serves one lookup;
* :func:`seed_fixed_path_route` — one ``node_of()`` call per path node,
  where a slice of the cached Hamiltonian path now serves;
* :func:`seed_multi_path_groups_mesh` — the quadratic ``d not in side``
  split, now one pass, and :func:`seed_multi_path_groups_by_interval`;
* :func:`seed_fault_tolerant_path` — the detour rule applied at every
  hop, where R's memoized walk is now spliced up to its first faulty
  hop.

Hypothesis draws 2-D meshes (odd and 1-wide sides included),
hypercubes, 3-D meshes and k-ary n-cubes under their canonical
labelings, and 2-D meshes under :class:`SpiralMeshLabeling`, whose R
takes detours.  The tree specs must match level by level, in order,
with equal ``dest_levels``; the path specs must be equal; a
fault-tolerant route must give the same path or an ``Unroutable`` with
the same message, ``channel``, ``node`` and ``target``.
"""

from __future__ import annotations

import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.heuristics import xfirst_route
from repro.labeling import SpiralMeshLabeling, canonical_labeling
from repro.models import MulticastRequest, MulticastStar, grow_tree
from repro.sim.traffic import PathSpec, Router, _tree_to_spec
from repro.topology import Hypercube, KAryNCube, Mesh2D, Mesh3D
from repro.wormhole import (
    Unroutable,
    fault_tolerant_dual_path,
    fault_tolerant_path,
    partition_destinations,
    route_path_through,
    split_high_low,
)
from test_tree_walker_parity import double_channel_xfirst_step, meshes

# ----------------------------------------------------------------------
# The replaced code, verbatim apart from the ``seed_`` names.
# ----------------------------------------------------------------------


def seed_double_channel_xfirst_route(request):
    mesh = request.topology
    parts = partition_destinations(request.source, request.destinations)
    return [
        (quadrant, grow_tree(mesh, request.source, dlist,
                             partial(double_channel_xfirst_step, mesh, quadrant)))
        for quadrant, dlist in parts.items()
        if dlist
    ]


def seed_xfirst_tree_worms(router, request):
    if router.channels_per_link >= router.spec.min_channels:
        parts = partition_destinations(request.source, request.destinations)
        return [
            _tree_to_spec(tree, parts[quadrant], tag=quadrant)
            for quadrant, tree in seed_double_channel_xfirst_route(request)
        ]
    return [_tree_to_spec(xfirst_route(request), request.destinations)]


def seed_split_high_low(request, labeling):
    l0 = labeling.label(request.source)
    high = sorted(
        (d for d in request.destinations if labeling.label(d) > l0), key=labeling.label
    )
    low = sorted(
        (d for d in request.destinations if labeling.label(d) < l0),
        key=labeling.label,
        reverse=True,
    )
    return high, low


def seed_dual_path_route(request, labeling):
    high, low = seed_split_high_low(request, labeling)
    paths, partition = [], []
    for group in (high, low):
        if group:
            paths.append(route_path_through(labeling, request.source, group))
            partition.append(tuple(group))
    return MulticastStar(request.topology, request.source, tuple(paths), tuple(partition))


def seed_multi_path_groups_mesh(request, labeling):
    src = request.source
    x0 = src[0]
    high, low = seed_split_high_low(request, labeling)
    groups = []
    for dlist, neighbors in (
        (high, labeling.high_neighbors(src)),
        (low, labeling.low_neighbors(src)),
    ):
        if not dlist:
            continue
        horizontal = [v for v in neighbors if v[1] == src[1]]
        vertical = [v for v in neighbors if v[1] != src[1]]
        if horizontal and vertical:
            vh = horizontal[0]
            side = (
                [d for d in dlist if d[0] >= vh[0]]
                if vh[0] > x0
                else [d for d in dlist if d[0] <= vh[0]]
            )
            rest = [d for d in dlist if d not in side]
            if side:
                groups.append((vh, side))
            if rest:
                groups.append((vertical[0], rest))
        else:
            groups.append((neighbors[0], list(dlist)))
    return groups


def seed_multi_path_groups_by_interval(request, labeling):
    src = request.source
    high, low = seed_split_high_low(request, labeling)
    groups = []
    if high:
        vs = labeling.high_neighbors(src)  # ascending label
        bounds = [labeling.label(v) for v in vs] + [float("inf")]
        for i, v in enumerate(vs):
            bucket = [
                d for d in high if bounds[i] <= labeling.label(d) < bounds[i + 1]
            ]
            if bucket:
                groups.append((v, bucket))
    if low:
        vs = labeling.low_neighbors(src)  # descending label
        bounds = [labeling.label(v) for v in vs] + [float("-inf")]
        for i, v in enumerate(vs):
            bucket = [
                d for d in low if bounds[i] >= labeling.label(d) > bounds[i + 1]
            ]
            if bucket:
                groups.append((v, bucket))
    return groups


def seed_multi_path_route(request, labeling):
    topo = request.topology
    groups = (
        seed_multi_path_groups_mesh(request, labeling)
        if isinstance(topo, Mesh2D)
        else seed_multi_path_groups_by_interval(request, labeling)
    )
    paths, partition = [], []
    for first_hop, dlist in groups:
        paths.append([request.source] + route_path_through(labeling, first_hop, dlist))
        partition.append(tuple(dlist))
    return MulticastStar(topo, request.source, tuple(paths), tuple(partition))


def seed_fixed_path_route(request, labeling):
    high, low = seed_split_high_low(request, labeling)
    l0 = labeling.label(request.source)
    paths, partition = [], []
    if high:
        top = labeling.label(high[-1])
        paths.append([labeling.node_of(i) for i in range(l0, top + 1)])
        partition.append(tuple(high))
    if low:
        bottom = labeling.label(low[-1])
        paths.append([labeling.node_of(i) for i in range(l0, bottom - 1, -1)])
        partition.append(tuple(low))
    return MulticastStar(request.topology, request.source, tuple(paths), tuple(partition))


def seed_fault_tolerant_path(labeling, start, dests, faulty):
    bad = set(faulty)
    path = [start]
    w = start
    queue = list(dests)
    limit = labeling.topology.num_nodes * 2
    while queue:
        if w == queue[0]:
            queue.pop(0)
            continue
        candidates = labeling.route_candidates(w, queue[0])
        usable = [p for p in candidates if (w, p) not in bad]
        if not usable:
            # last resort: any label-monotone bounded neighbor makes
            # progress (possibly off the shortest path)
            usable = [
                p
                for p in labeling.monotone_candidates(w, queue[0])
                if (w, p) not in bad
            ]
        if not usable:
            raise Unroutable(
                f"all monotone channels out of {w!r} toward {queue[0]!r} are "
                f"faulty (blocking channel {(w, candidates[0])!r})",
                channel=(w, candidates[0]),
                node=w,
                target=queue[0],
            )
        w = usable[0]
        path.append(w)
        if len(path) > limit:
            raise Unroutable("detours failed to converge")
    return path


def seed_fault_tolerant_dual_path(request, faulty, labeling):
    bad = set(faulty)
    high, low = seed_split_high_low(request, labeling)
    paths, partition = [], []
    for group in (high, low):
        if group:
            paths.append(seed_fault_tolerant_path(labeling, request.source, group, bad))
            partition.append(tuple(group))
    return MulticastStar(request.topology, request.source, tuple(paths), tuple(partition))


SEED_STAR_ROUTERS = {
    "dual-path": seed_dual_path_route,
    "multi-path": seed_multi_path_route,
    "fixed-path": seed_fixed_path_route,
}

# ----------------------------------------------------------------------
# Inputs.
# ----------------------------------------------------------------------


def labeled_topologies():
    """``(topology, labeling)``: every family under its canonical
    labeling, and 2-D meshes under the detouring spiral labeling."""
    canonical = st.one_of(
        meshes(),
        st.integers(1, 6).map(Hypercube),
        st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(2, 4)).map(
            lambda s: Mesh3D(*s)
        ),
        st.tuples(st.integers(3, 5), st.integers(1, 3)).map(lambda s: KAryNCube(*s)),
    ).map(lambda t: (t, canonical_labeling(t)))
    spiral = meshes().map(lambda m: (m, SpiralMeshLabeling(m)))
    return st.one_of(canonical, spiral)


@st.composite
def requests(draw, labeled):
    """``(request, labeling)``: a request with 1 to 24 destinations in
    random order, on a topology drawn with its labeling from
    ``labeled``."""
    topo, labeling = draw(labeled)
    nodes = topo.node_list()
    source = draw(st.sampled_from(nodes))
    others = draw(st.permutations([v for v in nodes if v != source]))
    k = draw(st.integers(1, min(24, len(others))))
    return MulticastRequest(topo, source, tuple(others[:k])), labeling


def _outcome(route, *args):
    """A route, or the attributes of the ``Unroutable`` it raised."""
    try:
        return route(*args)
    except Unroutable as exc:
        return ("unroutable", str(exc), exc.channel, exc.node, exc.target)


# ----------------------------------------------------------------------
# Parity.
# ----------------------------------------------------------------------


@given(requests(meshes().map(lambda m: (m, None))))
@settings(max_examples=200, deadline=None)
def test_xfirst_tree_specs_match_step_driven_reference(drawn):
    request, _ = drawn
    for channels in (1, 2):
        router = Router(request.topology, "xfirst-tree", channels_per_link=channels)
        specs, seed = router(request), seed_xfirst_tree_worms(router, request)
        assert [s.levels for s in specs] == [s.levels for s in seed]
        assert [s.dest_levels for s in specs] == [s.dest_levels for s in seed]


@given(requests(labeled_topologies()))
@settings(max_examples=200, deadline=None)
def test_split_high_low_matches_reference(drawn):
    request, labeling = drawn
    assert split_high_low(request, labeling) == seed_split_high_low(request, labeling)


@pytest.mark.parametrize("scheme", sorted(SEED_STAR_ROUTERS))
@given(drawn=requests(labeled_topologies()))
@settings(max_examples=120, deadline=None)
def test_star_path_specs_match_reference(scheme, drawn):
    request, labeling = drawn
    router = Router(request.topology, scheme, labeling=labeling)
    star = SEED_STAR_ROUTERS[scheme](request, labeling)
    assert router(request) == [
        PathSpec(tuple(path), frozenset(group))
        for path, group in zip(star.paths, star.partition)
    ]


@given(
    drawn=requests(labeled_topologies()),
    fault_rate=st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.4]),
    fault_seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=250, deadline=None)
def test_fault_tolerant_routes_match_hop_by_hop_reference(drawn, fault_rate, fault_seed):
    request, labeling = drawn
    channels = sorted(request.topology.channels())
    faulty = frozenset(random.Random(fault_seed).sample(
        channels, round(fault_rate * len(channels))
    ))
    high, low = split_high_low(request, labeling)
    for group in (high, low):
        if group:
            assert _outcome(
                fault_tolerant_path, labeling, request.source, group, faulty
            ) == _outcome(seed_fault_tolerant_path, labeling, request.source, group, faulty)
    got = _outcome(fault_tolerant_dual_path, request, faulty, labeling)
    want = _outcome(seed_fault_tolerant_dual_path, request, faulty, labeling)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert (got.paths, got.partition) == (want.paths, want.partition)

