"""Parity of the closed-form next hop with the dimension-ordered path loops.

Each topology family defines dimension-order routing once, as
``next_hop(u, v)``, and ``Topology.dimension_ordered_path`` walks it.
The per-family path loops it replaced are kept here verbatim as the
reference.  On 2-D meshes of 1 to 9 per side (1-wide included), 3-D
meshes, 1- to 8-cubes and tori with odd and even k, the derived path
must equal the loop's, ``next_hop`` must be the path's second node, and
the path must be a shortest one.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import Hypercube, KAryNCube, Mesh2D, Mesh3D


def mesh2d_path(self, u, v):
    """X-first (row) then Y (column) shortest path, as in §5.3."""
    x, y = u
    path = [u]
    step = 1 if v[0] > x else -1
    while x != v[0]:
        x += step
        path.append((x, y))
    step = 1 if v[1] > y else -1
    while y != v[1]:
        y += step
        path.append((x, y))
    return path


def mesh3d_path(self, u, v):
    """X then Y then Z dimension-ordered shortest path."""
    cur = list(u)
    path = [u]
    for axis in range(3):
        step = 1 if v[axis] > cur[axis] else -1
        while cur[axis] != v[axis]:
            cur[axis] += step
            path.append(tuple(cur))
    return path


def hypercube_path(self, u, v):
    """E-cube routing: correct differing bits lowest dimension first."""
    path = [u]
    cur = u
    diff = u ^ v
    bit = 0
    while diff:
        if diff & 1:
            cur ^= 1 << bit
            path.append(cur)
        diff >>= 1
        bit += 1
    return path


def karyncube_path(self, u, v):
    """Dimension-ordered shortest path taking the shorter ring arc."""
    cur = list(u)
    path = [u]
    for axis in range(self.n):
        a, b = cur[axis], v[axis]
        if a == b:
            continue
        fwd = (b - a) % self.k
        step = 1 if fwd <= self.k - fwd else -1
        while cur[axis] != b:
            cur[axis] = (cur[axis] + step) % self.k
            path.append(tuple(cur))
    return path


REFERENCE = {
    Mesh2D: mesh2d_path,
    Mesh3D: mesh3d_path,
    Hypercube: hypercube_path,
    KAryNCube: karyncube_path,
}

topologies = st.one_of(
    st.builds(Mesh2D, st.integers(1, 9), st.integers(1, 9)),
    st.builds(Mesh3D, st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
    st.builds(Hypercube, st.integers(1, 8)),
    # k = 2..7 covers odd rings and even rings, whose antipodal ties
    # go forward
    st.builds(KAryNCube, st.integers(2, 7), st.integers(1, 3)),
)


@st.composite
def topology_and_pair(draw):
    topology = draw(topologies)
    n = topology.num_nodes
    u = topology.node_at(draw(st.integers(0, n - 1)))
    v = topology.node_at(draw(st.integers(0, n - 1)))
    return topology, u, v


@settings(max_examples=600, deadline=None)
@given(topology_and_pair())
def test_path_equals_family_loop(tc):
    topology, u, v = tc
    path = topology.dimension_ordered_path(u, v)
    assert path == REFERENCE[type(topology)](topology, u, v)
    assert len(path) - 1 == topology.distance(u, v)
    if u != v:
        assert topology.next_hop(u, v) == path[1]

