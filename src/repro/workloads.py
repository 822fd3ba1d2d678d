"""Synthetic communication workloads (§8.2: "some benchmarks are
necessary to run the simulation in order to get more convincing
results").

Beyond the uniform-random destinations of the Chapter 7 study, this
module provides the standard traffic patterns of the interconnection-
network literature adapted to multicast, plus application-flavoured
patterns matching the dissertation's motivating workloads (§1.1):

* ``uniform``        — k destinations uniformly at random (Ch. 7);
* ``local``          — destinations clustered near the source
                       (image-processing region exchange);
* ``subcube``        — destinations forming an aligned subcube/submesh
                       (the nCUBE-2's supported multicast shape);
* ``transpose``      — destination sets around the transposed address
                       (matrix algorithms);
* ``bit_reversal``   — around the bit-reversed address (FFT);
* ``broadcast``      — all other nodes (barrier release).
"""

from __future__ import annotations

import random
from collections.abc import Callable

from .models.request import MulticastRequest, random_multicast
from .topology.base import Node, Topology
from .topology.hypercube import Hypercube
from .topology.mesh import Mesh2D


def uniform(topology: Topology, source: Node, k: int, rng: random.Random) -> MulticastRequest:
    """k distinct uniformly random destinations (the §7.1 generator);
    raises ``ValueError`` unless ``1 <= k <= num_nodes - 1``."""
    return random_multicast(topology, k, rng, source=source)


def local(
    topology: Topology, source: Node, k: int, rng: random.Random, radius: int = 3
) -> MulticastRequest:
    """k destinations drawn uniformly from within ``radius`` hops of the
    source (spatially local traffic)."""
    ball = [
        v
        for v in topology.nodes()
        if v != source and topology.distance(source, v) <= radius
    ]
    if len(ball) < k:
        raise ValueError(f"only {len(ball)} nodes within radius {radius}")
    dests = rng.sample(ball, k)
    return MulticastRequest(topology, source, tuple(sorted(dests, key=topology.index)))


def subcube(topology: Topology, source: Node, k: int, rng: random.Random) -> MulticastRequest:
    """Destinations forming an aligned subcube (hypercube) or submesh
    (mesh) containing the source — the restricted multicast shape
    nCUBE-2 hardware supported (§6.1).  ``k`` is rounded up to the next
    feasible shape size minus one."""
    if isinstance(topology, Hypercube):
        dims = 0
        while (1 << dims) - 1 < k:
            dims += 1
        dims = min(dims, topology.n)
        free = rng.sample(range(topology.n), dims)
        members = {source}
        for bits in range(1 << dims):
            v = source
            for j, bit_pos in enumerate(free):
                if (bits >> j) & 1:
                    v ^= 1 << bit_pos
            members.add(v)
        members.discard(source)
        return MulticastRequest(topology, source, tuple(sorted(members)))
    if isinstance(topology, Mesh2D):
        side = 1
        while (side + 1) * (side + 1) - 1 < k:
            side += 1
        w = min(side + 1, topology.width)
        h = min(side + 1, topology.height)
        x0 = min(source[0], topology.width - w)
        y0 = min(source[1], topology.height - h)
        members = {
            (x, y) for x in range(x0, x0 + w) for y in range(y0, y0 + h)
        } - {source}
        return MulticastRequest(topology, source, tuple(sorted(members)))
    raise TypeError(f"no subcube pattern for {topology!r}")


def _offset_neighbourhood(topology, center_index: int, source, k: int, rng):
    n = topology.num_nodes
    chosen: set = set()
    spread = 0
    while len(chosen) < k:
        i = (center_index + rng.randint(-spread, spread)) % n
        if i != topology.index(source):
            chosen.add(i)
        spread += 1
    return MulticastRequest(
        topology, source, tuple(topology.node_at(i) for i in sorted(chosen))
    )


def transpose(topology: Topology, source: Node, k: int, rng: random.Random) -> MulticastRequest:
    """Destinations clustered around the transposed address (matrix
    transpose communication)."""
    if isinstance(topology, Mesh2D) and topology.width == topology.height:
        center = topology.index((source[1], source[0]))
    elif isinstance(topology, Hypercube) and topology.n % 2 == 0:
        half = topology.n // 2
        mask = (1 << half) - 1
        center = ((source & mask) << half) | (source >> half)
    else:
        raise TypeError("transpose needs a square mesh or even-dimension cube")
    return _offset_neighbourhood(topology, center, source, k, rng)


def bit_reversal(topology: Topology, source: Node, k: int, rng: random.Random) -> MulticastRequest:
    """Destinations clustered around the bit-reversed address (FFT
    butterfly communication)."""
    n_bits = (topology.num_nodes - 1).bit_length()
    i = topology.index(source)
    rev = int(format(i, f"0{n_bits}b")[::-1], 2) % topology.num_nodes
    return _offset_neighbourhood(topology, rev, source, k, rng)


def broadcast(topology: Topology, source: Node, k: int, rng: random.Random) -> MulticastRequest:
    """All other nodes (``k`` is ignored)."""
    return MulticastRequest(
        topology, source, tuple(v for v in topology.nodes() if v != source)
    )


PATTERNS: dict[str, Callable] = {
    "uniform": uniform,
    "local": local,
    "subcube": subcube,
    "transpose": transpose,
    "bit-reversal": bit_reversal,
    "broadcast": broadcast,
}
