"""2D and 3D mesh (non-wraparound) topologies (§2.1.2, Def. 4.1).

A 2D ``N1 x N2`` mesh has nodes ``(x, y)`` with ``0 <= x < N1`` (columns)
and ``0 <= y < N2`` (rows); two nodes are linked iff their Euclidean
distance is 1.  This is the Ametek 2010 / Intel Touchstone topology the
dissertation evaluates on.  The 3D mesh extends it with a z coordinate
(MIT J-machine, Caltech MOSAIC).
"""

from __future__ import annotations

from collections.abc import Iterator

from .base import Node, Topology


class Mesh2D(Topology):
    """A 2D ``width x height`` mesh; node addresses are ``(x, y)`` tuples."""

    family = "mesh2d"

    def __init__(self, width: int, height: int):
        if width < 1 or height < 1:
            raise ValueError("mesh dimensions must be positive")
        self.width = int(width)
        self.height = int(height)

    def __repr__(self) -> str:
        return f"Mesh2D({self.width}x{self.height})"

    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    def nodes(self) -> Iterator[Node]:
        for y in range(self.height):
            for x in range(self.width):
                yield (x, y)

    def is_node(self, v: Node) -> bool:
        return (
            isinstance(v, tuple)
            and len(v) == 2
            and isinstance(v[0], int)
            and isinstance(v[1], int)
            and 0 <= v[0] < self.width
            and 0 <= v[1] < self.height
        )

    def neighbors(self, v: Node) -> tuple[Node, ...]:
        x, y = v
        out = []
        if x + 1 < self.width:
            out.append((x + 1, y))
        if x - 1 >= 0:
            out.append((x - 1, y))
        if y + 1 < self.height:
            out.append((x, y + 1))
        if y - 1 >= 0:
            out.append((x, y - 1))
        return tuple(out)

    def distance(self, u: Node, v: Node) -> int:
        return abs(u[0] - v[0]) + abs(u[1] - v[1])

    def index(self, v: Node) -> int:
        x, y = v
        return y * self.width + x

    def node_at(self, i: int) -> Node:
        return (i % self.width, i // self.width)

    def _compute_distance_matrix(self):
        """Vectorised Manhattan distances via coordinate broadcasting."""
        import numpy as np

        xs = np.arange(self.num_nodes) % self.width
        ys = np.arange(self.num_nodes) // self.width
        return (
            np.abs(xs[:, None] - xs[None, :]) + np.abs(ys[:, None] - ys[None, :])
        ).astype(np.int64)

    def next_hop(self, u: Node, v: Node) -> Node:
        """X-first (row) then Y (column) routing, as in §5.3."""
        x, y = u
        if x != v[0]:
            return (x + 1 if v[0] > x else x - 1, y)
        return (x, y + 1 if v[1] > y else y - 1)


class Mesh3D(Topology):
    """A 3D ``width x height x depth`` mesh; addresses are ``(x, y, z)``."""

    family = "mesh3d"

    def __init__(self, width: int, height: int, depth: int):
        if min(width, height, depth) < 1:
            raise ValueError("mesh dimensions must be positive")
        self.width = int(width)
        self.height = int(height)
        self.depth = int(depth)

    def __repr__(self) -> str:
        return f"Mesh3D({self.width}x{self.height}x{self.depth})"

    @property
    def num_nodes(self) -> int:
        return self.width * self.height * self.depth

    def nodes(self) -> Iterator[Node]:
        for z in range(self.depth):
            for y in range(self.height):
                for x in range(self.width):
                    yield (x, y, z)

    def is_node(self, v: Node) -> bool:
        return (
            isinstance(v, tuple)
            and len(v) == 3
            and all(isinstance(c, int) for c in v)
            and 0 <= v[0] < self.width
            and 0 <= v[1] < self.height
            and 0 <= v[2] < self.depth
        )

    def neighbors(self, v: Node) -> tuple[Node, ...]:
        x, y, z = v
        out = []
        if x + 1 < self.width:
            out.append((x + 1, y, z))
        if x - 1 >= 0:
            out.append((x - 1, y, z))
        if y + 1 < self.height:
            out.append((x, y + 1, z))
        if y - 1 >= 0:
            out.append((x, y - 1, z))
        if z + 1 < self.depth:
            out.append((x, y, z + 1))
        if z - 1 >= 0:
            out.append((x, y, z - 1))
        return tuple(out)

    def distance(self, u: Node, v: Node) -> int:
        return sum(abs(a - b) for a, b in zip(u, v))

    def index(self, v: Node) -> int:
        x, y, z = v
        return (z * self.height + y) * self.width + x

    def node_at(self, i: int) -> Node:
        x = i % self.width
        i //= self.width
        return (x, i % self.height, i // self.height)

    def _compute_distance_matrix(self):
        """Vectorised Manhattan distances via coordinate broadcasting."""
        import numpy as np

        ids = np.arange(self.num_nodes)
        xs = ids % self.width
        ys = (ids // self.width) % self.height
        zs = ids // (self.width * self.height)
        return (
            np.abs(xs[:, None] - xs[None, :])
            + np.abs(ys[:, None] - ys[None, :])
            + np.abs(zs[:, None] - zs[None, :])
        ).astype(np.int64)

    def next_hop(self, u: Node, v: Node) -> Node:
        """X then Y then Z dimension-ordered routing."""
        x, y, z = u
        if x != v[0]:
            return (x + 1 if v[0] > x else x - 1, y, z)
        if y != v[1]:
            return (x, y + 1 if v[1] > y else y - 1, z)
        return (x, y, z + 1 if v[2] > z else z - 1)
