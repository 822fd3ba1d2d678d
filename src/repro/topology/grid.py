"""Grid graphs (§4.1, after Itai–Papadimitriou–Szwarcfiter).

A *grid graph* is a finite node-induced subgraph of the infinite integer
lattice: vertices are integer points of the plane, with an edge between
two vertices iff their Euclidean distance is 1.  Grid graphs are the
source problems of every NP-hardness reduction in Chapter 4 (their
Hamilton cycle/path problems are NP-complete), so this module provides
them as first-class objects together with the small-instance Hamilton
solvers the test-suite uses to validate the reductions.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator

Point = tuple[int, int]

_STEPS: tuple[Point, ...] = ((1, 0), (-1, 0), (0, 1), (0, -1))


class GridGraph:
    """A finite node-induced subgraph of the integer lattice.

    Completely specified by its vertex set (§4.1): the edge set is
    implied by unit adjacency.
    """

    #: the registry's family key (:func:`repro.registry.topology_family`)
    family = "grid"

    def __init__(self, vertices: Iterable[Point]):
        vs = set()
        for v in vertices:
            if not (isinstance(v, tuple) and len(v) == 2 and all(isinstance(c, int) for c in v)):
                raise ValueError(f"grid vertex must be an (int, int) tuple, got {v!r}")
            vs.add(v)
        if not vs:
            raise ValueError("grid graph must have at least one vertex")
        self._vertices = frozenset(vs)

    def __repr__(self) -> str:
        return f"GridGraph(|V|={len(self._vertices)})"

    def __contains__(self, v: Point) -> bool:
        return v in self._vertices

    def __len__(self) -> int:
        return len(self._vertices)

    @property
    def vertices(self) -> frozenset:
        return self._vertices

    def nodes(self) -> Iterator[Point]:
        return iter(sorted(self._vertices))

    def neighbors(self, v: Point) -> tuple[Point, ...]:
        x, y = v
        return tuple(
            (x + dx, y + dy) for dx, dy in _STEPS if (x + dx, y + dy) in self._vertices
        )

    def edges(self) -> Iterator[tuple[Point, Point]]:
        """Each undirected lattice edge once (endpoint-sorted)."""
        for v in self._vertices:
            for w in self.neighbors(v):
                if v < w:
                    yield (v, w)

    def num_edges(self) -> int:
        return sum(1 for _ in self.edges())

    def is_connected(self) -> bool:
        start = next(iter(self._vertices))
        seen = {start}
        frontier = deque([start])
        while frontier:
            v = frontier.popleft()
            for w in self.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == len(self._vertices)

    def bfs_levels(self, root: Point) -> list[list[Point]]:
        """Partition vertices into BFS distance classes A_0, A_1, ... from
        ``root``, as used by the Chapter 4 hypercube reduction."""
        if root not in self._vertices:
            raise ValueError(f"{root!r} is not a vertex")
        dist = {root: 0}
        order = deque([root])
        levels: list[list[Point]] = [[root]]
        while order:
            v = order.popleft()
            for w in self.neighbors(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    if dist[w] == len(levels):
                        levels.append([])
                    levels[dist[w]].append(w)
                    order.append(w)
        if len(dist) != len(self._vertices):
            raise ValueError("grid graph is not connected")
        return [sorted(level) for level in levels]

    def bfs_order(self, root: Point) -> list[Point]:
        """Vertices ordered v_0, v_1, ... so that nodes in earlier BFS
        levels come first (§4.2 ordering requirement)."""
        return [v for level in self.bfs_levels(root) for v in level]

    def bounding_box(self) -> tuple[Point, Point]:
        """``((min_x, min_y), (max_x, max_y))`` over the vertex set."""
        xs = [v[0] for v in self._vertices]
        ys = [v[1] for v in self._vertices]
        return (min(xs), min(ys)), (max(xs), max(ys))

    # ------------------------------------------------------------------
    # Small-instance Hamilton solvers (exponential; for validation only).
    # ------------------------------------------------------------------

    def hamiltonian_cycle(self) -> list[Point] | None:
        """A Hamilton cycle as a closed node sequence, or None.

        Backtracking search; intended for the small grids used to
        validate the Chapter 4 reductions, not for large inputs.
        """
        n = len(self._vertices)
        if n == 1:
            return None
        start = next(iter(sorted(self._vertices)))
        path = [start]
        used = {start}

        def extend() -> list[Point] | None:
            if len(path) == n:
                if start in self.neighbors(path[-1]):
                    return path + [start]
                return None
            for w in self.neighbors(path[-1]):
                if w not in used:
                    used.add(w)
                    path.append(w)
                    found = extend()
                    if found is not None:
                        return found
                    path.pop()
                    used.remove(w)
            return None

        return extend()

    def hamiltonian_path(self, start: Point | None = None) -> list[Point] | None:
        """A Hamilton path (optionally from ``start``), or None."""
        n = len(self._vertices)
        starts = [start] if start is not None else list(sorted(self._vertices))
        for s in starts:
            if s not in self._vertices:
                raise ValueError(f"{s!r} is not a vertex")
            path = [s]
            used = {s}

            def extend() -> list[Point] | None:
                if len(path) == n:
                    return list(path)
                for w in self.neighbors(path[-1]):
                    if w not in used:
                        used.add(w)
                        path.append(w)
                        found = extend()
                        if found is not None:
                            return found
                        path.pop()
                        used.remove(w)
                return None

            found = extend()
            if found is not None:
                return found
        return None


def rectangular_grid(width: int, height: int, origin: Point = (0, 0)) -> GridGraph:
    """The full ``width x height`` rectangular grid graph at ``origin``
    (a 2D mesh viewed as a grid graph, Def. 4.1)."""
    ox, oy = origin
    return GridGraph(
        (ox + x, oy + y) for x in range(width) for y in range(height)
    )
