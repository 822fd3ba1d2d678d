"""Abstract multicomputer network topology.

The dissertation models a multicomputer's interconnection network as a
*host graph* ``G(V, E)`` (Ch. 2/3): each node is a processor, each edge a
bidirectional communication link realised as a pair of opposite directed
*channels*.  Concrete topologies (2D/3D mesh, hypercube, k-ary n-cube)
provide O(1) distance computation and the closed-form next hop of the
deterministic dimension-ordered shortest path, which the routing
algorithms of Ch. 5/6 rely on.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from collections.abc import Hashable, Iterable, Iterator, Sequence

Node = Hashable
Channel = tuple[Node, Node]


class Topology(ABC):
    """A fixed multicomputer network topology (host graph).

    Nodes are hashable addresses (coordinate tuples for meshes, integer
    bit-addresses for hypercubes).  Every topology provides a bijection
    between node addresses and dense indices ``0..num_nodes-1`` so that
    simulators and metrics can use array storage.

    Topologies are immutable once constructed, so every derived
    structure — node lists, neighbor tables, the all-pairs distance
    matrix, per-source distance rows, the diameter — is memoized on the
    instance the first time it is requested and never invalidated.
    Dimension-ordered paths are not cached: each family gives their
    next hop in closed form.
    """

    #: the registry's family key (:func:`repro.registry.topology_family`),
    #: None for a topology of no registered family
    family: str | None = None

    @property
    @abstractmethod
    def num_nodes(self) -> int:
        """Number of processors ``|V|``."""

    @abstractmethod
    def nodes(self) -> Iterator[Node]:
        """Iterate over all node addresses in index order."""

    @abstractmethod
    def is_node(self, v: Node) -> bool:
        """Whether ``v`` is a valid node address of this topology."""

    @abstractmethod
    def neighbors(self, v: Node) -> tuple[Node, ...]:
        """All nodes joined to ``v`` by a link."""

    @abstractmethod
    def distance(self, u: Node, v: Node) -> int:
        """Length of a shortest path between ``u`` and ``v``."""

    @abstractmethod
    def index(self, v: Node) -> int:
        """Dense index of ``v`` in ``0..num_nodes-1``."""

    @abstractmethod
    def node_at(self, i: int) -> Node:
        """Inverse of :meth:`index`."""

    @abstractmethod
    def next_hop(self, u: Node, v: Node) -> Node:
        """The first hop of the dimension-ordered shortest path from
        ``u`` to ``v`` (``u != v``), in closed form."""

    @abstractmethod
    def _compute_distance_matrix(self):
        """The all-pairs distance matrix behind :meth:`distance_matrix`."""

    def dimension_ordered_path(self, u: Node, v: Node) -> list[Node]:
        """The deterministic shortest path used by the base unicast routing.

        For meshes this is X-first (then Y, then Z) routing; for
        hypercubes it is e-cube routing (correct bits lowest dimension
        first).  Returns a fresh node list ``[u, ..., v]``, walked one
        :meth:`next_hop` at a time.
        """
        path = [u]
        next_hop = self.next_hop
        while u != v:
            u = next_hop(u, v)
            path.append(u)
        return path

    # Memoized derived structure, dropped when a topology is pickled
    # (e.g. shipped to a `repro.parallel.run_sweep` worker): every
    # entry is recomputable, and some — the distance rows, the
    # canonical labeling's route memos — can dwarf the topology itself.
    _CACHE_ATTRS = (
        "_rows",
        "_row_hits",
        "_node_list",
        "_index_map",
        "_neighbor_table",
        "_neighbor_indices",
        "_num_channels",
        "_distance_matrix",
        "_diameter",
        "_canonical_labeling",
    )

    def __getstate__(self):
        state = self.__dict__.copy()
        for key in self._CACHE_ATTRS:
            state.pop(key, None)
        return state

    # ------------------------------------------------------------------
    # Derived helpers shared by all topologies.
    # ------------------------------------------------------------------

    def node_list(self) -> list[Node]:
        """All node addresses in index order (cached)."""
        nodes = getattr(self, "_node_list", None)
        if nodes is None:
            nodes = self._node_list = list(self.nodes())
        return nodes

    def index_map(self) -> dict[Node, int]:
        """Mapping from node address to dense index (cached)."""
        imap = getattr(self, "_index_map", None)
        if imap is None:
            imap = self._index_map = {v: i for i, v in enumerate(self.node_list())}
        return imap

    def neighbor_table(self) -> tuple[Sequence[Node], ...]:
        """``neighbor_table()[i]`` is ``neighbors(node_at(i))`` (cached)."""
        table = getattr(self, "_neighbor_table", None)
        if table is None:
            table = self._neighbor_table = tuple(
                self.neighbors(v) for v in self.node_list()
            )
        return table

    def neighbor_indices(self) -> tuple[tuple[int, ...], ...]:
        """``neighbor_indices()[i]`` holds the dense indices of the
        neighbors of ``node_at(i)`` (cached)."""
        table = getattr(self, "_neighbor_indices", None)
        if table is None:
            imap = self.index_map()
            table = self._neighbor_indices = tuple(
                tuple(imap[w] for w in nbrs) for nbrs in self.neighbor_table()
            )
        return table

    def degree(self, v: Node) -> int:
        """Number of links incident to ``v``."""
        return len(self.neighbors(v))

    def channels(self) -> Iterator[Channel]:
        """All directed channels ``(u, v)`` with a link between u and v."""
        for u in self.nodes():
            for v in self.neighbors(u):
                yield (u, v)

    def undirected_edges(self) -> Iterator[frozenset]:
        """Each physical link once, as a frozenset of its endpoints."""
        seen: set[frozenset] = set()
        for u in self.nodes():
            for v in self.neighbors(u):
                e = frozenset((u, v))
                if e not in seen:
                    seen.add(e)
                    yield e

    @property
    def num_channels(self) -> int:
        """Number of directed channels (2x the number of links)."""
        count = getattr(self, "_num_channels", None)
        if count is None:
            count = self._num_channels = sum(
                len(nbrs) for nbrs in self.neighbor_table()
            )
        return count

    def distance_matrix(self):
        """All-pairs distance matrix as a numpy int array indexed by
        :meth:`index`.

        Computed once per instance and cached (the returned array is
        marked read-only; copy before mutating).  Concrete families
        vectorise the computation — coordinate broadcasting for meshes,
        XOR-popcount for hypercubes, ring-distance broadcasting for
        k-ary n-cubes.
        """
        M = getattr(self, "_distance_matrix", None)
        if M is None:
            M = self._compute_distance_matrix()
            M.setflags(write=False)
            self._distance_matrix = M
        return M

    def distance_row(self, i: int) -> list[int]:
        """Distances from node index ``i`` to every node, as a plain
        ``list[int]`` that hot loops index at C speed.

        Rows are memoized per source (BFS over :meth:`neighbor_indices`,
        or copied from the distance matrix when one is already built).
        The returned list is shared: callers must not mutate it.
        """
        rows = getattr(self, "_rows", None)
        if rows is None:
            rows = self._rows = {}
        row = rows.get(i)
        if row is not None:
            self._row_hits += 1
            return row
        matrix = getattr(self, "_distance_matrix", None)
        row = rows[i] = (
            [int(d) for d in matrix[i]] if matrix is not None else self._bfs_row(i)
        )
        return row

    def _bfs_row(self, src: int) -> list[int]:
        """One BFS over the neighbor-index table: the distances from
        node index ``src``, by definition of graph distance."""
        nbrs = self.neighbor_indices()
        n = self.num_nodes
        row = [0] * n
        seen = bytearray(n)
        seen[src] = 1
        frontier = deque((src,))
        while frontier:
            i = frontier.popleft()
            d = row[i] + 1
            for j in nbrs[i]:
                if not seen[j]:
                    seen[j] = 1
                    row[j] = d
                    frontier.append(j)
        return row

    #: the distance-row memo and its hit count (dropped on pickling)
    _rows: dict[int, list[int]]
    _row_hits = 0

    def cache_stats(self) -> dict[str, int]:
        """Distance-row memo counters.  Nothing caches paths; the two
        path counters stay, always 0, because the end-to-end benchmark
        harness reads all four keys."""
        return {
            "path_hits": 0,
            "path_misses": 0,
            "row_hits": self._row_hits,
            "rows_built": len(getattr(self, "_rows", ())),
        }

    def diameter(self) -> int:
        """Maximum shortest-path distance over all node pairs (from the
        cached distance matrix)."""
        diam = getattr(self, "_diameter", None)
        if diam is None:
            diam = self._diameter = int(self.distance_matrix().max())
        return diam

    def are_adjacent(self, u: Node, v: Node) -> bool:
        """Whether ``(u, v)`` is a link of the topology."""
        return self.distance(u, v) == 1

    def validate_multicast_set(self, source: Node, destinations: Iterable[Node]) -> None:
        """Raise ``ValueError`` unless source/destinations form a valid
        multicast set ``K`` (all distinct nodes of the topology, source
        not among the destinations)."""
        if not self.is_node(source):
            raise ValueError(f"source {source!r} is not a node of {self!r}")
        seen: set[Node] = set()
        for d in destinations:
            if not self.is_node(d):
                raise ValueError(f"destination {d!r} is not a node of {self!r}")
            if d == source:
                raise ValueError(f"destination {d!r} equals the source")
            if d in seen:
                raise ValueError(f"duplicate destination {d!r}")
            seen.add(d)

    def path_length(self, path: Sequence[Node]) -> int:
        """Number of links in a node sequence; validates adjacency."""
        for a, b in zip(path, path[1:]):
            if not self.are_adjacent(a, b):
                raise ValueError(f"{a!r} and {b!r} are not adjacent")
        return max(len(path) - 1, 0)
