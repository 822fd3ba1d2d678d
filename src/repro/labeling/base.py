"""Node labelings based on Hamiltonian paths (§6.2.2, §6.3).

Every deadlock-free path-based routing scheme of Chapter 6 rests on an
assignment ``l`` of labels ``0..N-1`` to nodes following a Hamiltonian
path of the host graph.  The labeling partitions the directed channels
into the *high-channel* subnetwork (channels from lower to higher
labels) and the *low-channel* subnetwork (higher to lower); each
subnetwork is acyclic, which is what makes the routing deadlock-free.

The routing function ``R`` (§6.2.2):

    R(u, v) = w, a neighbor of u, with
      l(w) = max{ l(p) : l(p) <= l(v), p adjacent to u }   if l(u) < l(v)
      l(w) = min{ l(p) : l(p) >= l(v), p adjacent to u }   if l(u) > l(v)

For the labelings shipped here (boustrophedon mesh labeling, reflected-
Gray-code hypercube labeling) the path selected by R is a *shortest*
path (Lemmas 6.1 and 6.4); for an arbitrary Hamiltonian labeling R still
terminates but may take detours (compare Fig. 6.10 — see
``repro.labeling.mesh.SpiralMeshLabeling`` for the ablation).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..topology.base import Node, Topology


class Labeling(ABC):
    """A bijective node labeling ``l: V -> {0..N-1}`` along a Hamiltonian
    path of a topology."""

    def __init__(self, topology: Topology):
        self.topology = topology

    @abstractmethod
    def label(self, v: Node) -> int:
        """The label ``l(v)``."""

    @abstractmethod
    def node_of(self, label: int) -> Node:
        """Inverse of :meth:`label`."""

    # ------------------------------------------------------------------
    # Memoized tables.
    #
    # Labelings are immutable (they wrap an immutable topology), so the
    # label table, the Hamiltonian path and the per-node neighbor
    # orderings are computed once on first use and never invalidated.
    # The routing function R and the star routers consult these tables
    # instead of recomputing labels or re-sorting neighbors per call.
    # ------------------------------------------------------------------

    def label_table(self) -> dict:
        """``{node: label(node)}`` for every node (cached)."""
        table = getattr(self, "_label_table", None)
        if table is None:
            table = self._label_table = {
                v: self.label(v) for v in self.topology.node_list()
            }
        return table

    def _label_of(self, v: Node) -> int:
        """Cached ``label(v)`` lookup through the label table."""
        return self.label_table()[v]

    def _labeled_neighbors(self, u: Node) -> tuple:
        """``(label(p), p)`` for each neighbor of ``u``, ascending by
        label (cached per node)."""
        table = getattr(self, "_labeled_neighbor_table", None)
        if table is None:
            table = self._labeled_neighbor_table = {}
        pairs = table.get(u)
        if pairs is None:
            pairs = table[u] = tuple(
                sorted((self._label_of(p), p) for p in self.topology.neighbors(u))
            )
        return pairs

    # ------------------------------------------------------------------
    # Derived structure.
    # ------------------------------------------------------------------

    def hamiltonian_path(self) -> list[Node]:
        """The underlying Hamiltonian path, in label order (a fresh
        copy of :meth:`hamiltonian_path_tuple`)."""
        return list(self.hamiltonian_path_tuple())

    def hamiltonian_path_tuple(self) -> tuple:
        """Cached immutable form of :meth:`hamiltonian_path`: entry
        ``i`` is the node labelled ``i``."""
        path = getattr(self, "_hamiltonian_path", None)
        if path is None:
            path = self._hamiltonian_path = tuple(
                self.node_of(i) for i in range(self.topology.num_nodes)
            )
        return path

    def is_hamiltonian(self) -> bool:
        """Whether consecutive labels are adjacent in the topology (the
        defining property of a Hamiltonian-path labeling)."""
        path = self.hamiltonian_path()
        return all(self.topology.are_adjacent(a, b) for a, b in zip(path, path[1:]))

    def high_neighbors(self, u: Node) -> list[Node]:
        """Neighbors of ``u`` with a higher label, in ascending label order."""
        lu = self._label_of(u)
        return [p for lp, p in self._labeled_neighbors(u) if lp > lu]

    def low_neighbors(self, u: Node) -> list[Node]:
        """Neighbors of ``u`` with a lower label, in descending label order."""
        lu = self._label_of(u)
        return [p for lp, p in reversed(self._labeled_neighbors(u)) if lp < lu]

    def high_channels(self) -> list[tuple[Node, Node]]:
        """Directed channels of the high-channel subnetwork."""
        return [
            (u, v) for u, v in self.topology.channels() if self.label(u) < self.label(v)
        ]

    def low_channels(self) -> list[tuple[Node, Node]]:
        """Directed channels of the low-channel subnetwork."""
        return [
            (u, v) for u, v in self.topology.channels() if self.label(u) > self.label(v)
        ]

    # ------------------------------------------------------------------
    # The routing function R.
    # ------------------------------------------------------------------

    def route_candidates(self, u: Node, v: Node) -> list[Node]:
        """All admissible next hops from ``u`` toward ``v``, best first.

        Admissible means label-monotone (staying inside the current
        high/low subnetwork, preserving deadlock freedom) and bounded by
        ``l(v)``; profitable (distance-reducing) candidates are
        preferred and ordered by R's max/min-label rule, with the
        unrestricted monotone candidates as fallback.  ``route_step``
        returns the first entry; the adaptive wormhole router (§8.2)
        may take any entry whose channel is free.
        """
        if u == v:
            raise ValueError("routing is undefined for u == v")
        lu, lv = self._label_of(u), self._label_of(v)
        pairs = self._labeled_neighbors(u)
        distance = self.topology.distance
        d_uv = distance(u, v)
        if lu < lv:
            profitable = [
                p
                for lp, p in reversed(pairs)
                if lu < lp <= lv and distance(p, v) < d_uv
            ]
            if profitable:
                return profitable
            # unrestricted fallback: the max-label neighbor below l(v)
            for lp, p in reversed(pairs):
                if lp <= lv:
                    return [p]
            raise ValueError(f"no neighbor of {u!r} with label <= {lv}")
        profitable = [
            p for lp, p in pairs if lv <= lp < lu and distance(p, v) < d_uv
        ]
        if profitable:
            return profitable
        # unrestricted fallback: the min-label neighbor above l(v)
        for lp, p in pairs:
            if lp >= lv:
                return [p]
        raise ValueError(f"no neighbor of {u!r} with label >= {lv}")

    def monotone_candidates(self, u: Node, v: Node) -> list[Node]:
        """Every label-monotone neighbor bounded by ``l(v)`` — the full
        set of hops that keep a message inside its subnetwork and short
        of overshooting the target.  Superset of
        :meth:`route_candidates`; any choice still terminates (labels
        strictly approach ``l(v)``), so this is the last-resort pool for
        fault avoidance."""
        if u == v:
            raise ValueError("routing is undefined for u == v")
        lu, lv = self._label_of(u), self._label_of(v)
        pairs = self._labeled_neighbors(u)
        if lu < lv:
            return [p for lp, p in reversed(pairs) if lu < lp <= lv]
        return [p for lp, p in pairs if lv <= lp < lu]

    def route_step(self, u: Node, v: Node) -> Node:
        """``R(u, v)``: the next hop from ``u`` toward ``v``.

        Candidates are restricted to *profitable* neighbors — those on a
        shortest path toward ``v`` — which is the reading under which
        the shortest-path claims of Lemmas 6.1 and 6.4 hold (their
        proofs only ever advance through neighbors that reduce the
        distance to ``v``; the unrestricted max-label rule takes detours
        on hypercubes, e.g. 000 -> 101 under the Gray labeling).  If no
        profitable neighbor satisfies the label bound — possible for
        non-canonical labelings such as the spiral ablation labeling —
        the rule falls back to the unrestricted candidates, trading
        shortest paths for guaranteed label-monotone progress.

        Raises ``ValueError`` for ``u == v``.

        Memoized per ``(u, v)`` pair: R is a pure function of the
        immutable labeling, and the dynamic study re-routes the same
        pairs thousands of times.  The cache is cleared wholesale if it
        ever exceeds a bound (relevant only for very large networks).
        """
        cache = getattr(self, "_route_step_cache", None)
        if cache is None:
            cache = self._route_step_cache = {}
        key = (u, v)
        nxt = cache.get(key)
        if nxt is None:
            if len(cache) > 1 << 17:
                cache.clear()
            nxt = cache[key] = self.route_candidates(u, v)[0]
        return nxt

    def route_path(self, u: Node, v: Node) -> list[Node]:
        """The full path ``(u, ..., v)`` selected by repeatedly applying R.

        For the canonical labelings this is a shortest path that is
        monotone in label (partial-order preserving; Lemmas 6.1/6.4).
        Memoized per pair; the returned list is a fresh copy.
        """
        return list(self.route_path_tuple(u, v))

    def route_path_tuple(self, u: Node, v: Node) -> tuple:
        """Cached immutable form of :meth:`route_path` (the hot routing
        loops splice these segments without re-walking R per hop)."""
        cache = getattr(self, "_route_path_cache", None)
        if cache is None:
            cache = self._route_path_cache = {}
        key = (u, v)
        hit = cache.get(key)
        if hit is not None:
            return hit
        path = [u]
        cur = u
        limit = self.topology.num_nodes
        while cur != v:
            cur = self.route_step(cur, v)
            path.append(cur)
            if len(path) > limit:
                raise RuntimeError(
                    "routing function R failed to converge; labeling is "
                    "probably not Hamiltonian"
                )
        if len(cache) > 1 << 17:
            cache.clear()
        path = cache[key] = tuple(path)
        return path
